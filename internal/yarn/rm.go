package yarn

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/ids"
	"repro/internal/log4j"
	"repro/internal/rng"
	"repro/internal/sim"
)

// AppSpec describes one application submission.
type AppSpec struct {
	Name     string
	Type     string // "SPARK" or "MAPREDUCE"; recorded in the RM log
	AMLaunch LaunchSpec
	// AMProfile overrides Config.AMProfile when non-zero.
	AMProfile Profile
	// Queue names the Capacity Scheduler leaf queue ("" = default).
	Queue string
}

// App is the ResourceManager's view of one application (RMAppImpl).
type App struct {
	ID    ids.AppID
	Spec  AppSpec
	State string

	SubmitTime sim.Time
	FinishTime sim.Time

	pendingGrants []*Allocation // allocated, awaiting AM acquisition
	running       map[ids.ContainerID]*Allocation
	finished      bool
	queue         *queueState
	onFailure     func(*Allocation)
}

// ask is a pending centralized container request.
type ask struct {
	app       *App
	profile   Profile
	remaining int
	forAM     bool
	// waitBeats is the delay-scheduling skip counter: the ask is passed
	// over on this many node heartbeats before it becomes assignable.
	waitBeats int
	// asked is when the request entered the queue, for the RM's
	// allocation-latency histogram.
	asked sim.Time
}

// RM is the ResourceManager.
type RM struct {
	Eng  *sim.Engine
	Cfg  Config
	Cl   *cluster.Cluster
	Sink *log4j.Sink
	IDs  *ids.Factory

	// Tracer, when set, receives ground-truth scheduling spans at the
	// instant each phase completes (the simulator-side counterpart of the
	// spans SDchecker mines from logs). Nil disables recording.
	Tracer *sim.Recorder

	logs rmLoggers
	rng  *rng.Source
	met  *rmMetrics

	nms    []*NodeManager
	apps   map[ids.AppID]*App
	queue  []*ask
	queues *queueSet

	// inflight holds allocations between the reserve+charge taken on a
	// node heartbeat and the serialized decision event that routes them
	// (finalizeAllocation). Snapshots must see them: their queue charge
	// and node reservation are already live, so conservation oracles
	// would otherwise observe charges with no owning container.
	inflight []*Allocation

	// liveTick drives the node liveliness monitor (AbstractLivelinessMonitor):
	// nodes whose heartbeat is older than Cfg.NodeExpiryMs are expired and
	// their containers declared LOST. Started lazily with the first NM.
	liveTick *sim.Ticker

	// decisionClockUS serializes Capacity Scheduler allocation decisions
	// at sub-millisecond granularity (the engine ticks in ms, so decisions
	// are tracked in absolute microseconds and rounded when logged). This
	// is what bounds cluster-wide allocation throughput (Table II).
	decisionClockUS int64

	// AllocatedTotal counts every container allocation, for throughput
	// accounting alongside the log-mined numbers.
	AllocatedTotal int
}

// NewRM builds a ResourceManager over the cluster. NodeManagers attach
// themselves via registerNM (see NewNodeManager).
func NewRM(eng *sim.Engine, cfg Config, cl *cluster.Cluster, sink *log4j.Sink, factory *ids.Factory, seed uint64) *RM {
	schedClass := ClassCapacitySched
	if cfg.Scheduler == SchedOpportunistic {
		schedClass = ClassOpportunistic
	}
	totalMem := 0
	for _, n := range cl.Nodes {
		totalMem += n.MemoryMB
	}
	qs, err := newQueueSet(totalMem, cfg.Queues)
	if err != nil {
		panic(err) // queue configuration errors are deployment bugs
	}
	return &RM{
		Eng:    eng,
		Cfg:    cfg,
		Cl:     cl,
		Sink:   sink,
		IDs:    factory,
		logs:   newRMLoggers(sink, schedClass),
		rng:    rng.New(seed),
		apps:   make(map[ids.AppID]*App),
		queues: qs,
	}
}

// QueueUsage returns a leaf queue's current share of cluster memory.
func (rm *RM) QueueUsage(name string) float64 { return rm.queues.usage(name) }

// ChargedContainers lists containers still holding a queue charge, for
// leak checks in tests: after every app drains it must be empty.
func (rm *RM) ChargedContainers() []string {
	var out []string
	for _, a := range rm.apps {
		for _, al := range a.running {
			if al.queue != nil {
				out = append(out, fmt.Sprintf("%s running on %s (down=%v finished=%v)", al.Container, al.Node.Node.Name, al.Node.down, a.finished))
			}
		}
		for _, al := range a.pendingGrants {
			if al.queue != nil {
				out = append(out, fmt.Sprintf("%s pending on %s (down=%v finished=%v)", al.Container, al.Node.Node.Name, al.Node.down, a.finished))
			}
		}
	}
	sort.Strings(out)
	return out
}

func (rm *RM) registerNM(nm *NodeManager) {
	nm.lastBeat = rm.Eng.Now()
	rm.nms = append(rm.nms, nm)
	if rm.liveTick == nil && rm.Cfg.NodeExpiryMs > 0 {
		period := rm.Cfg.NodeExpiryMs / 2
		if period < 500 {
			period = 500
		}
		rm.liveTick = sim.NewTicker(rm.Eng, period, period, rm.checkLiveness)
	}
}

// checkLiveness expires nodes that have missed heartbeats for longer than
// NodeExpiryMs, the RM-side half of crash detection: the NM does not tell
// the RM it died, silence does.
func (rm *RM) checkLiveness() {
	now := rm.Eng.Now()
	for _, nm := range rm.nms {
		if nm.expired {
			// Still LOST. Allocations can land on an expired node after
			// its expiry sweep (the distributed scheduler samples nodes
			// with no global view — a grant can target a dead node), and
			// if the node never returns, no resync will ever report them.
			// Re-sweep so such stragglers are declared lost on the next
			// liveness tick; containerLost is idempotent.
			for _, al := range rm.allocationsOn(nm) {
				rm.containerLost(al)
			}
			continue
		}
		if int64(now-nm.lastBeat) <= rm.Cfg.NodeExpiryMs {
			continue
		}
		rm.expireNode(nm)
	}
}

// expireNode marks a silent node LOST and declares every container the RM
// placed there dead, in the real RM's log vocabulary.
func (rm *RM) expireNode(nm *NodeManager) {
	nm.expired = true
	host := nm.Node.Name + ":8041"
	rm.logs.live.Infof("Expired:%s Timed out after %d secs", host, rm.Cfg.NodeExpiryMs/1000)
	rm.logs.node.Infof("Deactivating Node %s as it is now LOST", host)
	rm.logs.node.Infof("%s Node Transitioned from RUNNING to LOST", host)
	for _, al := range rm.allocationsOn(nm) {
		rm.containerLost(al)
	}
}

// allocationsOn collects every live allocation the RM has placed on the
// node — acquired/running containers plus grants still awaiting AM pull —
// in deterministic (app sequence, container number) order. Finished apps
// are included: an app can complete (gate timers let it limp) while a
// stranded container still holds its queue charge.
func (rm *RM) allocationsOn(nm *NodeManager) []*Allocation {
	var out []*Allocation
	for _, a := range rm.apps {
		for _, al := range a.running {
			if al.Node == nm && !al.lost {
				out = append(out, al)
			}
		}
		for _, al := range a.pendingGrants {
			if al.Node == nm && !al.lost {
				out = append(out, al)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := out[i].Container, out[j].Container
		if ci.App.Seq != cj.App.Seq {
			return ci.App.Seq < cj.App.Seq
		}
		return ci.Num < cj.Num
	})
	return out
}

// containerLost reports one container killed by a node failure: the
// RMContainerImpl transitions to KILLED with the lost-node exit status
// (-100), queue charge is dropped, and the owner recovers — the RM itself
// retries AppMasters, worker losses reach the AM on its next heartbeat.
// Idempotent per allocation (expiry and NM resync can both report it).
func (rm *RM) containerLost(al *Allocation) {
	if al.lost {
		return
	}
	al.lost = true
	rm.contState(al.Container, "RUNNING", "KILLED")
	rm.logs.cont.Infof("%s completed with exit status -100. Diagnostics: Container released on a *lost* node", al.Container)
	if al.queue != nil {
		rm.queues.uncharge(al.queue, al.Profile.MemoryMB)
		al.queue = nil
	}
	a := rm.apps[al.Container.App]
	if a == nil || a.finished {
		return
	}
	delete(a.running, al.Container)
	kept := a.pendingGrants[:0]
	for _, g := range a.pendingGrants {
		if g != al {
			kept = append(kept, g)
		}
	}
	a.pendingGrants = kept
	if al.forAM || al.Container.IsAM() {
		rm.requeueAM(a)
		return
	}
	if a.onFailure != nil {
		delay := int64(rm.rng.Uniform(100, 400))
		rm.Eng.After(delay, func() {
			if !a.finished && a.onFailure != nil {
				a.onFailure(al)
			}
		})
	}
}

// safeUnreserve returns a guaranteed container's node reservation, unless
// the node has crashed (its counters are dead) or restarted since the
// reservation was made (its counters were zeroed; unreserving against the
// fresh incarnation would drive them negative).
func (rm *RM) safeUnreserve(al *Allocation) {
	if al.Type == Guaranteed && !al.Node.down && al.Node.epoch == al.nmEpoch {
		al.Node.unreserve(al.Profile)
	}
	al.reserved = false
}

// releaseUnacquired releases every grant the AM never pulled: queue charge
// dropped, node reservation returned, RELEASED logged. Called when the
// attempt dies (the relaunched AM re-requests from scratch) and when the
// app finishes (stragglers granted after the AM's last heartbeat).
func (rm *RM) releaseUnacquired(a *App) {
	for _, al := range a.pendingGrants {
		if al.lost {
			continue
		}
		al.lost = true
		rm.contState(al.Container, "ALLOCATED", "RELEASED")
		rm.safeUnreserve(al)
		if al.queue != nil {
			rm.queues.uncharge(al.queue, al.Profile.MemoryMB)
			al.queue = nil
		}
	}
	a.pendingGrants = nil
}

// requeueAM re-requests an application's AppMaster container (a new
// container of the same attempt; full attempt state machines are out of
// scope). The dead attempt's outstanding asks and unpulled grants are
// dropped first — the relaunched AM negotiates its containers anew.
func (rm *RM) requeueAM(a *App) {
	kept := rm.queue[:0]
	for _, q := range rm.queue {
		if q.app != a {
			kept = append(kept, q)
		}
	}
	rm.queue = kept
	rm.releaseUnacquired(a)
	profile := a.Spec.AMProfile
	if profile == (Profile{}) {
		profile = rm.Cfg.AMProfile
	}
	rm.queue = append(rm.queue, &ask{app: a, profile: profile, remaining: 1, forAM: true, waitBeats: 2 + rm.rng.Intn(10), asked: rm.Eng.Now()})
}

// NodeManagers returns the registered NodeManagers.
func (rm *RM) NodeManagers() []*NodeManager { return rm.nms }

// App returns the RM's record for an application.
func (rm *RM) App(id ids.AppID) *App { return rm.apps[id] }

// appState logs an RMAppImpl state transition in the real daemon's format.
func (rm *RM) appState(a *App, from, to, event string) {
	a.State = to
	rm.logs.app.Infof("%s State change from %s to %s on event = %s", a.ID, from, to, event)
}

// contState logs an RMContainerImpl transition.
func (rm *RM) contState(c ids.ContainerID, from, to string) {
	rm.logs.cont.Infof("%s Container Transitioned from %s to %s", c, from, to)
}

// Submit registers a new application, walking RMAppImpl through
// NEW -> NEW_SAVING -> SUBMITTED -> ACCEPTED and queueing the AppMaster
// container request. The returned ID is available immediately; the state
// transitions happen over the next few (simulated) milliseconds, as the
// real RM's async dispatcher does.
func (rm *RM) Submit(spec AppSpec) ids.AppID {
	id := rm.IDs.NewApp()
	q, err := rm.queues.lookup(spec.Queue)
	if err != nil {
		panic(err) // submitting to an unconfigured queue is a harness bug
	}
	a := &App{ID: id, Spec: spec, State: "NEW", running: make(map[ids.ContainerID]*Allocation), queue: q}
	rm.apps[id] = a

	rpc := int64(rm.rng.Uniform(4, 14))
	rm.Eng.After(rpc, func() {
		// The submission summary line carries the application name and
		// queue — SDchecker mines it to group results by query class.
		rm.logs.app.Infof("Application %s submitted: name=%s type=%s queue=%s",
			a.ID, spec.Name, spec.Type, q.cfg.Name)
		rm.appState(a, "NEW", "NEW_SAVING", "START")
		save := int64(rm.rng.Uniform(6, 28))
		rm.Eng.After(save, func() {
			a.SubmitTime = rm.Eng.Now()
			rm.appState(a, "NEW_SAVING", "SUBMITTED", "APP_NEW_SAVED")
			accept := int64(rm.rng.Uniform(1, 6))
			rm.Eng.After(accept, func() {
				rm.appState(a, "SUBMITTED", "ACCEPTED", "APP_ACCEPTED")
				profile := spec.AMProfile
				if profile == (Profile{}) {
					profile = rm.Cfg.AMProfile
				}
				// AM requests carry no locality preference, but queue
				// activation still costs a few scheduling opportunities.
				rm.queue = append(rm.queue, &ask{app: a, profile: profile, remaining: 1, forAM: true, waitBeats: 2 + rm.rng.Intn(10), asked: rm.Eng.Now()})
			})
		})
	})
	return id
}

// Ask adds a centralized (guaranteed) request for n containers. Grants are
// delivered when the AM pulls on its heartbeat (Pull), reproducing the
// allocate-protocol round trips that dominate the centralized allocation
// delay in Fig 7a.
func (rm *RM) Ask(appID ids.AppID, n int, p Profile) {
	a := rm.apps[appID]
	if a == nil || a.finished {
		return
	}
	q := &ask{app: a, profile: p, remaining: n, asked: rm.Eng.Now()}
	if max := rm.Cfg.LocalityDelayMaxBeats; max > 0 {
		q.waitBeats = 4 + rm.rng.Intn(max)
	}
	rm.queue = append(rm.queue, q)
}

// Pull is the AM heartbeat: it returns (and marks ACQUIRED) every
// container allocated since the last pull.
func (rm *RM) Pull(appID ids.AppID) []*Allocation {
	a := rm.apps[appID]
	if a == nil || len(a.pendingGrants) == 0 {
		return nil
	}
	grants := a.pendingGrants
	a.pendingGrants = nil
	for _, g := range grants {
		rm.contState(g.Container, "ALLOCATED", "ACQUIRED")
		a.running[g.Container] = g
		rm.Tracer.Record(sim.TraceSpan{
			Process: g.Container.App.String(), Thread: g.Container.String(),
			Name: sim.SpanAcquisition, Start: g.AllocTime, End: rm.Eng.Now(),
		})
	}
	return grants
}

// AskOpportunistic requests n containers through the distributed
// scheduler: a single RPC that picks random nodes with no global state and
// returns the grants directly (Mercury-style). deliver runs after the RPC
// round trip with all n allocations, acquired.
func (rm *RM) AskOpportunistic(appID ids.AppID, n int, p Profile, deliver func([]*Allocation)) {
	a := rm.apps[appID]
	if a == nil || a.finished {
		return
	}
	rpc := int64(rm.rng.Exp(rm.Cfg.OppRPCMeanMs))
	if rpc < 3 {
		rpc = 3
	}
	asked := rm.Eng.Now()
	rm.Eng.After(rpc, func() {
		allocs := make([]*Allocation, 0, n)
		for i := 0; i < n; i++ {
			nm := rm.pickOppNode()
			cid := rm.IDs.NewContainer(a.ID)
			rm.logs.sched.Infof("Allocated opportunistic container %s on host %s", cid, nm.Node.Name)
			rm.contState(cid, "NEW", "ALLOCATED")
			rm.contState(cid, "ALLOCATED", "ACQUIRED")
			rm.AllocatedTotal++
			rm.met.allocated(float64(rm.Eng.Now() - asked))
			// Opportunistic grants are acquired in the same RPC: the
			// acquisition span is zero-length by construction.
			rm.Tracer.Record(sim.TraceSpan{
				Process: cid.App.String(), Thread: cid.String(),
				Name: sim.SpanAcquisition, Start: rm.Eng.Now(), End: rm.Eng.Now(),
			})
			al := &Allocation{Container: cid, Node: nm, Profile: p, Type: Opportunistic, AllocTime: rm.Eng.Now(), nmEpoch: nm.epoch}
			a.running[cid] = al
			allocs = append(allocs, al)
		}
		deliver(allocs)
	})
}

// pickOppNode chooses the node for one opportunistic container: a
// uniformly random node by default, or the least-loaded of
// OppPowerOfChoices random samples (Sparrow-style batch sampling).
func (rm *RM) pickOppNode() *NodeManager {
	// sample draws one random node, redrawing a few times to avoid nodes
	// the RM currently believes LOST (under total blackout any node goes).
	sample := func() *NodeManager {
		nm := rm.nms[rm.rng.Intn(len(rm.nms))]
		for tries := 0; nm.expired && tries < 3; tries++ {
			nm = rm.nms[rm.rng.Intn(len(rm.nms))]
		}
		return nm
	}
	k := rm.Cfg.OppPowerOfChoices
	if k < 2 {
		return sample()
	}
	if k > len(rm.nms) {
		k = len(rm.nms)
	}
	var best *NodeManager
	bestLoad := 0
	for i := 0; i < k; i++ {
		nm := sample()
		load := nm.reservedVCores + nm.oppVCores + 16*len(nm.oppQueue)
		if best == nil || load < bestLoad {
			best, bestLoad = nm, load
		}
	}
	return best
}

// ReleaseGrants returns acquired-but-unused containers (the Spark
// over-allocation bug, §V-A): the RM logs a RELEASED transition and the
// NodeManager never sees them.
func (rm *RM) ReleaseGrants(appID ids.AppID, allocs []*Allocation) {
	a := rm.apps[appID]
	for _, al := range allocs {
		rm.contState(al.Container, "ACQUIRED", "RELEASED")
		if a != nil {
			delete(a.running, al.Container)
		}
		rm.safeUnreserve(al)
		if al.queue != nil {
			rm.queues.uncharge(al.queue, al.Profile.MemoryMB)
			al.queue = nil
		}
	}
}

// RegisterAttempt is the AM's registration call; it moves the app to
// RUNNING via the ATTEMPT_REGISTERED event — log message 3 in Table I.
func (rm *RM) RegisterAttempt(appID ids.AppID) {
	a := rm.apps[appID]
	if a == nil {
		return
	}
	rm.appState(a, "ACCEPTED", "RUNNING", "ATTEMPT_REGISTERED")
	rm.Tracer.Record(sim.TraceSpan{
		Process: a.ID.String(), Thread: sim.AppTrack,
		Name: sim.SpanAM, Start: a.SubmitTime, End: rm.Eng.Now(),
	})
}

// FinishApp unregisters the application: RUNNING -> FINAL_SAVING ->
// FINISHED. Frameworks stop their own containers before calling this.
func (rm *RM) FinishApp(appID ids.AppID) {
	a := rm.apps[appID]
	if a == nil || a.finished {
		return
	}
	a.finished = true
	// Drop this app's outstanding asks and release grants it never pulled.
	kept := rm.queue[:0]
	for _, q := range rm.queue {
		if q.app != a {
			kept = append(kept, q)
		}
	}
	rm.queue = kept
	rm.releaseUnacquired(a)
	rm.appState(a, "RUNNING", "FINAL_SAVING", "ATTEMPT_UNREGISTERED")
	rm.Eng.After(int64(rm.rng.Uniform(5, 25)), func() {
		a.FinishTime = rm.Eng.Now()
		rm.appState(a, "FINAL_SAVING", "FINISHED", "APP_UPDATE_SAVED")
	})
}

// SetFailureHandler registers the AM-side callback invoked (after the
// status propagates on the next heartbeat) when one of the application's
// containers fails to launch. Frameworks use it to request replacements.
func (rm *RM) SetFailureHandler(appID ids.AppID, fn func(*Allocation)) {
	if a := rm.apps[appID]; a != nil {
		a.onFailure = fn
	}
}

// containerLaunchFailed is the NM's report of a launch failure. Reports
// for containers the RM already declared lost are dropped: node expiry
// can race a live NM's report (the node was only silent, not dead), and
// the container must not get a second terminal transition.
func (rm *RM) containerLaunchFailed(al *Allocation) {
	if al.lost {
		return
	}
	rm.contState(al.Container, "ACQUIRED", "COMPLETED")
	rm.logs.cont.Infof("%s completed with exit status 1: launch failure", al.Container)
	if al.queue != nil {
		rm.queues.uncharge(al.queue, al.Profile.MemoryMB)
		al.queue = nil
	}
	a := rm.apps[al.Container.App]
	if a == nil {
		return
	}
	delete(a.running, al.Container)
	if al.forAM || al.Container.IsAM() {
		// The RM itself retries the AppMaster.
		rm.requeueAM(a)
		return
	}
	if a.onFailure != nil {
		// Status reaches the AM on its next allocate heartbeat.
		delay := int64(rm.rng.Uniform(100, 400))
		rm.Eng.After(delay, func() {
			if !a.finished && a.onFailure != nil {
				a.onFailure(al)
			}
		})
	}
}

// containerFinished is the NM's report of a completed container. Like
// containerLaunchFailed, reports for already-lost containers are dropped
// so an expiry/heartbeat race cannot produce a duplicate terminal.
func (rm *RM) containerFinished(al *Allocation) {
	if al.lost {
		return
	}
	rm.contState(al.Container, "RUNNING", "COMPLETED")
	if al.queue != nil {
		rm.queues.uncharge(al.queue, al.Profile.MemoryMB)
		al.queue = nil
	}
	if a := rm.apps[al.Container.App]; a != nil {
		delete(a.running, al.Container)
	}
}

// nodeUpdate is the NM heartbeat: the Capacity Scheduler assigns queued
// requests onto the reporting node while it has headroom. Each assignment
// costs a serialized decision (RMDecisionMicros), which is the cluster's
// allocation-throughput ceiling measured in Table II.
func (rm *RM) nodeUpdate(nm *NodeManager) {
	rm.met.rmBeat()
	nm.lastBeat = rm.Eng.Now()
	if nm.expired {
		// A restarted NM re-registers on its first heartbeat back.
		nm.expired = false
		rm.logs.node.Infof("%s:8041 Node Transitioned from NEW to RUNNING", nm.Node.Name)
	}
	if len(rm.queue) == 0 {
		return
	}
	orderQueue(rm.Cfg.Ordering, rm.queue)
	if len(rm.queues.order) > 1 {
		// Inter-queue ordering: serve the most underserved queue first.
		rank := map[string]int{}
		for i, name := range rm.queues.headroomOrder() {
			rank[name] = i
		}
		sort.SliceStable(rm.queue, func(i, j int) bool {
			return rank[rm.queue[i].app.queue.cfg.Name] < rank[rm.queue[j].app.queue.cfg.Name]
		})
	}
	nowUS := int64(rm.Eng.Now()) * 1000
	if rm.decisionClockUS < nowUS {
		rm.decisionClockUS = nowUS
	}
	assigned := 0
	limit := rm.Cfg.MaxAssignPerHeartbeat
	for _, q := range rm.queue {
		if limit > 0 && assigned >= limit {
			break
		}
		if q.waitBeats > 0 {
			q.waitBeats-- // delay scheduling: skip this opportunity
			continue
		}
		for q.remaining > 0 && (limit <= 0 || assigned < limit) &&
			rm.queues.canAllocate(q.app.queue, q.profile.MemoryMB) && nm.reserve(q.profile) {
			q.remaining--
			assigned++
			rm.queues.charge(q.app.queue, q.profile.MemoryMB)
			cid := rm.IDs.NewContainer(q.app.ID)
			al := &Allocation{Container: cid, Node: nm, Profile: q.profile, Type: Guaranteed, queue: q.app.queue, nmEpoch: nm.epoch, reserved: true}
			rm.inflight = append(rm.inflight, al)
			rm.decisionClockUS += rm.Cfg.RMDecisionMicros
			at := sim.Time((rm.decisionClockUS + 999) / 1000)
			rm.met.allocated(float64(at - q.asked))
			app, forAM := q.app, q.forAM
			rm.Eng.At(at, func() { rm.finalizeAllocation(app, al, forAM) })
		}
		if nm.FreeMemMB() < 512 {
			break
		}
	}
	// Compact satisfied asks.
	kept := rm.queue[:0]
	for _, q := range rm.queue {
		if q.remaining > 0 {
			kept = append(kept, q)
		}
	}
	tail := rm.queue[len(kept):]
	for i := range tail {
		tail[i] = nil
	}
	rm.queue = kept
}

// finalizeAllocation logs the allocation at the serialized decision
// instant and routes the grant: AM containers are launched by the RM's
// AMLauncher; executor containers wait for the AM's next Pull.
// dropInflight removes an allocation from the in-flight set once it has
// been routed somewhere observable (an app's running/pendingGrants sets)
// or its charge has been returned.
func (rm *RM) dropInflight(al *Allocation) {
	still := rm.inflight[:0]
	for _, x := range rm.inflight {
		if x != al {
			still = append(still, x)
		}
	}
	rm.inflight = still
}

func (rm *RM) finalizeAllocation(a *App, al *Allocation, forAM bool) {
	al.AllocTime = rm.Eng.Now()
	al.forAM = forAM
	rm.AllocatedTotal++
	rm.logs.sched.Infof("Assigned container %s of capacity <memory:%d, vCores:%d> on host %s",
		al.Container, al.Profile.MemoryMB, al.Profile.VCores, al.Node.Node.Name)
	rm.contState(al.Container, "NEW", "ALLOCATED")
	if a.finished {
		// App finished while the decision was in flight; release quietly.
		rm.dropInflight(al)
		rm.contState(al.Container, "ALLOCATED", "RELEASED")
		rm.safeUnreserve(al)
		if al.queue != nil {
			rm.queues.uncharge(al.queue, al.Profile.MemoryMB)
			al.queue = nil
		}
		return
	}
	if al.Node.down {
		// The node died between reservation and the serialized decision:
		// kill the container before anything launches. No unreserve — the
		// NM's counters reset when (if) it restarts.
		rm.dropInflight(al)
		al.lost = true
		rm.contState(al.Container, "ALLOCATED", "KILLED")
		rm.logs.cont.Infof("%s completed with exit status -100. Diagnostics: Container released on a *lost* node", al.Container)
		if al.queue != nil {
			rm.queues.uncharge(al.queue, al.Profile.MemoryMB)
			al.queue = nil
		}
		if forAM {
			rm.requeueAM(a)
		} else if a.onFailure != nil {
			delay := int64(rm.rng.Uniform(100, 400))
			rm.Eng.After(delay, func() {
				if !a.finished && a.onFailure != nil {
					a.onFailure(al)
				}
			})
		}
		return
	}
	if forAM {
		// AMLauncher: acquire and start the AM container directly.
		d := int64(rm.rng.Uniform(25, 80))
		rm.Eng.After(d, func() {
			rm.dropInflight(al)
			rm.contState(al.Container, "ALLOCATED", "ACQUIRED")
			a.running[al.Container] = al
			rm.Tracer.Record(sim.TraceSpan{
				Process: al.Container.App.String(), Thread: al.Container.String(),
				Name: sim.SpanAcquisition, Start: al.AllocTime, End: rm.Eng.Now(),
			})
			al.Node.StartContainer(al, a.Spec.AMLaunch)
		})
		return
	}
	rm.dropInflight(al)
	a.pendingGrants = append(a.pendingGrants, al)
}

// Queued reports the number of pending centralized container requests.
func (rm *RM) Queued() int {
	var n int
	for _, q := range rm.queue {
		n += q.remaining
	}
	return n
}

// Nodes returns the underlying cluster nodes (convenience for tests).
func (rm *RM) Nodes() []*cluster.Node { return rm.Cl.Nodes }

// DumpState formats a one-line summary, used in harness progress output.
func (rm *RM) DumpState() string {
	running := 0
	for _, a := range rm.apps {
		if !a.finished {
			running++
		}
	}
	return fmt.Sprintf("apps=%d live=%d queued=%d allocated=%d",
		len(rm.apps), running, rm.Queued(), rm.AllocatedTotal)
}
