package yarn

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/docker"
	"repro/internal/hdfs"
	"repro/internal/ids"
	"repro/internal/log4j"
	"repro/internal/rng"
	"repro/internal/share"
	"repro/internal/sim"
)

// NodeManager hosts containers on one worker node. It owns the
// ContainerImpl state machine whose transitions (LOCALIZING, SCHEDULED,
// RUNNING) SDchecker mines as log messages 6-8, the localization service
// with its per-node public-resource cache, and the queue for opportunistic
// containers (Hadoop 3 distributed scheduling).
type NodeManager struct {
	Eng  *sim.Engine
	Node *cluster.Node

	rm  *RM
	fs  *hdfs.FS
	cfg Config
	rng *rng.Source

	logCont   *log4j.Logger
	logLaunch *log4j.Logger

	totalVCores int
	totalMemMB  int
	// Guaranteed reservations (made by the RM at allocation time).
	reservedVCores int
	reservedMemMB  int
	// Capacity consumed by running opportunistic containers.
	oppVCores int
	oppMemMB  int

	cache    *localCache // localized public resources (LRU)
	oppQueue []*containerRun
	running  map[ids.ContainerID]*containerRun
	// localizing tracks containers between StartContainer and launch (or
	// queueing), so a crash can account for them too.
	localizing map[ids.ContainerID]*containerRun
	completed  []*Allocation // reported to the RM on the next heartbeat

	// localDisk is where localization IO lands: the node's HDFS disks by
	// default, or a dedicated storage class (Config.DedicatedLocalDiskMBps).
	localDisk *share.Resource

	hb *sim.Ticker

	// Crash/restart state. down blackholes the NM; epoch invalidates
	// in-flight localization/launch callback chains from before a restart
	// (each chain step rechecks run.epoch against nm.epoch). lostAtCrash
	// holds the containers killed by the crash, reported to the RM when the
	// NM resyncs on restart (the RM's expiry timer covers nodes that never
	// come back).
	down        bool
	epoch       int
	lostAtCrash []*Allocation

	// RM-side liveness view (owned by the RM, kept here to stay
	// deterministic — no map of NM pointers to iterate).
	lastBeat sim.Time
	expired  bool
}

// containerRun tracks one container through localization, queueing,
// launch and execution.
type containerRun struct {
	alloc *Allocation
	spec  LaunchSpec
	env   *ProcessEnv
	// localizingAt / scheduledAt anchor the ground-truth localization and
	// launching spans.
	localizingAt sim.Time
	scheduledAt  sim.Time
	// epoch is the NM incarnation that started this container; a restart
	// bumps the NM's epoch, orphaning every older chain.
	epoch int
}

// stale reports whether this container belongs to a dead NM incarnation.
// The epoch half of the guard can be chaos-disabled so the model checker
// can demonstrate what breaks without it (see chaos.go).
func (run *containerRun) stale(nm *NodeManager) bool {
	if nm.down {
		return true
	}
	return !chaos.DisableNMEpochGuard && run.epoch != nm.epoch
}

// NewNodeManager creates the NM for node and registers it with the RM.
// Its heartbeat is phase-staggered by the node index so that 25 NMs do
// not beat in lockstep.
func NewNodeManager(rm *RM, node *cluster.Node, fs *hdfs.FS, sink *log4j.Sink) *NodeManager {
	nm := &NodeManager{
		Eng:         rm.Eng,
		Node:        node,
		rm:          rm,
		fs:          fs,
		cfg:         rm.Cfg,
		rng:         node.Rng.Fork(0x17a),
		logCont:     sink.Logger(NMLogFile(node), ClassContainerImpl),
		logLaunch:   sink.Logger(NMLogFile(node), ClassContainerLaunch),
		totalVCores: node.VCores,
		totalMemMB:  node.MemoryMB,
		cache:       newLocalCache(rm.Cfg.LocalCacheCapacityMB),
		running:     make(map[ids.ContainerID]*containerRun),
		localizing:  make(map[ids.ContainerID]*containerRun),
	}
	nm.localDisk = node.Disk
	if rm.Cfg.DedicatedLocalDiskMBps > 0 {
		nm.localDisk = share.NewResource(rm.Eng, node.Name+"/local-ssd", rm.Cfg.DedicatedLocalDiskMBps)
	}
	period := rm.Cfg.NMHeartbeatMs
	offset := (period*int64(node.Index))/int64(len(rm.Cl.Nodes)) + nm.rng.Int63n(20)
	nm.hb = sim.NewTicker(rm.Eng, period, offset, nm.heartbeat)
	rm.registerNM(nm)
	return nm
}

// PrewarmCache marks public resources as already localized on this node,
// modelling a cluster that has run the framework before (the paper's
// steady-state measurements).
func (nm *NodeManager) PrewarmCache(paths ...string) {
	for _, p := range paths {
		size := 0.0
		if f := nm.fs.Lookup(p); f != nil {
			size = f.SizeMB
		}
		nm.cache.Put(p, size)
	}
}

// CacheStats exposes the localization cache counters (hits, misses,
// evictions, used MB) for the caching-service ablation.
func (nm *NodeManager) CacheStats() (hits, misses, evictions int, usedMB float64) {
	return nm.cache.Stats()
}

// RunningContainers returns the number of containers currently executing.
func (nm *NodeManager) RunningContainers() int { return len(nm.running) }

// QueuedOpportunistic returns the opportunistic queue depth (Fig 7b).
func (nm *NodeManager) QueuedOpportunistic() int { return len(nm.oppQueue) }

// reserve claims guaranteed capacity; called by the RM at allocation.
// With the default memory-only calculator (see Config.UseVCoresAccounting)
// vcores may oversubscribe; the processor-sharing CPU model absorbs it.
func (nm *NodeManager) reserve(p Profile) bool {
	if nm.reservedMemMB+p.MemoryMB > nm.totalMemMB {
		return false
	}
	if nm.cfg.UseVCoresAccounting && nm.reservedVCores+p.VCores > nm.totalVCores {
		return false
	}
	nm.reservedVCores += p.VCores
	nm.reservedMemMB += p.MemoryMB
	return true
}

func (nm *NodeManager) unreserve(p Profile) {
	nm.reservedVCores -= p.VCores
	nm.reservedMemMB -= p.MemoryMB
}

// FreeMemMB returns unreserved guaranteed memory.
func (nm *NodeManager) FreeMemMB() int { return nm.totalMemMB - nm.reservedMemMB }

// oppFits reports whether an opportunistic container can start now.
// Unlike guaranteed reservation, opportunistic admission is
// utilization-based (the NM queues the container when the node is busy),
// so vcores always count here — this queueing is what Fig 7b measures.
func (nm *NodeManager) oppFits(p Profile) bool {
	if nm.reservedMemMB+nm.oppMemMB+p.MemoryMB > nm.totalMemMB {
		return false
	}
	return nm.reservedVCores+nm.oppVCores+p.VCores <= nm.totalVCores
}

// heartbeat reports completed containers and receives new assignments.
func (nm *NodeManager) heartbeat() {
	if nm.down {
		return
	}
	nm.rm.met.nmBeat()
	if len(nm.completed) > 0 {
		done := nm.completed
		nm.completed = nil
		for _, al := range done {
			nm.rm.containerFinished(al)
		}
	}
	nm.rm.nodeUpdate(nm)
}

// StartContainer begins the container lifecycle:
// NEW -> LOCALIZING -> SCHEDULED -> (queue if opportunistic and the node
// is busy) -> launch -> RUNNING (logged when the instance emits its first
// log line, per paper §III-B) -> EXITED_WITH_SUCCESS.
func (nm *NodeManager) StartContainer(al *Allocation, spec LaunchSpec) {
	if nm.down {
		// Node died while the start was in flight. Record the container so
		// a restart's resync reports it lost; if the node never comes back,
		// the RM's expiry timer finds it through the app's running set.
		nm.lostAtCrash = append(nm.lostAtCrash, al)
		return
	}
	if al.Type == Guaranteed && al.nmEpoch != nm.epoch {
		// The reservation was made against an incarnation that crashed
		// before the launch arrived; the restart zeroed those counters.
		// Re-reserve against the live incarnation — otherwise the exit
		// path would return memory this incarnation never set aside,
		// driving its counters negative. If the fresh node can't take the
		// container (capacity re-promised since the restart), it fails
		// like any launch failure and the AM re-requests.
		if !nm.reserve(al.Profile) {
			nm.rm.containerLaunchFailed(al)
			return
		}
		al.nmEpoch = nm.epoch
		al.reserved = true
	}
	run := &containerRun{alloc: al, spec: spec, localizingAt: nm.Eng.Now(), epoch: nm.epoch}
	nm.localizing[al.Container] = run
	nm.logCont.Infof("Container %s transitioned from NEW to LOCALIZING", al.Container)
	nm.rm.met.transition("LOCALIZING")
	nm.Node.Compute(nm.cfg.LocalizerSetupVcoreSec, 1, func(sim.Time) {
		nm.localize(run, 0)
	})
}

// localize fetches resources sequentially, then marks SCHEDULED.
func (nm *NodeManager) localize(run *containerRun, idx int) {
	if run.stale(nm) {
		return
	}
	if idx >= len(run.spec.Resources) {
		run.scheduledAt = nm.Eng.Now()
		nm.logCont.Infof("Container %s transitioned from LOCALIZING to SCHEDULED", run.alloc.Container)
		nm.rm.met.transition("SCHEDULED")
		nm.rm.Tracer.Record(sim.TraceSpan{
			Process: run.alloc.Container.App.String(), Thread: run.alloc.Container.String(),
			Name: sim.SpanLocalization, Start: run.localizingAt, End: run.scheduledAt,
		})
		nm.afterScheduled(run)
		return
	}
	res := run.spec.Resources[idx]
	next := func(sim.Time) { nm.localize(run, idx+1) }
	if res.SizeMB <= 0 {
		nm.Eng.After(1, func() { next(nm.Eng.Now()) })
		return
	}
	if res.Public && nm.cache.Contains(res.Path) {
		// Cache hit: verify and copy. Only part of the bytes touch the
		// disk (the rest is page-cache hot); the copy/CRC costs CPU.
		diskMB := res.SizeMB * nm.cfg.CacheDiskFraction
		cluster.StartTransfer(nm.Eng, []cluster.Leg{
			{Res: nm.localDisk, Work: diskMB, Demand: nm.cfg.LocalCacheReadDemandMBps},
		}, func(sim.Time) {
			nm.Node.Compute(res.SizeMB*nm.cfg.LocalizeCPUVcoreSecPerMB, 1, next)
		})
		return
	}
	// Cold fetch: download from HDFS and write the local copy.
	f := nm.fs.Lookup(res.Path)
	if f == nil {
		f = nm.fs.Create(res.Path, res.SizeMB, nil)
	}
	nm.fs.ReadData(nm.Node, f, res.SizeMB, func(sim.Time) {
		cluster.StartTransfer(nm.Eng, []cluster.Leg{
			{Res: nm.localDisk, Work: res.SizeMB, Demand: nm.cfg.ColdFetchDemandMBps},
		}, func(sim.Time) {
			if res.Public {
				nm.cache.Put(res.Path, res.SizeMB)
			}
			next(nm.Eng.Now())
		})
	})
}

// afterScheduled either launches immediately (guaranteed, or an
// opportunistic container on an idle-enough node) or queues the container
// — the queueing delay the paper measures for the distributed scheduler.
func (nm *NodeManager) afterScheduled(run *containerRun) {
	if run.alloc.Type == Opportunistic {
		if !nm.oppFits(run.alloc.Profile) {
			nm.logLaunch.Infof("Opportunistic container %s queued at %s", run.alloc.Container, nm.Node.Name)
			delete(nm.localizing, run.alloc.Container)
			nm.oppQueue = append(nm.oppQueue, run)
			return
		}
		nm.oppVCores += run.alloc.Profile.VCores
		nm.oppMemMB += run.alloc.Profile.MemoryMB
	} else if nm.cfg.PreemptOpportunistic {
		nm.preemptForGuaranteed(run.alloc.Profile)
	}
	nm.invokeLaunch(run)
}

// preemptForGuaranteed kills running opportunistic containers, newest
// first, until the guaranteed profile fits within the node's vcores.
func (nm *NodeManager) preemptForGuaranteed(p Profile) {
	for nm.reservedVCores+nm.oppVCores > nm.totalVCores {
		victim := nm.newestOpportunistic()
		if victim == nil {
			return
		}
		cid := victim.alloc.Container
		nm.logCont.Infof("Container %s transitioned from RUNNING to KILLING", cid)
		nm.rm.met.transition("KILLING")
		nm.logLaunch.Infof("Preempting opportunistic container %s for a guaranteed container", cid)
		delete(nm.running, cid)
		nm.oppVCores -= victim.alloc.Profile.VCores
		nm.oppMemMB -= victim.alloc.Profile.MemoryMB
		if victim.env != nil {
			victim.env.exited = true // the process is gone; Exit is a no-op
		}
		nm.rm.containerLaunchFailed(victim.alloc)
	}
	_ = p
}

// newestOpportunistic returns the most recently allocated running
// opportunistic container, or nil.
func (nm *NodeManager) newestOpportunistic() *containerRun {
	var best *containerRun
	for _, run := range nm.running {
		if run.alloc.Type != Opportunistic {
			continue
		}
		if best == nil || run.alloc.Container.Num > best.alloc.Container.Num ||
			(run.alloc.Container.Num == best.alloc.Container.Num && run.alloc.Container.App.Seq > best.alloc.Container.App.Seq) {
			best = run
		}
	}
	return best
}

// invokeLaunch writes the launch script and starts the process through
// the configured container runtime.
func (nm *NodeManager) invokeLaunch(run *containerRun) {
	if run.stale(nm) {
		return
	}
	cid := run.alloc.Container
	nm.logLaunch.Infof("Invoking launch script for container %s", cid)
	if p := nm.cfg.LaunchFailureProb; p > 0 && nm.rng.Float64() < p {
		// Injected launch failure: the script exits non-zero before the
		// process ever logs. The AM finds out through the RM and must
		// re-request the container.
		fail := int64(nm.rng.Uniform(30, 120))
		nm.Eng.After(fail, func() { nm.containerFailed(run) })
		return
	}
	setup := int64(nm.rng.Uniform(8, 28)) // write script, set env, mkdirs
	nm.Eng.After(setup, func() {
		docker.Apply(nm.Eng, nm.Node, nm.rng, run.spec.Runtime, nm.cfg.DockerOverhead, func() {
			if run.stale(nm) {
				return
			}
			env := &ProcessEnv{
				Eng:      nm.Eng,
				Node:     nm.Node,
				NM:       nm,
				Alloc:    run.alloc,
				Rng:      nm.rng.Fork(uint64(cid.Num)<<16 ^ uint64(cid.App.Seq)),
				JVMReuse: nm.cfg.JVMReuse,
				run:      run,
			}
			env.sink = nm.rm.Sink
			run.env = env
			delete(nm.localizing, cid)
			nm.running[cid] = run
			run.spec.Process.Launched(env)
		})
	})
}

// markFirstLog is called by ProcessEnv when the instance writes its first
// log line; the container is then RUNNING.
func (nm *NodeManager) markFirstLog(run *containerRun) {
	nm.logCont.Infof("Container %s transitioned from SCHEDULED to RUNNING", run.alloc.Container)
	nm.rm.met.transition("RUNNING")
	nm.rm.Tracer.Record(sim.TraceSpan{
		Process: run.alloc.Container.App.String(), Thread: run.alloc.Container.String(),
		Name: sim.SpanLaunching, Start: run.scheduledAt, End: nm.Eng.Now(),
	})
}

// containerFailed handles a launch failure: EXITED_WITH_FAILURE is
// logged, capacity freed, and the RM informed so the AM can recover.
func (nm *NodeManager) containerFailed(run *containerRun) {
	if run.stale(nm) {
		return
	}
	cid := run.alloc.Container
	delete(nm.localizing, cid)
	nm.logCont.Infof("Container %s transitioned from SCHEDULED to EXITED_WITH_FAILURE", cid)
	nm.rm.met.transition("EXITED_WITH_FAILURE")
	nm.logLaunch.Infof("Container %s exit code 1: launch script failed", cid)
	if run.alloc.Type == Opportunistic {
		nm.oppVCores -= run.alloc.Profile.VCores
		nm.oppMemMB -= run.alloc.Profile.MemoryMB
	} else {
		nm.unreserve(run.alloc.Profile)
		run.alloc.reserved = false
	}
	nm.rm.containerLaunchFailed(run.alloc)
	nm.drainOppQueue()
}

// containerExited releases capacity, reports to the RM on the next
// heartbeat, and starts queued opportunistic work that now fits.
func (nm *NodeManager) containerExited(run *containerRun) {
	if run.stale(nm) {
		return
	}
	cid := run.alloc.Container
	delete(nm.running, cid)
	nm.logCont.Infof("Container %s transitioned from RUNNING to EXITED_WITH_SUCCESS", cid)
	nm.rm.met.transition("EXITED_WITH_SUCCESS")
	if run.alloc.Type == Opportunistic {
		nm.oppVCores -= run.alloc.Profile.VCores
		nm.oppMemMB -= run.alloc.Profile.MemoryMB
	} else {
		nm.unreserve(run.alloc.Profile)
		run.alloc.reserved = false
	}
	nm.completed = append(nm.completed, run.alloc)
	nm.drainOppQueue()
}

func (nm *NodeManager) drainOppQueue() {
	for len(nm.oppQueue) > 0 && nm.oppFits(nm.oppQueue[0].alloc.Profile) {
		run := nm.oppQueue[0]
		nm.oppQueue = nm.oppQueue[1:]
		nm.oppVCores += run.alloc.Profile.VCores
		nm.oppMemMB += run.alloc.Profile.MemoryMB
		nm.invokeLaunch(run)
	}
}

// Down reports whether the NM is currently crashed.
func (nm *NodeManager) Down() bool { return nm.down }

// Crash kills the node: heartbeats stop, every hosted process dies
// mid-flight, and in-flight localization/launch chains are orphaned. The
// RM hears nothing — it discovers the crash through heartbeat silence
// (checkLiveness) or, if the node restarts first, through resync. Completed
// containers whose reports were on the wire are flushed first so their
// queue charges do not leak. Idempotent while down.
func (nm *NodeManager) Crash() {
	if nm.down {
		return
	}
	nm.down = true
	if nm.hb != nil { // nil while partitioned
		nm.hb.Stop()
		nm.hb = nil
	}
	nm.Node.Fail()
	for _, al := range nm.completed {
		nm.rm.containerFinished(al)
	}
	nm.completed = nil
	victims := make([]*containerRun, 0, len(nm.running)+len(nm.localizing)+len(nm.oppQueue))
	for _, run := range nm.running {
		victims = append(victims, run)
	}
	for _, run := range nm.localizing {
		victims = append(victims, run)
	}
	sort.Slice(victims, func(i, j int) bool {
		ci, cj := victims[i].alloc.Container, victims[j].alloc.Container
		if ci.App.Seq != cj.App.Seq {
			return ci.App.Seq < cj.App.Seq
		}
		return ci.Num < cj.Num
	})
	victims = append(victims, nm.oppQueue...)
	nm.running = make(map[ids.ContainerID]*containerRun)
	nm.localizing = make(map[ids.ContainerID]*containerRun)
	nm.oppQueue = nil
	// Mark every process dead before notifying any of them, so that a
	// dying AM's cleanup can't make a doomed neighbor log from the grave.
	for _, run := range victims {
		if run.env != nil {
			run.env.exited = true // the process is gone; Exit is a no-op
		}
	}
	for _, run := range victims {
		if k, ok := run.spec.Process.(Killable); ok {
			k.Killed()
		}
		nm.lostAtCrash = append(nm.lostAtCrash, run.alloc)
	}
}

// Restart brings a crashed node back: a fresh NM incarnation with empty
// capacity counters and container state (the localization cache survives
// on disk, as it does in real YARN). It resyncs with the RM by reporting
// the containers the crash killed, then resumes heartbeating — the first
// beat re-registers the node if the RM had expired it. Idempotent while up.
func (nm *NodeManager) Restart() {
	if !nm.down {
		return
	}
	nm.down = false
	nm.epoch++
	nm.Node.Recover()
	nm.reservedVCores, nm.reservedMemMB = 0, 0
	nm.oppVCores, nm.oppMemMB = 0, 0
	nm.running = make(map[ids.ContainerID]*containerRun)
	nm.localizing = make(map[ids.ContainerID]*containerRun)
	nm.oppQueue = nil
	nm.completed = nil
	nm.rm.Sink.Logger(NMLogFile(nm.Node), ClassNodeStatusUpd).
		Infof("Registering with RM using containers from previous attempt")
	lost := nm.lostAtCrash
	nm.lostAtCrash = nil
	for _, al := range lost {
		nm.rm.containerLost(al)
	}
	period := nm.cfg.NMHeartbeatMs
	offset := 50 + nm.rng.Int63n(int64(period))
	nm.hb = sim.NewTicker(nm.Eng, period, offset, nm.heartbeat)
}

// Partition cuts the NM off from the RM without killing anything on the
// node: heartbeats stop but every hosted container keeps running. The RM
// cannot tell a partition from a crash — silence is silence — so it will
// expire the node and declare its containers lost while they are in fact
// alive, the exact ambiguity behind the RM's idempotent handling of
// late completion reports. Idempotent while partitioned or down.
func (nm *NodeManager) Partition() {
	if nm.down || nm.hb == nil {
		return
	}
	nm.hb.Stop()
	nm.hb = nil
}

// Heal resumes heartbeating after a Partition; the first beat
// re-registers the node if the RM expired it meanwhile. Idempotent.
func (nm *NodeManager) Heal() {
	if nm.down || nm.hb != nil {
		return
	}
	period := nm.cfg.NMHeartbeatMs
	offset := 50 + nm.rng.Int63n(int64(period))
	nm.hb = sim.NewTicker(nm.Eng, period, offset, nm.heartbeat)
}

// ProcessEnv is the container-side world handed to a Process.
type ProcessEnv struct {
	Eng      *sim.Engine
	Node     *cluster.Node
	NM       *NodeManager
	Alloc    *Allocation
	Rng      *rng.Source
	JVMReuse bool

	sink        *log4j.Sink
	run         *containerRun
	firstLogged bool
	exited      bool
}

// Logger returns a logger writing to this container's stderr file under
// the given class name. The first line written through any of the
// container's loggers is the FIRST_LOG event.
func (e *ProcessEnv) Logger(class string) *log4j.Logger {
	return e.sink.Logger(StderrPath(e.Alloc.Container), class)
}

// Tracer returns the cluster's ground-truth span recorder (nil-safe to
// record on when tracing is off), so framework processes can record their
// driver/executor/allocation spans next to YARN's container spans.
func (e *ProcessEnv) Tracer() *sim.Recorder { return e.NM.rm.Tracer }

// MarkFirstLog must be called exactly once, at the instant the process
// emits its first log line; it drives the SCHEDULED -> RUNNING transition.
func (e *ProcessEnv) MarkFirstLog() {
	if e.firstLogged || e.exited {
		return
	}
	e.firstLogged = true
	e.NM.markFirstLog(e.run)
}

// Exited reports whether the container is already gone (normal exit or
// node crash); processes check it before post-mortem cleanup.
func (e *ProcessEnv) Exited() bool { return e.exited }

// Exit terminates the container successfully.
func (e *ProcessEnv) Exit() {
	if e.exited {
		return
	}
	e.exited = true
	e.NM.containerExited(e.run)
}
