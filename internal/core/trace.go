package core

import (
	"sort"

	"repro/internal/ids"
)

// ContainerTrace is the time-ordered scheduling history of one container,
// assembled from events that arrived in RM, NM, and container logs. All
// timestamps are epoch milliseconds; 0 means the event was not observed.
type ContainerTrace struct {
	ID       ids.ContainerID
	Instance InstanceType
	// Node is the host the container was bound to, mined from the
	// scheduler's ASSIGNED line or the NodeManager log the container's
	// NM-side transitions appeared in ("" when neither was collected).
	Node string

	Allocated     int64 // RMContainerImpl -> ALLOCATED  (msg 4)
	Acquired      int64 // RMContainerImpl -> ACQUIRED   (msg 5)
	Localizing    int64 // ContainerImpl   -> LOCALIZING (msg 6)
	Scheduled     int64 // ContainerImpl   -> SCHEDULED  (msg 7)
	LaunchInvoked int64 // launch script invocation (extension)
	Running       int64 // ContainerImpl   -> RUNNING    (msg 8)
	FirstLog      int64 // first stderr line (msgs 9/13)
	FirstTask     int64 // first task assignment (msg 14)
	Exited        int64
	Released      int64
	OppQueuedAt   int64 // opportunistic queueing observed
	Lost          int64 // RMContainerImpl -> KILLED (node lost)

	// idStr caches ID.String(), rendered once when the correlator first
	// sees the container rather than on every decomposition.
	idStr string
}

// idString returns the container's canonical ID string.
func (c *ContainerTrace) idString() string {
	if c.idStr != "" {
		return c.idStr
	}
	return c.ID.String()
}

// IsAM reports whether this container hosted the ApplicationMaster.
// Container number 1 is YARN's convention, but when an AM container fails
// and the RM retries in a fresh container, the retry carries a higher
// number — so the instance classification mined from the container's own
// log takes precedence.
func (c *ContainerTrace) IsAM() bool {
	switch c.Instance {
	case InstSparkDriver, InstMRMaster:
		return true
	case InstSparkExecutor, InstMRMap, InstMRReduce:
		return false
	}
	return c.ID.IsAM()
}

// AppTrace is one application's assembled scheduling history.
type AppTrace struct {
	ID ids.AppID
	// Name, AppType and Queue come from the RM's submission summary line
	// (empty when that line was not collected).
	Name, AppType, Queue string

	Submitted      int64 // RMAppImpl -> SUBMITTED (msg 1)
	Accepted       int64 // RMAppImpl -> ACCEPTED  (msg 2)
	Registered     int64 // ATTEMPT_REGISTERED     (msg 3)
	Finished       int64 // RMAppImpl -> FINISHED  (extension)
	DriverRegister int64 // Spark driver REGISTER  (msg 10)
	StartAllo      int64 // msg 11
	EndAllo        int64 // msg 12

	// Containers is ordered by container number; containers sharing a
	// number (AM retries across attempts) keep first-observation order.
	Containers []*ContainerTrace
	Events     []Event // every event of the app, time-ordered

	Decomp *Decomposition // filled by Decompose
}

// Container returns the trace for cid, or nil.
func (a *AppTrace) Container(cid ids.ContainerID) *ContainerTrace {
	if i, ok := a.containerIndex(cid); ok {
		return a.Containers[i]
	}
	return nil
}

// containerIndex binary-searches the Num-ordered Containers for cid. When
// cid is absent it returns the index a new container must be inserted at
// to keep the order: after every container with the same or a lower
// number, which is where a stable sort by number puts the latest-seen one.
func (a *AppTrace) containerIndex(cid ids.ContainerID) (int, bool) {
	lo, hi := a.numRange(cid.Num)
	for i := lo; i < hi; i++ {
		if a.Containers[i].ID == cid {
			return i, true
		}
	}
	return hi, false
}

// numRange returns the index range [lo, hi) of the containers numbered num.
func (a *AppTrace) numRange(num int) (lo, hi int) {
	cs := a.Containers
	lo = sort.Search(len(cs), func(i int) bool { return cs[i].ID.Num >= num })
	for hi = lo; hi < len(cs) && cs[hi].ID.Num == num; hi++ {
	}
	return lo, hi
}

// AMContainer returns the ApplicationMaster container trace, or nil.
// When an AM retry produced several AM-classified containers, the one
// that actually came up (has a first log) wins.
func (a *AppTrace) AMContainer() *ContainerTrace {
	var fallback *ContainerTrace
	for _, c := range a.Containers {
		if !c.IsAM() {
			continue
		}
		if c.FirstLog != 0 {
			return c
		}
		if fallback == nil {
			fallback = c
		}
	}
	return fallback
}

// Executors returns the Spark executor container traces.
func (a *AppTrace) Executors() []*ContainerTrace {
	var out []*ContainerTrace
	for _, c := range a.Containers {
		if c.Instance == InstSparkExecutor {
			out = append(out, c)
		}
	}
	return out
}

// WorkerContainers returns every non-AM container (executors, MR tasks,
// and containers that never launched anything).
func (a *AppTrace) WorkerContainers() []*ContainerTrace {
	var out []*ContainerTrace
	for _, c := range a.Containers {
		if !c.IsAM() {
			out = append(out, c)
		}
	}
	return out
}

// Correlate groups mined events by application and container ID, orders
// them by timestamp, and returns one AppTrace per application sorted by
// submission sequence (§III-C: "binds each log event with its
// corresponding global ID ... aggregates and groups state transformations
// based on the IDs").
func Correlate(events []Event) []*AppTrace {
	// Events can arrive in any order across files; sort first so "first
	// occurrence wins" rules are well-defined.
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TimeMS < sorted[j].TimeMS })

	builders := make(map[ids.AppID]*traceBuilder)
	for _, e := range sorted {
		b := builders[e.App]
		if b == nil {
			b = newTraceBuilder(e.App)
			builders[e.App] = b
		}
		b.add(e)
	}
	out := make([]*AppTrace, 0, len(builders))
	for _, b := range builders {
		b.a.Events = b.events
		out = append(out, b.a)
	}
	sortTracesBySeq(out)
	return out
}

// traceBuilder assembles one application's trace event by event, in time
// order. It is the single correlation path: Correlate feeds it a
// pre-sorted event list, and a Stream keeps one per live application,
// absorbing each event in O(1) when it arrives in order.
//
// The live path publishes an immutable snapshot after every absorb
// (publish). Published traces are never mutated afterwards — callers,
// completion hooks and concurrent ShardedStream readers hold on to them —
// so the builder copies on write: the first change after a publish copies
// the header and its Containers slice, and a container is copied before
// its first change while the published snapshot still holds it.
// Untouched containers stay shared.
type traceBuilder struct {
	// a is the working trace add mutates. Right after a publish it is the
	// published snapshot itself, and the next change copies it first.
	a *AppTrace
	// pub is the last published snapshot; nil on the offline path, which
	// never publishes and so mutates a freely.
	pub *AppTrace
	// events is the append-only, time-ordered backing store of a.Events.
	// Snapshots share it as a cap-limited prefix, so appends past their
	// length never show through; an out-of-order insert copies it.
	events []Event
	// stale is set when an out-of-order event was inserted: a no longer
	// reflects events and publish rebuilds it.
	stale bool
}

func newTraceBuilder(id ids.AppID) *traceBuilder {
	return &traceBuilder{a: &AppTrace{ID: id}}
}

// add appends one event that does not sort before any event added so far
// and applies it to the working trace.
func (b *traceBuilder) add(e Event) {
	b.events = append(b.events, e)
	if !b.stale {
		b.apply(e)
	}
}

// absorb adds one live event in any order. An event at or after the
// app's latest is added in O(1). An earlier one is inserted after every
// event with the same or an earlier timestamp — exactly where a stable
// sort of the arrival order puts it — into a fresh array. It is applied
// directly when it commutes with the events after it; otherwise the
// trace is rebuilt from the app's already-sorted events at the next
// publish.
func (b *traceBuilder) absorb(e Event) {
	n := len(b.events)
	if n == 0 || e.TimeMS >= b.events[n-1].TimeMS {
		b.add(e)
		return
	}
	i := sort.Search(n, func(i int) bool { return b.events[i].TimeMS > e.TimeMS })
	evs := make([]Event, n+1)
	copy(evs, b.events[:i])
	evs[i] = e
	copy(evs[i+1:], b.events[i:])
	b.events = evs
	if b.stale || !b.commutes(e) {
		b.stale = true
		return
	}
	b.apply(e)
}

// commutes reports whether applying e out of time order builds the trace
// a replay in time order would. Timestamps keep their earliest value, so
// they commute. What does not is a first-wins field that e would contend
// for — application name, container node or instance — and the
// first-seen order of containers sharing e's container number.
func (b *traceBuilder) commutes(e Event) bool {
	a := b.a
	if e.Container.IsZero() {
		if e.Kind != AppSubmitted0 {
			return true
		}
		// The first named submission wins; before one is seen, every
		// unnamed one overwrites the last. So a named e wins if none won
		// yet, an unnamed e loses if one did, and otherwise only an
		// identical e is safe.
		if e.Name == a.Name && e.AppType == a.AppType && e.Queue == a.Queue {
			return true
		}
		return (a.Name == "") == (e.Name != "")
	}
	lo, hi := a.numRange(e.Container.Num)
	switch {
	case hi == lo:
		return true // a new container with a number of its own
	case hi-lo > 1 || a.Containers[lo].ID != e.Container:
		return false
	}
	c := a.Containers[lo]
	if e.Node != "" && c.Node != "" && e.Node != c.Node {
		return false
	}
	switch e.Kind {
	case DriverFirstLog, ExecutorFirstLog, TaskFirstLog:
		return e.Instance == InstUnknown || c.Instance == InstUnknown || e.Instance == c.Instance
	}
	return true
}

// publish decomposes the working trace and returns it as the app's new
// immutable snapshot. Call it only after absorbing at least one event,
// so the working trace is not the previous snapshot.
func (b *traceBuilder) publish() *AppTrace {
	if b.stale {
		b.a, b.stale = &AppTrace{ID: b.a.ID}, false
		for _, e := range b.events {
			b.apply(e)
		}
	}
	a := b.a
	a.Events = b.events[:len(b.events):len(b.events)]
	Decompose(a)
	b.pub = a
	return a
}

// setEarliest keeps a milestone's first observation: the earliest nonzero
// timestamp. In time order that is the first one set, and in any order
// it is the minimum, which is why timestamps commute.
func setEarliest(dst *int64, v int64) {
	if v != 0 && (*dst == 0 || v < *dst) {
		*dst = v
	}
}

// apply folds one event into the working trace. Rules are "first
// occurrence wins" — timestamps, Name/AppType/Queue, a container's Node
// and Instance — so events arrive in time order, or commute (see
// commutes).
func (b *traceBuilder) apply(e Event) {
	if b.a == b.pub {
		h := *b.pub
		h.Containers = append(make([]*ContainerTrace, 0, len(h.Containers)+1), h.Containers...)
		b.a = &h
	}
	a := b.a
	if e.Container.IsZero() {
		switch e.Kind {
		case AppSubmitted0:
			if a.Name == "" {
				a.Name, a.AppType, a.Queue = e.Name, e.AppType, e.Queue
			}
		case AppSubmitted:
			setEarliest(&a.Submitted, e.TimeMS)
		case AppAccepted:
			setEarliest(&a.Accepted, e.TimeMS)
		case AttemptRegistered:
			setEarliest(&a.Registered, e.TimeMS)
		case AppFinished:
			setEarliest(&a.Finished, e.TimeMS)
		}
		return
	}
	c := b.container(e.Container)
	if c.Node == "" && e.Node != "" {
		c.Node = e.Node
	}
	switch e.Kind {
	case ContAllocated:
		setEarliest(&c.Allocated, e.TimeMS)
	case ContAcquired:
		setEarliest(&c.Acquired, e.TimeMS)
	case ContLocalizing:
		setEarliest(&c.Localizing, e.TimeMS)
	case ContScheduled:
		setEarliest(&c.Scheduled, e.TimeMS)
	case LaunchInvoked:
		setEarliest(&c.LaunchInvoked, e.TimeMS)
	case ContRunning:
		setEarliest(&c.Running, e.TimeMS)
	case DriverFirstLog, ExecutorFirstLog, TaskFirstLog:
		setEarliest(&c.FirstLog, e.TimeMS)
		if c.Instance == InstUnknown {
			c.Instance = e.Instance
		}
	case FirstTask:
		setEarliest(&c.FirstTask, e.TimeMS)
	case ContExited:
		setEarliest(&c.Exited, e.TimeMS)
	case ContReleased:
		setEarliest(&c.Released, e.TimeMS)
	case ContLost:
		setEarliest(&c.Lost, e.TimeMS)
	case OppQueued:
		setEarliest(&c.OppQueuedAt, e.TimeMS)
	case DriverRegister:
		setEarliest(&a.DriverRegister, e.TimeMS)
	case StartAllo:
		setEarliest(&a.StartAllo, e.TimeMS)
	case EndAllo:
		setEarliest(&a.EndAllo, e.TimeMS)
	}
}

// container returns the working trace's container cid, ready to mutate:
// created in number order on first sight, copied if the published
// snapshot still holds it.
func (b *traceBuilder) container(cid ids.ContainerID) *ContainerTrace {
	a := b.a
	i, ok := a.containerIndex(cid)
	if ok {
		c := a.Containers[i]
		if b.pub == nil || b.pub.Container(cid) != c {
			return c
		}
		cc := *c
		a.Containers[i] = &cc
		return &cc
	}
	c := &ContainerTrace{ID: cid, idStr: cid.String()}
	a.Containers = append(a.Containers, nil)
	copy(a.Containers[i+1:], a.Containers[i:])
	a.Containers[i] = c
	return c
}
