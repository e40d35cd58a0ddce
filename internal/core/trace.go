package core

import (
	"cmp"
	"slices"
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
	// Events can arrive in any order across files; order each app's events
	// by time so "first occurrence wins" rules are well-defined. Group by
	// app in arrival order, then stable-sort each group: restricted to one
	// app, a stable sort of the whole list is exactly the stable sort of
	// that app's arrival-ordered events, and traces are built per app.
	// The groups are sorted as event indices and each event is copied
	// once, to its final place, rather than swapped around as it sorts.
	group := make(map[ids.AppID]int32)
	gs := make([]int32, len(events)) // each event's group
	var count []int                  // events per group, numbered by first arrival
	for i := range events {
		g, ok := group[events[i].Container.App]
		if !ok {
			g = int32(len(count))
			group[events[i].Container.App] = g
			count = append(count, 0)
		}
		gs[i] = g
		count[g]++
	}
	// next[g] is where group g's next index goes, and its end once placed.
	next := make([]int, len(count))
	for g := 1; g < len(count); g++ {
		next[g] = next[g-1] + count[g-1]
	}
	idx := make([]int32, len(events))
	for i, g := range gs {
		idx[next[g]] = int32(i)
		next[g]++
	}

	byApp := make([]Event, len(events))
	out := make([]*AppTrace, len(count))
	for g, end := range next {
		start := end - count[g]
		evs := byApp[start:end:end]
		placeByTime(evs, events, idx[start:end])
		b := newTraceBuilder(evs[0].Container.App)
		for i := range evs {
			b.apply(evs[i])
		}
		b.a.Events = evs
		out[g] = b.a
	}
	sortTracesBySeq(out)
	return out
}

// placeByTime stable-sorts order, indices into events, by timestamp and
// copies the events it names into dst in that order: each event moves
// once, to its final place, rather than being swapped around as it
// sorts.
func placeByTime(dst, events []Event, order []int32) {
	slices.SortStableFunc(order, func(i, j int32) int { return cmp.Compare(events[i].TimeMS, events[j].TimeMS) })
	for k, i := range order {
		dst[k] = events[i]
	}
}

// traceBuilder assembles one application's trace event by event, in time
// order. It is the single correlation path: Correlate feeds it each
// app's time-sorted events, and a Stream keeps one per live application,
// absorbing each event in O(1) in whatever order it arrives.
//
// The live path keeps the working trace current after every absorb and
// evaluates the Complete predicate on it (refresh); it sorts the events
// and decomposes only when a reader asks for an immutable snapshot
// (snapshot): the completion hook, Stream.trace and Stream.traces.
// Snapshots are never mutated afterwards — callers, completion hooks and
// concurrent ShardedStream readers hold on to them — so the builder
// copies on write: the first change after a snapshot copies the header
// and its Containers slice, a container is copied before its first
// change while the snapshot still holds it, and the events are sorted
// into a fresh array. Untouched containers stay shared. Between
// snapshots every change is made in place.
type traceBuilder struct {
	// a is the working trace apply mutates. Right after a snapshot it is
	// the snapshot itself, and the next change copies it first.
	a *AppTrace
	// pub is the last snapshot; nil on the offline path, which never
	// snapshots and so mutates a freely.
	pub *AppTrace
	// events backs a.Events: in arrival order since the last sort, and
	// in time order, ties in arrival order, right after one. Snapshots
	// share it as a cap-limited prefix, so appends past their length
	// never show through.
	events []Event
	// latest is the latest timestamp among events, and unsorted is set
	// once an event earlier than it was appended: the next snapshot or
	// replay sorts the events first.
	latest   int64
	unsorted bool
	// shared is set while a snapshot holds the events array: reclassify,
	// which rewrites an event inside it, copies it first.
	shared bool
	// stale is set when an out-of-order event did not commute, or a
	// FIRST_LOG was reclassified: a no longer reflects events and refresh
	// replays them.
	stale bool
	// instances holds the instance of each live container whose
	// FIRST_LOG was already absorbed, folded over every FIRST_LOG its
	// lines produced since (see Stream.takeFirstLog); nil offline.
	instances map[ids.ContainerID]InstanceCode
	// completed caches whether the working trace's headline
	// decomposition is fully observable (the Complete predicate) as of
	// the last live refresh, feeding the in-flight / completed gauges and
	// the eviction policy. notified is set once the completion hook has
	// fired, so the app is delivered downstream exactly once even if
	// later lines flip completed back and forth.
	completed, notified bool
}

func newTraceBuilder(id ids.AppID) *traceBuilder {
	return &traceBuilder{a: &AppTrace{ID: id}}
}

// absorb adds one live event in any order. It is appended to the app's
// events either way; a stable sort of the arrival order, which is what
// the next snapshot or replay runs, puts it after every event with the
// same or an earlier timestamp. An event at or after the app's latest
// is applied directly. An earlier one is applied directly when it
// commutes with the events after it; otherwise the trace is replayed
// from the sorted events at the next refresh.
func (b *traceBuilder) absorb(e Event) {
	inOrder := len(b.events) == 0 || e.TimeMS >= b.latest
	b.events = append(b.events, e)
	if inOrder {
		b.latest = e.TimeMS
	} else {
		b.unsorted = true
	}
	switch {
	case b.stale:
	case inOrder || b.commutes(e):
		b.apply(e)
	default:
		b.stale = true
	}
}

// commutes reports whether applying e out of time order builds the trace
// a replay in time order would. Timestamps keep their earliest value, so
// they commute. What does not is a first-wins field that e would contend
// for — application name, container node or instance — and the
// first-seen order of containers sharing e's container number.
func (b *traceBuilder) commutes(e Event) bool {
	a := b.a
	if e.AppLevel() {
		if e.Kind != AppSubmitted0 {
			return true
		}
		// The first named submission wins; before one is seen, every
		// unnamed one overwrites the last. So a named e wins if none won
		// yet, an unnamed e loses if one did, and otherwise only an
		// identical e is safe.
		sub := e.summary()
		if sub.Name == a.Name && sub.AppType == a.AppType && sub.Queue == a.Queue {
			return true
		}
		return (a.Name == "") == (sub.Name != "")
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
		return e.Instance == codeUnknown || c.Instance == InstUnknown || e.Instance.Type() == c.Instance
	}
	return true
}

// refresh brings the working trace up to date after an absorb —
// replaying the app's sorted events if an out-of-order event left it
// stale — and reports whether it is complete (the Complete predicate)
// as of every event absorbed. It does not decompose: snapshot does, on
// read.
func (b *traceBuilder) refresh() bool {
	if b.stale {
		b.sortEvents()
		b.a, b.stale = &AppTrace{ID: b.a.ID}, false
		for _, e := range b.events {
			b.apply(e)
		}
	}
	return complete(b.a)
}

// snapshot returns the working trace, decomposed and with its events in
// time order, as the app's immutable snapshot, sharing the events array
// as a cap-limited prefix. Until the next change it returns the same
// snapshot. Call it only on a refreshed builder.
func (b *traceBuilder) snapshot() *AppTrace {
	if b.a != b.pub {
		b.sortEvents()
		Decompose(b.a)
		n := len(b.events)
		b.a.Events = b.events[:n:n]
		b.pub, b.shared = b.a, true
	}
	return b.pub
}

// sortEvents puts the events in time order, ties in arrival order, as
// Correlate orders an app's events: it sorts them as indices and copies
// each once into a fresh array, which no snapshot holds.
func (b *traceBuilder) sortEvents() {
	if !b.unsorted {
		return
	}
	order := make([]int32, len(b.events))
	for i := range order {
		order[i] = int32(i)
	}
	sorted := make([]Event, len(b.events))
	placeByTime(sorted, b.events, order)
	b.events, b.unsorted, b.shared = sorted, false, false
}

// reclassify rewrites container cid's kept FIRST_LOG to instance inst
// and marks the trace for a rebuild at the next refresh, copying the
// event array first if a snapshot holds it.
func (b *traceBuilder) reclassify(cid ids.ContainerID, inst InstanceCode) {
	b.stale = true
	for i := range b.events {
		e := &b.events[i]
		if e.Container != cid || (e.Kind != DriverFirstLog && e.Kind != ExecutorFirstLog && e.Kind != TaskFirstLog) {
			continue
		}
		if b.shared {
			b.events, b.shared = slices.Clone(b.events), false
			e = &b.events[i]
		}
		e.Kind, e.Instance = firstLogKind(inst), inst
		return
	}
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
	if e.AppLevel() {
		switch e.Kind {
		case AppSubmitted0:
			if a.Name == "" {
				sub := e.summary()
				a.Name, a.AppType, a.Queue = sub.Name, sub.AppType, sub.Queue
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
			c.Instance = e.Instance.Type()
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
// created in number order on first sight, copied if the last snapshot
// still holds it.
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
