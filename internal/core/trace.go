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
	if i, ok := containerIndex(a.Containers, cid); ok {
		return a.Containers[i]
	}
	return nil
}

// containerIndex binary-searches the Num-ordered containers cs for cid.
// When cid is absent it returns the index a new container must be
// inserted at to keep the order: after every container with the same or
// a lower number, which is where a stable sort by number puts the
// latest-seen one.
func containerIndex(cs []*ContainerTrace, cid ids.ContainerID) (int, bool) {
	lo, hi := numRange(cs, cid.Num)
	for i := lo; i < hi; i++ {
		if cs[i].ID == cid {
			return i, true
		}
	}
	return hi, false
}

// numRange returns the index range [lo, hi) of the containers of cs
// numbered num.
func numRange(cs []*ContainerTrace, num int) (lo, hi int) {
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
	apps, _ := correlateParts([][]Event{events})
	return apps
}

// correlateParts is Correlate over the concatenation of parts, the
// per-file parses in walk order, without building that concatenation.
// It copies each event once, into one array that holds the apps in
// submission order and each app's events in time order, and returns it
// with the traces, whose Events are cap-limited slices of it. It
// releases the parts (sets each parts[i] to nil) once they are copied,
// so a caller holding no other reference can free them.
//
// Events can arrive in any order across files; an app's events are
// ordered by time so "first occurrence wins" rules are well-defined.
// Each app's events are stable-sorted: restricted to one app, a stable
// sort of the whole list is exactly the stable sort of that app's
// arrival-ordered events, and traces are built per app. An app is
// sorted as keys that name its events, which are then copied to their
// final places, rather than swapped around as they sort.
func correlateParts(parts [][]Event) ([]*AppTrace, []Event) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	group := make(map[ids.AppID]int32)
	gs := make([]int32, 0, n) // each event's group
	var apps []ids.AppID      // each group's app, numbered by first arrival
	var count []int           // events per group
	for _, p := range parts {
		for i := range p {
			id := p[i].Container.App
			g, ok := group[id]
			if !ok {
				g = int32(len(apps))
				group[id] = g
				apps = append(apps, id)
				count = append(count, 0)
			}
			gs = append(gs, g)
			count[g]++
		}
	}
	bySeq := make([]int32, len(apps))
	for g := range bySeq {
		bySeq[g] = int32(g)
	}
	slices.SortFunc(bySeq, func(x, y int32) int { return compareBySeq(apps[x], apps[y]) })
	// next[g] is where group g's next key goes, and its end once placed.
	next := make([]int, len(apps))
	at := 0
	for _, g := range bySeq {
		next[g] = at
		at += count[g]
	}
	keys := make([]eventKey, n)
	k := 0
	for pi, p := range parts {
		for i := range p {
			g := gs[k]
			keys[next[g]] = eventKey{p[i].TimeMS, int32(pi), int32(i)}
			next[g]++
			k++
		}
	}

	for _, g := range bySeq {
		slices.SortFunc(keys[next[g]-count[g]:next[g]], compareEventKeys)
	}
	all := make([]Event, n)
	for i, key := range keys {
		all[i] = parts[key.part][key.off]
	}
	clear(parts)

	out := make([]*AppTrace, len(bySeq))
	for i, g := range bySeq {
		end := next[g]
		evs := all[end-count[g] : end : end]
		b := newTraceBuilder(apps[g])
		for j := range evs {
			b.apply(evs[j])
		}
		b.a.Events = evs
		out[i] = b.a
	}
	return out, all
}

// eventKey names one event of correlateParts' parts, with its
// timestamp to sort it by.
type eventKey struct {
	t         int64
	part, off int32
}

// compareEventKeys orders keys by time, ties in arrival order (part,
// then offset). No two keys are equal, so an unstable sort by it is a
// stable sort by time.
func compareEventKeys(x, y eventKey) int {
	if c := cmp.Compare(x.t, y.t); c != 0 {
		return c
	}
	if c := cmp.Compare(x.part, y.part); c != 0 {
		return c
	}
	return cmp.Compare(x.off, y.off)
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
// copies on write, and keeps a snapshot only while it is current. The
// first change after a snapshot, or a replay, releases it: the working
// trace becomes a copy of the header and its Containers slice, without
// the Events only a snapshot sets, and the builder keeps no more of the
// released snapshot than its Containers list, to copy a container before
// its first change while that snapshot still holds it. Untouched
// containers stay shared. The events are sorted in place unless a
// snapshot shares their array, and into a fresh array when one does.
// Between snapshots every change is made in place.
type traceBuilder struct {
	// a is the working trace apply mutates. Right after a snapshot it is
	// the snapshot itself, and the next change copies it first.
	a *AppTrace
	// pub is the current snapshot: nil once a change or a replay
	// released it, and always nil on the offline path, which never
	// snapshots and so mutates a freely.
	pub *AppTrace
	// frozen is the Containers list of the snapshot the last change
	// released: a working container found in it is shared with that
	// snapshot.
	frozen []*ContainerTrace
	// events backs the snapshots' Events: in arrival order since the
	// last sort, and in time order, ties in arrival order, right after
	// one. Snapshots share it as a cap-limited prefix, so appends past
	// their length never show through.
	events []Event
	// latest is the latest timestamp among events, and unsorted is set
	// once an event earlier than it was appended: the next snapshot or
	// replay sorts the events first.
	latest   int64
	unsorted bool
	// shared is set while a snapshot may hold the events array, released
	// or not: sortEvents then writes a fresh array, and reclassify, which
	// rewrites an event inside it, copies it first.
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
	lo, hi := numRange(a.Containers, e.Container.Num)
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
		b.a, b.pub, b.frozen, b.stale = &AppTrace{ID: b.a.ID}, nil, nil, false
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
		b.pub, b.frozen, b.shared = b.a, nil, true
	}
	return b.pub
}

// sortEvents puts the events in time order, ties in arrival order, as
// Correlate orders an app's events. It stable-sorts them in place when no
// snapshot shares the array. When one does, it sorts them as indices and
// copies each once into a fresh array, which no snapshot holds.
func (b *traceBuilder) sortEvents() {
	if !b.unsorted {
		return
	}
	if !b.shared {
		slices.SortStableFunc(b.events, func(x, y Event) int { return cmp.Compare(x.TimeMS, y.TimeMS) })
		b.unsorted = false
		return
	}
	order := make([]int32, len(b.events))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(i, j int32) int { return cmp.Compare(b.events[i].TimeMS, b.events[j].TimeMS) })
	sorted := make([]Event, len(b.events))
	for k, i := range order {
		sorted[k] = b.events[i]
	}
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
		h.Events = nil
		h.Containers = append(make([]*ContainerTrace, 0, len(h.Containers)+1), h.Containers...)
		b.a, b.pub, b.frozen = &h, nil, b.pub.Containers
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
// created in number order on first sight, copied if the released
// snapshot still holds it.
func (b *traceBuilder) container(cid ids.ContainerID) *ContainerTrace {
	a := b.a
	i, ok := containerIndex(a.Containers, cid)
	if ok {
		c := a.Containers[i]
		if j, held := containerIndex(b.frozen, cid); !held || b.frozen[j] != c {
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
