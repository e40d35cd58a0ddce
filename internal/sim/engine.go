// Package sim provides a deterministic discrete-event simulation engine
// with millisecond-precision virtual time.
//
// All simulated components (YARN daemons, Spark drivers, HDFS, ...) run as
// callbacks on a single Engine. Events scheduled for the same instant fire
// in scheduling order, which makes every run byte-for-byte reproducible.
// Virtual time is an int64 count of milliseconds since the simulation
// epoch; one millisecond is also the timestamp precision of log4j, so the
// engine's resolution matches the precision SDchecker can observe.
package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/metrics"
)

// Time is a virtual timestamp in milliseconds since the simulation epoch.
type Time int64

// Duration is a span of virtual time in milliseconds.
type Duration = int64

// Millisecond, Second and Minute are convenience units for Duration values.
const (
	Millisecond Duration = 1
	Second      Duration = 1000
	Minute      Duration = 60 * Second
	Hour        Duration = 60 * Minute
)

// MaxTime is the largest representable virtual timestamp.
const MaxTime Time = math.MaxInt64

// Event is a scheduled callback. It is exposed so callers can cancel
// pending events (e.g. heartbeat timers torn down on daemon shutdown) or
// move them (Engine.Reschedule). An event keeps its callback after it
// fires or is cancelled, so it can be rescheduled.
type Event struct {
	at    Time
	seq   uint64
	fn    func()
	index int // queue index; -1 once fired or cancelled
}

// Time returns the virtual time the event fires at.
func (e *Event) Time() Time { return e.at }

// Cancelled reports whether the event was cancelled or has already fired.
func (e *Event) Cancelled() bool { return e.index < 0 }

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	pq      eventQueue
	stopped bool
	fired   uint64
	met     engineMetrics
}

// engineMetrics are the engine's observability hooks. All fields are nil
// until Instrument is called; the increment sites rely on the metrics
// package's nil-safety, so an uninstrumented engine pays nothing but a
// nil check.
type engineMetrics struct {
	fired       *metrics.Counter   // callbacks executed
	scheduled   *metrics.Counter   // events pushed via At/After
	pending     *metrics.Gauge     // current queue depth
	sliceWallMS *metrics.Histogram // wall-clock per Run/RunUntil slice
}

// Instrument registers the engine's counters, queue-depth gauge, and
// per-RunUntil-slice wall-clock histogram in reg. Call once, before
// running; a nil registry is a no-op.
func (e *Engine) Instrument(reg *metrics.Registry) {
	e.met.fired = reg.Counter("sim_events_fired_total")
	e.met.scheduled = reg.Counter("sim_events_scheduled_total")
	e.met.pending = reg.Gauge("sim_queue_depth")
	e.met.sliceWallMS = reg.Histogram("sim_run_slice_wall_ms", metrics.DefBuckets)
}

// NewEngine returns an engine positioned at virtual time 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (useful in tests and
// for run statistics).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return len(e.pq) }

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it is always a simulation bug, never a recoverable condition.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := &Event{at: t, seq: e.seq, fn: fn}
	e.seq++
	e.pq.push(ev)
	e.met.scheduled.Inc()
	e.met.pending.Set(int64(len(e.pq)))
	return ev
}

// Reschedule moves ev to fire at t, whether it is pending, has fired or
// was cancelled. It means exactly Cancel(ev) followed by At(t) with ev's
// callback: the event takes the next sequence number, so it fires after
// every event already scheduled for t. A component that moves one timer
// over and over (a shared resource's next completion) reuses the event
// instead of allocating a new one each time. Rescheduling into the past
// panics, as At does.
func (e *Engine) Reschedule(ev *Event, t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	ev.at = t
	ev.seq = e.seq
	e.seq++
	if ev.index >= 0 {
		e.pq.fix(ev.index)
	} else {
		e.pq.push(ev)
	}
	e.met.scheduled.Inc()
	e.met.pending.Set(int64(len(e.pq)))
}

// After schedules fn to run d milliseconds from now. Negative d panics.
func (e *Engine) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.At(e.now+Time(d), fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op, so callers can cancel defensively.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	e.pq.remove(ev.index)
	e.met.pending.Set(int64(len(e.pq)))
}

// Stop makes the current Run return after the in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains or Stop is called. It returns
// the virtual time of the last event executed.
func (e *Engine) Run() Time {
	return e.RunUntil(MaxTime)
}

// Step fires exactly the next pending event, advancing the clock to its
// timestamp, and reports whether an event fired. It is the single-step
// seam the small-scope model checker (internal/mc) drives: an explorer
// that owns the event granularity can interleave external commands
// (submissions, faults) between any two internal events.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	next := e.pq.remove(0)
	e.now = next.at
	e.fired++
	e.met.fired.Inc()
	e.met.pending.Set(int64(len(e.pq)))
	next.fn()
	return true
}

// NextAt returns the timestamp of the next pending event, or MaxTime when
// the queue is empty.
func (e *Engine) NextAt() Time {
	if len(e.pq) == 0 {
		return MaxTime
	}
	return e.pq[0].at
}

// PendingTimes returns the sorted timestamps of every pending event. The
// model checker folds them (relative to Now) into its canonical state
// fingerprint: two states with identical domain state but different
// pending-timer structure must not be merged.
func (e *Engine) PendingTimes() []Time {
	out := make([]Time, len(e.pq))
	for i, ev := range e.pq {
		out[i] = ev.at
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RunUntil executes events with timestamps <= deadline. The clock is left
// at the last executed event (or at deadline if an event beyond it
// remains queued).
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	var wallStart time.Time
	if e.met.sliceWallMS != nil {
		//lint:allow determinism sim_run_slice_wall_ms deliberately measures host wall time per run slice; it never feeds simulation state or reports
		wallStart = time.Now()
	}
	for len(e.pq) > 0 && !e.stopped {
		next := e.pq[0]
		if next.at > deadline {
			e.now = deadline
			break
		}
		e.pq.remove(0)
		e.now = next.at
		e.fired++
		e.met.fired.Inc()
		next.fn()
	}
	e.met.pending.Set(int64(len(e.pq)))
	if e.met.sliceWallMS != nil {
		//lint:allow determinism observability-only wall-time histogram; simulation state and reports derive solely from the virtual clock
		e.met.sliceWallMS.Observe(float64(time.Since(wallStart)) / float64(time.Millisecond))
	}
	return e.now
}

// eventQueue is a binary min-heap of pending events ordered by (time,
// insertion sequence), so simultaneous events fire in the order they were
// scheduled. Each event records its slot in index, which lets Cancel and
// Reschedule reach it without a search.
type eventQueue []*Event

// before is the queue order. Sequence numbers are unique, so it is total:
// every heap layout fires the same events in the same order.
func (a *Event) before(b *Event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (q *eventQueue) push(ev *Event) {
	*q = append(*q, ev)
	q.up(len(*q)-1, ev)
}

// remove takes the event at slot i out of the queue and marks it fired
// or cancelled.
func (q *eventQueue) remove(i int) *Event {
	h := *q
	ev := h[i]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	*q = h[:n]
	if i < n {
		q.place(i, last)
	}
	ev.index = -1
	return ev
}

// fix restores the order after the key of the event at slot i changed.
func (q eventQueue) fix(i int) { q.place(i, q[i]) }

// place puts ev into the hole at slot i, moving it down or up to where
// the order holds.
func (q eventQueue) place(i int, ev *Event) {
	if j := q.down(i, ev); j != i {
		q[j], ev.index = ev, j
		return
	}
	q.up(i, ev)
}

// up moves ev from the hole at slot i toward the root and stores it.
func (q eventQueue) up(i int, ev *Event) {
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q[p]) {
			break
		}
		q[i], q[p].index = q[p], i
		i = p
	}
	q[i], ev.index = ev, i
}

// down moves the hole at slot i toward the leaves while a child comes
// before ev, and returns the slot where ev belongs without storing it.
func (q eventQueue) down(i int, ev *Event) int {
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			return i
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(ev) {
			return i
		}
		q[i], q[c].index = q[c], i
		i = c
	}
}
