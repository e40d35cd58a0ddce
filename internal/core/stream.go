package core

import (
	"slices"
	"sort"

	"repro/internal/ids"
	"repro/internal/obs"
)

// Stream is the incremental checker's state: the applications one
// ShardedStream shard owns. Feed it log lines as they are produced and
// read current decompositions at any point; unlike Checker, which parses
// whole files, it accepts interleaved lines from many sources and keeps
// per-application state, and whether each app is complete, up to date
// after every line. A trace is sorted and decomposed only when it is
// read. Fed directly it is a single-goroutine stream; concurrent and
// observed use goes through ShardedStream, whose shards each hold one.
//
// Lines from container stderr files must be attributed to their
// container; pass the file path (containing the container ID) as source,
// exactly as the offline parser derives it.
type Stream struct {
	// apps holds one incremental trace builder per application: its
	// working trace is current after every absorb, and trace and traces
	// snapshot it on read.
	apps  map[ids.AppID]*traceBuilder
	total int
	// nCompleted counts the builders whose completed flag is set, so the
	// in-flight / completed gauges cost O(1) to refresh.
	nCompleted int
	// dirty lists the builders the absorb in progress must refresh: the
	// apps its events touched, plus any whose kept FIRST_LOG a later
	// line reclassified (takeFirstLog).
	dirty      []*traceBuilder
	onComplete func(*AppTrace)
	// lastMS is the max event timestamp absorbed — the stream's event
	// clock, which downstream SLO evaluation advances on.
	lastMS int64
	// scratch is Feed's reusable line parser: its event slice is reset
	// (not freed) each feed, which is what makes a non-matching line
	// allocation-free. The events it mines keep no view of the fed line
	// (see Parser), so they do not pin it.
	scratch Parser
	// pl, when set by the owning ShardedStream, receives flight-recorder
	// events (hook fires, evictions); nil calls are no-ops.
	pl *obs.Pipeline
}

// NewStream returns an empty incremental checker.
func NewStream() *Stream {
	return &Stream{apps: make(map[ids.AppID]*traceBuilder)}
}

// OnComplete registers a hook called the first time an application's
// decomposition becomes fully observable (the Complete predicate) — the
// feed point for cluster-level aggregation and SLO evaluation. The hook
// runs synchronously inside Feed with a snapshot of the trace as of the
// absorbed line, which is never mutated afterwards; it must not call back
// into the stream. Each application is delivered at most once, even if
// degraded later input turns its decomposition partial and complete
// again. Pass nil to remove the hook.
func (s *Stream) OnComplete(fn func(*AppTrace)) { s.onComplete = fn }

// Feed consumes one raw log line from the given source path. Unparseable
// lines are ignored, like the offline parser does. It returns true when
// the line produced at least one scheduling event.
func (s *Stream) Feed(source, rawLine string) bool {
	return s.absorbRouted(s.scratch.parseLine(source, rawLine)) > 0
}

// absorbRouted ingests one line's parsed events — fed directly, or
// routed to this shard by a ShardedStream worker — applying the stateful
// dedup rules: one FIRST_LOG per container, one FIRST_TASK per
// container. It filters evs in place and returns how many events were
// absorbed after dedup.
func (s *Stream) absorbRouted(evs []Event) int {
	out := evs[:0]
	for _, e := range evs {
		switch e.Kind {
		case DriverFirstLog, ExecutorFirstLog, TaskFirstLog:
			if !e.AppLevel() && !s.takeFirstLog(e) {
				continue
			}
		case FirstTask:
			// The offline parser dedups FIRST_TASK per file; do the same
			// against current state.
			if s.hasFirstTask(e.Container) {
				continue
			}
		}
		out = append(out, e)
	}
	s.absorb(out)
	return len(out)
}

// takeFirstLog reports whether e is its container's first FIRST_LOG,
// the one the stream keeps: a stream cannot re-read "the first line of
// the file". Every later one still classifies the container, as each
// line of the file does offline: its instance folds into the
// container's (foldInstance), and when that changes the instance, the
// kept FIRST_LOG is rewritten to it and the app is refreshed with the
// absorb in progress. A container's events belong to its own app, so
// the builder this creates absorbs the event right after.
func (s *Stream) takeFirstLog(e Event) bool {
	b := s.builder(e.App())
	inst, seen := b.instances[e.Container]
	if !seen {
		if b.instances == nil {
			b.instances = make(map[ids.ContainerID]InstanceCode)
		}
		b.instances[e.Container] = e.Instance
		return true
	}
	if next := foldInstance(inst, e.Instance); next != inst {
		b.instances[e.Container] = next
		b.reclassify(e.Container, next)
		if !slices.Contains(s.dirty, b) {
			s.dirty = append(s.dirty, b)
		}
	}
	return false
}

// hasFirstTask reports whether container cid's working trace already
// holds a FIRST_TASK.
func (s *Stream) hasFirstTask(cid ids.ContainerID) bool {
	b := s.apps[cid.App]
	if b == nil {
		return false
	}
	c := b.a.Container(cid)
	return c != nil && c.FirstTask != 0
}

// builder returns the application's trace builder, creating it on first
// sight.
func (s *Stream) builder(id ids.AppID) *traceBuilder {
	b := s.apps[id]
	if b == nil {
		b = newTraceBuilder(id)
		s.apps[id] = b
	}
	return b
}

// absorb folds events into their applications' trace builders and
// refreshes each dirty application's working trace. Every event is
// appended to its application's events in O(1); an out-of-order one
// that does not commute makes the refresh replay that application, and
// no other application is touched. Each refresh evaluates the Complete
// predicate, so the completion hook fires at exactly the absorb that
// first makes an app complete. Only the hook's trace is snapshotted —
// sorted and decomposed — here; trace and traces snapshot the rest on
// read.
func (s *Stream) absorb(evs []Event) {
	dirty := s.dirty
	for _, e := range evs {
		b := s.builder(e.App())
		if !slices.Contains(dirty, b) {
			dirty = append(dirty, b)
		}
		b.absorb(e)
		s.total++
		if e.TimeMS > s.lastMS {
			s.lastMS = e.TimeMS
		}
	}
	for _, b := range dirty {
		done := b.refresh()
		if done != b.completed {
			if done {
				s.nCompleted++
			} else {
				s.nCompleted--
			}
			b.completed = done
		}
		if done && !b.notified {
			b.notified = true
			if s.onComplete != nil {
				s.pl.RecordHook(b.a.ID.String())
				s.onComplete(b.snapshot())
			}
		}
	}
	clear(dirty)
	s.dirty = dirty[:0]
}

// EventCount returns the number of scheduling events absorbed so far.
func (s *Stream) EventCount() int { return s.total }

// trace returns the live trace for one application, or nil. The trace
// is an immutable snapshot: later feeds change a copy.
func (s *Stream) trace(id ids.AppID) *AppTrace {
	if b := s.apps[id]; b != nil {
		return b.snapshot()
	}
	return nil
}

// traces returns the live traces ordered by submission sequence (ties —
// possible only when garbage input mints several cluster timestamps —
// broken by cluster timestamp, so the order is deterministic).
func (s *Stream) traces() []*AppTrace {
	out := make([]*AppTrace, 0, len(s.apps))
	for _, b := range s.apps {
		out = append(out, b.snapshot())
	}
	sortTracesBySeq(out)
	return out
}

// Report snapshots the current state into a full report (aggregates +
// bug detection), like Checker.Analyze but reusable mid-stream. It is
// deterministic for a given set of feeds, and identical to what a
// ShardedStream fed the same lines reports.
func (s *Stream) Report() *Report { return liveReport(s.traces()) }

// liveReport builds a report over live trace snapshots. Its Events are
// the traces' events gathered in submission order, each app's in time
// order; nothing reads more of their order than that.
func liveReport(apps []*AppTrace) *Report {
	n := 0
	for _, a := range apps {
		n += len(a.Events)
	}
	all := make([]Event, 0, n)
	for _, a := range apps {
		all = append(all, a.Events...)
	}
	return ReportFrom(apps, all)
}

// forget drops all state for one application: its trace builder (trace,
// events, its containers' FIRST_LOG dedup entries and its completion
// flags). Long-running
// feeds (sdchecker -serve) forget finished apps so memory tracks the
// live working set, not the full history.
func (s *Stream) forget(id ids.AppID) {
	b := s.apps[id]
	if b == nil {
		return
	}
	s.total -= len(b.events)
	if b.completed {
		s.nCompleted--
	}
	delete(s.apps, id)
	s.pl.RecordEvict(id.String())
}

// sortAppIDsBySeq orders application IDs by submission sequence, ties
// (distinct cluster timestamps, garbage input only) by cluster timestamp.
func sortAppIDsBySeq(a []ids.AppID) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].Seq != a[j].Seq {
			return a[i].Seq < a[j].Seq
		}
		return a[i].ClusterTS < a[j].ClusterTS
	})
}

// sortTracesBySeq orders traces the same way sortAppIDsBySeq orders IDs.
func sortTracesBySeq(out []*AppTrace) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID.Seq != out[j].ID.Seq {
			return out[i].ID.Seq < out[j].ID.Seq
		}
		return out[i].ID.ClusterTS < out[j].ID.ClusterTS
	})
}
