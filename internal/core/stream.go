package core

import (
	"slices"
	"sort"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Stream is the incremental variant of the checker: feed it log lines as
// they are produced (a live cluster's `tail -f`, or a simulation pumping
// events) and read current decompositions at any point. Unlike Checker,
// which parses whole files, Stream accepts interleaved lines from many
// sources and keeps per-application state up to date after every line.
//
// Lines from container stderr files must be attributed to their
// container; pass the file path (containing the container ID) as source,
// exactly as the offline parser derives it.
type Stream struct {
	// apps holds one incremental trace builder per application: its
	// working trace is current after every absorb, and App and Apps
	// snapshot it on read.
	apps  map[ids.AppID]*traceBuilder
	total int
	// completed caches which apps have a fully observable headline
	// decomposition (the Complete predicate), feeding the in-flight /
	// completed gauges and the eviction policy; nCompleted counts its
	// true entries so the gauges cost O(1) per absorb.
	completed  map[ids.AppID]bool
	nCompleted int
	// dirty is absorb's reusable list of the apps one call touched.
	dirty []*traceBuilder
	// notified tracks apps whose completion hook already fired, so each
	// application is delivered downstream exactly once even if later
	// lines flip its Complete flag back and forth.
	notified   map[ids.AppID]bool
	onComplete func(*AppTrace)
	// lastMS is the max event timestamp absorbed — the stream's event
	// clock, which downstream SLO evaluation advances on.
	lastMS int64
	met    *streamMetrics
	pmet   *parserMetrics
	// scratch is the reusable per-feed parser: its event slice is reset
	// (not freed) each feed, which is what makes a non-matching line
	// allocation-free.
	scratch *Parser
	// pl, when set, receives flight-recorder events (hook fires,
	// evictions). The serial stream has no batch boundaries of its own, so
	// stage timing lives with the callers that batch (dirScanner, miner).
	pl *obs.Pipeline
}

// ObservePipeline attaches the self-observability pipeline: completion
// hook fires and evictions are recorded in its flight recorder. Attach
// before feeding; a nil pipeline keeps the stream unobserved (the calls
// are nil-safe no-ops).
func (s *Stream) ObservePipeline(p *obs.Pipeline) { s.pl = p }

// ShardStat is one worker's progress sample for the pipeline watchdog:
// its current queue depth and its cumulative processed-batch count.
type ShardStat struct {
	Queued    int
	Processed int64
}

// streamMetrics are the stream's observability hooks; nil until
// Instrument is called.
type streamMetrics struct {
	lines     *metrics.Counter // lines fed
	matched   *metrics.Counter // lines that produced >= 1 event
	dropped   *metrics.Counter // lines that produced nothing
	events    *metrics.Counter // scheduling events absorbed
	inflight  *metrics.Gauge   // apps seen but not yet complete
	completed *metrics.Gauge   // apps with a complete decomposition
	evicted   *metrics.Counter // apps forgotten/evicted
}

// newStreamMetrics registers the stream-level counters and gauges; the
// serial Stream and the ShardedStream expose the same metric names so
// dashboards work against either ingestion path.
func newStreamMetrics(reg *metrics.Registry) *streamMetrics {
	return &streamMetrics{
		lines:     reg.Counter("core_stream_lines_total"),
		matched:   reg.Counter("core_stream_lines_matched_total"),
		dropped:   reg.Counter("core_stream_lines_dropped_total"),
		events:    reg.Counter("core_stream_events_total"),
		inflight:  reg.Gauge("core_stream_apps_inflight"),
		completed: reg.Gauge("core_stream_apps_completed"),
		evicted:   reg.Counter("core_stream_apps_evicted_total"),
	}
}

// Instrument registers the stream's line/event counters and app gauges in
// reg, plus the shared parser counters every per-line parser reports to.
// Call once, before feeding; a nil registry is a no-op.
func (s *Stream) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.met = newStreamMetrics(reg)
	s.pmet = newParserMetrics(reg)
}

// NewStream returns an empty incremental checker.
func NewStream() *Stream {
	return &Stream{
		apps:      make(map[ids.AppID]*traceBuilder),
		completed: make(map[ids.AppID]bool),
		notified:  make(map[ids.AppID]bool),
	}
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
	if s.met != nil {
		s.met.lines.Inc()
	}
	matched := s.feed(source, rawLine)
	if s.met != nil {
		if matched {
			s.met.matched.Inc()
		} else {
			s.met.dropped.Inc()
		}
	}
	return matched
}

func (s *Stream) feed(source, rawLine string) bool {
	p := s.scratch
	if p == nil {
		p = NewParser()
		s.scratch = p
	}
	p.met = s.pmet
	p.events = p.events[:0]
	if cid, found, err := fastFindContainerID(source); found {
		if err != nil {
			return false
		}
		if !p.feedContainerSegments(source, cid, rawLine) {
			return false
		}
		if len(p.events) == 0 {
			return false
		}
		return s.absorb(s.dedupContainerEvents(cid, p.events))
	}
	if !p.feedDaemonSegments(source, rawLine) {
		return false
	}
	return s.absorb(p.events)
}

// absorbRouted ingests pre-parsed events routed to this stream by a
// ShardedStream worker, applying the same stateful dedup rules feed
// applies: one FIRST_LOG per container, one FIRST_TASK per container.
// It filters evs in place and returns how many events were absorbed after
// dedup.
func (s *Stream) absorbRouted(evs []Event) int {
	out := evs[:0]
	for _, e := range evs {
		switch e.Kind {
		case DriverFirstLog, ExecutorFirstLog, TaskFirstLog:
			if !e.Container.IsZero() && !s.takeFirstLog(e.Container) {
				continue
			}
		case FirstTask:
			if s.hasFirstTask(e.Container) {
				continue
			}
		}
		out = append(out, e)
	}
	if !s.absorb(out) {
		return 0
	}
	return len(out)
}

// dedupContainerEvents filters one container feed's events against
// stream state, in place.
func (s *Stream) dedupContainerEvents(cid ids.ContainerID, evs []Event) []Event {
	out := evs[:0]
	for _, e := range evs {
		switch e.Kind {
		case DriverFirstLog, ExecutorFirstLog, TaskFirstLog:
			if !s.takeFirstLog(cid) {
				continue // only the true first line counts
			}
		case FirstTask:
			// The offline parser dedups FIRST_TASK per file; do the same
			// against current state.
			if s.hasFirstTask(cid) {
				continue
			}
		}
		out = append(out, e)
	}
	return out
}

// takeFirstLog records container cid's FIRST_LOG on its app's builder
// and reports whether it is the first: a stream cannot re-read "the
// first line of the file". A container's events belong to its own app,
// so the builder this creates absorbs the event right after.
func (s *Stream) takeFirstLog(cid ids.ContainerID) bool {
	b := s.builder(cid.App)
	if b.firstLogs[cid] {
		return false
	}
	if b.firstLogs == nil {
		b.firstLogs = make(map[ids.ContainerID]bool)
	}
	b.firstLogs[cid] = true
	return true
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
// refreshes each touched application's working trace. An event arriving
// in time order costs O(1) before the refresh; an out-of-order one is
// inserted into its own application's sorted events and, unless it
// commutes, replays them, and no other application is touched. Each
// refresh decomposes the trace once, so the completion hook fires at
// exactly the absorb that first makes an app complete. Only the hook's
// trace is snapshotted here; App and Apps snapshot the rest on read.
func (s *Stream) absorb(evs []Event) bool {
	if len(evs) == 0 {
		return false
	}
	dirty := s.dirty[:0]
	for _, e := range evs {
		b := s.builder(e.App)
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
		a := b.refresh()
		done := a.Decomp.Complete
		if done != s.completed[a.ID] {
			if done {
				s.nCompleted++
			} else {
				s.nCompleted--
			}
		}
		s.completed[a.ID] = done
		if done && !s.notified[a.ID] {
			s.notified[a.ID] = true
			if s.onComplete != nil {
				s.pl.RecordHook(a.ID.String())
				s.onComplete(b.snapshot())
			}
		}
	}
	clear(dirty)
	s.dirty = dirty[:0]
	if s.met != nil {
		s.met.events.Add(int64(len(evs)))
		s.updateAppGauges()
	}
	return true
}

// updateAppGauges refreshes the in-flight / completed app gauges from the
// running completed count.
func (s *Stream) updateAppGauges() {
	if s.met == nil {
		return
	}
	s.met.completed.Set(int64(s.nCompleted))
	s.met.inflight.Set(int64(len(s.apps) - s.nCompleted))
}

// EventCount returns the number of scheduling events absorbed so far.
func (s *Stream) EventCount() int { return s.total }

// LastEventMS returns the latest event timestamp absorbed so far (0
// before any event) — the stream's event clock.
func (s *Stream) LastEventMS() int64 { return s.lastMS }

// App returns the live trace for one application, or nil. The trace is
// an immutable snapshot: later feeds change a copy.
func (s *Stream) App(id ids.AppID) *AppTrace {
	if b := s.apps[id]; b != nil {
		return b.snapshot()
	}
	return nil
}

// Apps returns the live traces ordered by submission sequence (ties —
// possible only when garbage input mints several cluster timestamps —
// broken by cluster timestamp, so the order is deterministic).
func (s *Stream) Apps() []*AppTrace {
	out := make([]*AppTrace, 0, len(s.apps))
	for _, b := range s.apps {
		out = append(out, b.snapshot())
	}
	sortTracesBySeq(out)
	return out
}

// Report snapshots the current state into a full report (aggregates +
// bug detection), like Checker.Analyze but reusable mid-stream. Events
// are gathered per application in submission order and stable-sorted by
// timestamp, so the report is deterministic for a given set of feeds —
// and identical to what a ShardedStream fed the same lines reports.
func (s *Stream) Report() *Report { return liveReport(s.Apps()) }

// liveReport builds a report over live trace snapshots: their events,
// gathered in the traces' submission order, are stable-sorted by time.
// Each trace's Events is its app's arrival order stable-sorted by time,
// so the result equals sorting the arrival-order buckets.
func liveReport(apps []*AppTrace) *Report {
	n := 0
	for _, a := range apps {
		n += len(a.Events)
	}
	all := make([]Event, 0, n)
	for _, a := range apps {
		all = append(all, a.Events...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].TimeMS < all[j].TimeMS })
	return ReportFrom(apps, all)
}

// Complete reports whether an application's headline decomposition is
// fully observable and anomaly-free (the Decomposition.Complete flag) —
// the signal a live dashboard uses to mark a row final.
func (s *Stream) Complete(id ids.AppID) bool { return s.completed[id] }

// Forget drops all state for one application: its trace builder (trace,
// events and the FIRST_LOG dedup entries of its containers). Long-running
// feeds (sdchecker -serve) call this for finished apps so memory tracks
// the live working set, not the full history.
func (s *Stream) Forget(id ids.AppID) {
	b := s.apps[id]
	if b == nil {
		return
	}
	s.total -= len(b.events)
	if s.completed[id] {
		s.nCompleted--
	}
	delete(s.apps, id)
	delete(s.completed, id)
	delete(s.notified, id)
	s.pl.RecordEvict(id.String())
	if s.met != nil {
		s.met.evicted.Inc()
		s.updateAppGauges()
	}
}

// EvictCompleted forgets completed applications, oldest submission first,
// until at most keep of them remain. It returns how many were evicted.
// In-flight applications are never evicted: their decompositions are
// still growing.
func (s *Stream) EvictCompleted(keep int) int {
	if keep < 0 {
		keep = 0
	}
	var done []ids.AppID
	for id, c := range s.completed {
		if c {
			done = append(done, id)
		}
	}
	if len(done) <= keep {
		return 0
	}
	sortAppIDsBySeq(done)
	victims := done[:len(done)-keep]
	for _, id := range victims {
		s.Forget(id)
	}
	return len(victims)
}

// EvictOldest is the hard memory bound behind EvictCompleted: when more
// than max applications are tracked — complete or not — the oldest by
// submission sequence are forgotten until max remain. Garbage input can
// mint unbounded app IDs whose decompositions never complete; without
// this bound a tailing server would hold them all forever.
func (s *Stream) EvictOldest(max int) int {
	if max < 0 || len(s.apps) <= max {
		return 0
	}
	all := make([]ids.AppID, 0, len(s.apps))
	for id := range s.apps {
		all = append(all, id)
	}
	sortAppIDsBySeq(all)
	victims := all[:len(all)-max]
	for _, id := range victims {
		s.Forget(id)
	}
	return len(victims)
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
