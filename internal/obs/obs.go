// Package obs is the mining pipeline's self-observability layer: the
// paper's tool decomposes *other* systems' scheduling pipelines from
// their logs, and this package turns the same lens on the tool itself.
//
// A Pipeline observes the six pipeline stages (read, parse, cross-shard
// forward, decompose, aggregate, serve-scan) two ways: per-stage latency
// histograms and throughput counters in an internal/metrics registry,
// and a flight recorder (see flight.go), the only store of pipeline
// records. The recorder's stage ring renders as a Perfetto track next to
// mined app timelines and drains into the serve loop's own internal/slo
// engine, so the checker's SLO machinery evaluates the checker itself;
// dumps merge it with the event ring by sequence number, on demand and
// automatically when the watchdog trips.
//
// Instrumentation stays out of the per-line hot path by contract: every
// recording method is called once per batch/chunk/scan, never per line,
// and every method is safe on a nil *Pipeline so call sites in
// internal/core remain unconditional (the repo's nil-safe metrics
// idiom). The clock is injectable, which makes flight dumps of a serial
// run byte-reproducible.
package obs

import (
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// The six pipeline stages, in pipeline order. These are the component
// vocabulary for self-SLO rules (slo.ParseRulesFor), the stage label on
// every obs_ metric, and the Perfetto track names.
const (
	StageRead      = "read"      // file walk + appended-byte drain
	StageParse     = "parse"     // regex extraction over a line batch
	StageForward   = "forward"   // absorbing cross-shard event batches
	StageDecompose = "decompose" // per-app delay decomposition
	StageAggregate = "aggregate" // completion hook: sketches + SLO fold
	StageScan      = "scan"      // one whole serve-loop ingestion pass
)

// Stages lists every stage in pipeline order.
var Stages = []string{StageRead, StageParse, StageForward, StageDecompose, StageAggregate, StageScan}

// stageBuckets covers 10µs .. ~84s with constant relative resolution:
// per-batch parse times live in the sub-millisecond range, full serve
// scans of a large tree in seconds.
var stageBuckets = metrics.ExpBuckets(0.01, 2, 24)

// Tick is one clock reading: wall milliseconds for event placement and
// nanoseconds for durations (sub-millisecond batches would vanish in a
// millisecond-only clock).
type Tick struct {
	MS int64
	NS int64
}

// stageSet is one stage's metric instruments.
type stageSet struct {
	hist    *metrics.Histogram // obs_stage_duration_ms{stage=...}
	items   *metrics.Counter   // obs_stage_items_total{stage=...}
	batches *metrics.Counter   // obs_stage_batches_total{stage=...}
}

// Pipeline is the per-deployment observability hub. Create one with New
// and hand it to the stream (ObservePipeline) and the serve loop. All
// methods are safe for concurrent use and are no-ops on a nil receiver.
type Pipeline struct {
	base  time.Time
	clock func() int64 // nil = wall clock; else test clock in ms

	stages map[string]*stageSet
	flight *Flight
}

// Option configures a Pipeline.
type Option func(*Pipeline)

// WithClock replaces the wall clock with a millisecond test clock. Every
// Tick derives both fields from it, so durations — and therefore flight
// dumps — become deterministic.
func WithClock(fn func() int64) Option {
	return func(p *Pipeline) { p.clock = fn }
}

// New builds a Pipeline registering its metric families in reg (which
// may be nil: the instruments are then inert, the recorder still works).
// Every stage's series are pre-registered so /metrics always exposes
// all six, observed or not.
func New(reg *metrics.Registry, opts ...Option) *Pipeline {
	p := &Pipeline{
		base:   time.Now(),
		stages: make(map[string]*stageSet, len(Stages)),
		flight: newFlight(reg),
	}
	for _, st := range Stages {
		p.stages[st] = &stageSet{
			hist:    reg.Histogram("obs_stage_duration_ms", stageBuckets, "stage", st),
			items:   reg.Counter("obs_stage_items_total", "stage", st),
			batches: reg.Counter("obs_stage_batches_total", "stage", st),
		}
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Begin reads the clock. On a nil pipeline it returns the zero Tick, so
// instrumented code paths never pay a clock read when unobserved.
func (p *Pipeline) Begin() Tick {
	if p == nil {
		return Tick{}
	}
	if p.clock != nil {
		ms := p.clock()
		return Tick{MS: ms, NS: ms * int64(time.Millisecond)}
	}
	return Tick{MS: time.Now().UnixMilli(), NS: time.Since(p.base).Nanoseconds()}
}

// StageBatch records one completed batch of a stage, ending now, in the
// histograms and the flight recorder's stage ring. shard is the worker
// index, or -1 when the stage is not shard-scoped.
func (p *Pipeline) StageBatch(stage string, shard int, start Tick, items int) {
	if p == nil {
		return
	}
	p.StageSpan(stage, shard, start, p.Begin(), items)
}

// StageSpan is StageBatch with an explicit end Tick, for adjacent stages
// that share one clock read (the end of parse is the start of absorb).
func (p *Pipeline) StageSpan(stage string, shard int, start, end Tick, items int) {
	if p == nil {
		return
	}
	st := p.stages[stage]
	if st == nil {
		return // unknown stage: a programming error, but never crash the pipeline
	}
	durNS := end.NS - start.NS
	if durNS < 0 {
		durNS = 0
	}
	st.hist.Observe(float64(durNS) / float64(time.Millisecond))
	st.items.Add(int64(items))
	st.batches.Inc()

	p.flight.recordStage(stageRec{
		Event:   Event{AtMS: end.MS, Kind: KindStage, Stage: stage, Shard: shard, N: int64(items), DurUS: durNS / int64(time.Microsecond)},
		startMS: start.MS,
	})
}

// DrainSelf returns the stage events recorded since the last drain,
// oldest first; obs_self_observations_dropped_total counts those the
// stage ring overwrote before it. The serve loop calls it once per scan
// and feeds the samples through its self-SLO engine. The result is
// valid until the next DrainSelf.
func (p *Pipeline) DrainSelf() []Event {
	if p == nil {
		return nil
	}
	f := p.flight
	f.mu.Lock()
	defer f.mu.Unlock()
	pending, held := f.stages.n-f.drained, uint64(len(f.stages.buf))
	if pending > held {
		f.selfDropped.Add(int64(pending - held))
		pending = held
	}
	f.drained = f.stages.n
	if pending == 0 {
		return nil
	}
	f.self = f.self[:0]
	for i := held - pending; i < held; i++ {
		f.self = append(f.self, f.stages.at(int(i)).Event)
	}
	return f.self
}

// RecordForward notes a cross-shard event forward in the flight
// recorder (the stage histogram sees the absorb side via StageForward
// batches; this records the routing decision itself).
func (p *Pipeline) RecordForward(from, to int, events int) {
	if p == nil {
		return
	}
	p.flight.Record(Event{AtMS: p.Begin().MS, Kind: KindForward, Stage: StageForward, Shard: from, N: int64(events), Detail: "to shard " + strconv.Itoa(to)})
}

// RecordHook notes one completion-hook fire.
func (p *Pipeline) RecordHook(app string) {
	p.record(Event{Kind: KindHook, Shard: -1, N: 1, Detail: app})
}

// RecordEvict notes one application eviction.
func (p *Pipeline) RecordEvict(app string) {
	p.record(Event{Kind: KindEvict, Shard: -1, N: 1, Detail: app})
}

// RecordWarnBurst notes a burst of dropped/unmatched lines between two
// scans (n is the burst size).
func (p *Pipeline) RecordWarnBurst(n int64) {
	p.record(Event{Kind: KindWarnBurst, Shard: -1, N: n})
}

// RecordSLOTransition notes one SLO alert edge: rule is the rule name,
// firing selects slo_fire vs slo_resolve, and apps is the number of
// exemplar applications captured at fire time. The serve loop installs
// this as the engine's transition hook so stall snapshots show alert
// edges in context.
func (p *Pipeline) RecordSLOTransition(rule string, firing bool, apps int) {
	kind := KindSLOResolve
	if firing {
		kind = KindSLOFire
	}
	p.record(Event{Kind: kind, Shard: -1, N: int64(apps), Detail: rule})
}

// record stamps e with the clock and appends it to the flight recorder.
func (p *Pipeline) record(e Event) {
	if p == nil {
		return
	}
	e.AtMS = p.Begin().MS
	p.flight.Record(e)
}

// Flight exposes the flight recorder (nil on a nil pipeline).
func (p *Pipeline) Flight() *Flight {
	if p == nil {
		return nil
	}
	return p.flight
}

// Spans renders the flight recorder's stage ring as trace spans on a
// single "pipeline" process: one track per stage, shard-scoped stages
// split into per-shard tracks so imbalance is visible next to the mined
// app timelines in the same Perfetto UI. Spans come out oldest first.
func (p *Pipeline) Spans() []sim.TraceSpan {
	if p == nil {
		return nil
	}
	f := p.flight
	f.mu.Lock()
	recs := make([]stageRec, len(f.stages.buf))
	for i := range recs {
		recs[i] = f.stages.at(i)
	}
	f.mu.Unlock()
	out := make([]sim.TraceSpan, 0, len(recs))
	for _, r := range recs {
		thread := r.Stage
		if r.Shard >= 0 {
			thread = r.Stage + "/shard-" + two(r.Shard)
		}
		out = append(out, sim.TraceSpan{
			Process: PipelineTrack,
			Thread:  thread,
			Name:    r.Stage,
			Start:   sim.Time(r.startMS),
			End:     sim.Time(r.AtMS),
			Args:    map[string]string{"items": strconv.FormatInt(r.N, 10)},
		})
	}
	return out
}

// PipelineTrack is the Perfetto process name grouping all pipeline
// stage tracks.
const PipelineTrack = "pipeline"

// two zero-pads a shard index to two digits so tracks sort naturally.
func two(n int) string {
	if n < 10 {
		return "0" + strconv.Itoa(n)
	}
	return strconv.Itoa(n)
}
