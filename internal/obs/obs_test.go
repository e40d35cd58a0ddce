package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// fakeClock is a deterministic millisecond clock for tests.
type fakeClock struct{ now int64 }

func (c *fakeClock) fn() func() int64 { return func() int64 { return c.now } }

func newTestPipeline() (*Pipeline, *metrics.Registry, *fakeClock) {
	clk := &fakeClock{now: 1_000}
	reg := metrics.NewRegistry()
	return New(reg, WithClock(clk.fn())), reg, clk
}

// sizeRings gives a fresh pipeline's flight recorder rings of the given
// capacities, so tests can wrap them in a few records.
func sizeRings(p *Pipeline, stages, events int) {
	p.flight.stages = ring[stageRec]{buf: make([]stageRec, 0, stages)}
	p.flight.events = ring[Event]{buf: make([]Event, 0, events)}
}

func TestNilPipelineIsInert(t *testing.T) {
	var p *Pipeline
	tk := p.Begin()
	if tk != (Tick{}) {
		t.Fatalf("nil Begin = %+v, want zero", tk)
	}
	p.StageBatch(StageParse, 0, tk, 10)
	p.StageSpan(StageRead, -1, tk, tk, 1)
	p.RecordForward(0, 1, 2)
	p.RecordHook("app")
	p.RecordEvict("app")
	p.RecordWarnBurst(9)
	if p.DrainSelf() != nil || p.Spans() != nil || p.Flight() != nil {
		t.Fatal("nil pipeline leaked state")
	}
	if d := p.Flight().Dump(); len(d.Events) != 0 {
		t.Fatal("nil pipeline dumped events")
	}

	var w *Watchdog
	w.ScanBegin(0)
	w.ScanEnd(0)
	w.ObserveShards(nil, nil, 0)
	w.OnSnapshot(func([]byte) {})
	if st, _ := w.Check(0); st {
		t.Fatal("nil watchdog stalled")
	}
	if w.Snapshots() != 0 || w.LastDump() != nil {
		t.Fatal("nil watchdog leaked state")
	}

	var rc *RuntimeCollector
	rc.Collect()
}

func TestStageSpansFlowEverywhere(t *testing.T) {
	p, reg, clk := newTestPipeline()
	t0 := p.Begin()
	clk.now += 5
	p.StageBatch(StageParse, 1, t0, 100)
	t1 := p.Begin()
	clk.now += 3
	p.StageBatch(StageScan, -1, t1, 1)

	// Metrics: histogram + counters carry the batch.
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`obs_stage_items_total{stage="parse"} 100`,
		`obs_stage_batches_total{stage="parse"} 1`,
		`obs_stage_duration_ms_count{stage="parse"} 1`,
		`obs_stage_duration_ms_sum{stage="parse"} 5`,
		`obs_stage_batches_total{stage="scan"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// All six stages are pre-registered even when never observed.
	for _, st := range Stages {
		if !strings.Contains(text, `obs_stage_batches_total{stage="`+st+`"}`) {
			t.Errorf("stage %q not pre-registered", st)
		}
	}

	// Span ring → Perfetto spans, shard-scoped stages on per-shard tracks.
	spans := p.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Process != PipelineTrack || spans[0].Thread != "parse/shard-01" || spans[0].Args["items"] != "100" {
		t.Fatalf("parse span %+v", spans[0])
	}
	if spans[1].Thread != "scan" || spans[1].Name != "scan" {
		t.Fatalf("scan span %+v", spans[1])
	}

	// Flight recorder saw both batches with microsecond durations.
	d := p.Flight().Dump()
	if len(d.Events) != 2 || d.Events[0].Kind != KindStage || d.Events[0].DurUS != 5000 {
		t.Fatalf("flight %+v", d.Events)
	}

	// Self-observations drain once.
	self := p.DrainSelf()
	if len(self) != 2 || self[0].Stage != StageParse || self[0].DurUS != 5000 {
		t.Fatalf("self obs %+v", self)
	}
	if p.DrainSelf() != nil {
		t.Fatal("second drain not empty")
	}
}

func TestSpanRingWraps(t *testing.T) {
	p, _, clk := newTestPipeline()
	sizeRings(p, 4, flightSize)
	for i := 0; i < 6; i++ {
		t0 := p.Begin()
		clk.now++
		p.StageBatch(StageRead, -1, t0, i)
	}
	spans := p.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(spans))
	}
	// Oldest survivor is batch #2 (items=2), newest #5.
	if spans[0].Args["items"] != "2" || spans[3].Args["items"] != "5" {
		t.Fatalf("ring order wrong: %v ... %v", spans[0].Args, spans[3].Args)
	}
}

func TestFlightRingOverwritesOldest(t *testing.T) {
	p, _, _ := newTestPipeline()
	sizeRings(p, 0, 3)
	for i := 0; i < 5; i++ {
		p.RecordHook("app-" + string(rune('a'+i)))
	}
	d := p.Flight().Dump()
	if d.Cap != 3 || d.Recorded != 5 || len(d.Events) != 3 {
		t.Fatalf("dump header %+v", d)
	}
	if d.Events[0].Seq != 2 || d.Events[2].Seq != 4 {
		t.Fatalf("dump not oldest-first: %+v", d.Events)
	}
	if d.Events[2].Detail != "app-e" {
		t.Fatalf("newest event %+v", d.Events[2])
	}
}

func TestFlightDumpDeterministic(t *testing.T) {
	record := func() []byte {
		p, _, clk := newTestPipeline()
		t0 := p.Begin()
		clk.now += 7
		p.StageBatch(StageParse, 0, t0, 42)
		p.RecordForward(0, 3, 5)
		p.RecordHook("application_1499000000000_0001")
		return p.Flight().Dump().JSON()
	}
	a, b := record(), record()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical event sequences produced different dumps:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(string(a), `"kind": "forward"`) || !strings.Contains(string(a), `"detail": "to shard 3"`) {
		t.Fatalf("dump missing forward detail:\n%s", a)
	}
}

func TestSelfBufferBounded(t *testing.T) {
	p, reg, clk := newTestPipeline()
	sizeRings(p, 4, flightSize)
	for i := 0; i < 10; i++ {
		t0 := p.Begin()
		clk.now++
		p.StageBatch(StageRead, -1, t0, 1)
	}
	if got := len(p.DrainSelf()); got != 4 {
		t.Fatalf("kept %d self observations, want 4", got)
	}
	if v := reg.Counter("obs_self_observations_dropped_total").Value(); v != 6 {
		t.Fatalf("dropped counter = %d, want 6", v)
	}
}

func TestWatchdogScanStallSnapshotOnceAndRecover(t *testing.T) {
	p, reg, _ := newTestPipeline()
	w := NewWatchdog(p, reg, 100)
	var snaps [][]byte
	w.OnSnapshot(func(d []byte) { snaps = append(snaps, d) })

	// Never started: no verdict no matter how much time passes.
	if st, _ := w.Check(10_000); st {
		t.Fatal("stalled before first scan")
	}

	w.ScanBegin(1_000)
	if st, _ := w.Check(1_050); st {
		t.Fatal("stalled while scan still within budget")
	}
	st, reason := w.Check(1_200)
	if !st || !strings.Contains(reason, "scan in flight") {
		t.Fatalf("want in-flight stall, got %v %q", st, reason)
	}
	if len(snaps) != 1 || w.Snapshots() != 1 {
		t.Fatalf("snapshots = %d/%d, want exactly one", len(snaps), w.Snapshots())
	}
	if !bytes.Equal(w.LastDump(), snaps[0]) {
		t.Fatal("LastDump disagrees with hook delivery")
	}
	// Still stalled: no second snapshot within the episode.
	w.Check(1_300)
	if len(snaps) != 1 {
		t.Fatal("snapshot fired twice in one episode")
	}

	// Scan completes: recovery, gauge drops, snapshot re-arms.
	w.ScanEnd(1_350)
	if st, _ := w.Check(1_360); st {
		t.Fatal("did not recover after ScanEnd")
	}
	if v := reg.Gauge("obs_watchdog_stalled").Value(); v != 0 {
		t.Fatalf("stalled gauge = %d after recovery", v)
	}

	// A dead loop (no scan at all) is the second stall flavor — and a
	// fresh episode takes a fresh snapshot.
	st, reason = w.Check(2_000)
	if !st || !strings.Contains(reason, "no scan for") {
		t.Fatalf("want dead-loop stall, got %v %q", st, reason)
	}
	if len(snaps) != 2 || w.Snapshots() != 2 {
		t.Fatalf("snapshot did not re-arm: %d/%d", len(snaps), w.Snapshots())
	}

	// The flight recorder holds the episode markers.
	kinds := map[string]int{}
	for _, e := range p.Flight().Dump().Events {
		kinds[e.Kind]++
	}
	if kinds[KindStall] != 2 || kinds[KindRecover] != 1 || kinds[KindSnapshot] != 2 {
		t.Fatalf("flight episode markers %v", kinds)
	}
}

func TestWatchdogShardStuck(t *testing.T) {
	p, reg, _ := newTestPipeline()
	w := NewWatchdog(p, reg, 100)
	w.ScanBegin(1_000)
	w.ScanEnd(1_001)

	// Shard 1 has queued work and a frozen processed counter. The scan
	// loop itself keeps running (fresh ScanEnd), so the shard condition
	// is the one that trips.
	w.ObserveShards([]int{0, 3}, []int64{5, 7}, 1_010)
	w.ObserveShards([]int{0, 3}, []int64{5, 7}, 1_150)
	w.ScanBegin(1_149)
	w.ScanEnd(1_150)
	st, reason := w.Check(1_150)
	if !st || !strings.Contains(reason, "shard 1 queue not draining") {
		t.Fatalf("want shard stall, got %v %q", st, reason)
	}

	// Progress on the shard clears the verdict.
	w.ObserveShards([]int{0, 0}, []int64{5, 8}, 1_160)
	if st, _ := w.Check(1_170); st {
		t.Fatal("shard stall did not clear on progress")
	}
}

func TestRuntimeCollector(t *testing.T) {
	reg := metrics.NewRegistry()
	rc := NewRuntimeCollector(reg)
	rc.Collect()
	if v := reg.Gauge("go_goroutines").Value(); v <= 0 {
		t.Fatalf("go_goroutines = %d", v)
	}
	if v := reg.Gauge("go_heap_alloc_bytes").Value(); v <= 0 {
		t.Fatalf("go_heap_alloc_bytes = %d", v)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE go_goroutines gauge",
		"# TYPE go_gc_cycles_total counter",
		"# TYPE go_gc_pause_ms histogram",
		"go_gc_pause_ms_bucket",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("runtime exposition missing %q", want)
		}
	}
}

// TestFlightHookContext: the slice around an app's newest hook_fired
// event merges both rings by sequence number, and leaves out what the
// stage ring has overwritten.
func TestFlightHookContext(t *testing.T) {
	p, _, clk := newTestPipeline()
	sizeRings(p, 2, flightSize)
	stage := func() {
		t0 := p.Begin()
		clk.now++
		p.StageBatch(StageParse, 0, t0, 1)
	}
	stage()            // 0
	p.RecordHook("a")  // 1
	stage()            // 2
	p.RecordHook("b")  // 3
	stage()            // 4 (overwritten)
	p.RecordHook("a")  // 5
	stage()            // 6
	stage()            // 7
	p.RecordEvict("a") // 8

	seqs := func(evs []Event) []uint64 {
		var out []uint64
		for _, e := range evs {
			out = append(out, e.Seq)
		}
		return out
	}
	got := p.Flight().HookContext([]string{"a", "b", "c", "a"}, 2)
	if len(got) != 2 {
		t.Fatalf("slices for %d apps, want 2 (c never completed): %v", len(got), got)
	}
	if s := seqs(got["a"]); !reflect.DeepEqual(s, []uint64{3, 5, 6, 7}) {
		t.Errorf("a's slice seqs %v, want [3 5 6 7]", s)
	}
	if s := seqs(got["b"]); !reflect.DeepEqual(s, []uint64{1, 3, 5}) {
		t.Errorf("b's slice seqs %v, want [1 3 5]", s)
	}
	if e := got["a"][2]; e.Kind != KindStage || e.Stage != StageParse || e.DurUS != 1000 {
		t.Errorf("stage record rendered as %+v", e)
	}

	d := p.Flight().Dump()
	if s := seqs(d.Events); d.Cap != 2+flightSize || d.Recorded != 9 || !reflect.DeepEqual(s, []uint64{1, 3, 5, 6, 7, 8}) {
		t.Errorf("dump cap %d recorded %d seqs %v", d.Cap, d.Recorded, s)
	}
}
