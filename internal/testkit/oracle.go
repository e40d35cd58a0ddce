package testkit

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/log4j"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// OracleInput is one log tree to validate: the sink holding the run's
// logs, and (optionally) the simulator's ground-truth span recorder.
type OracleInput struct {
	Name string
	Sink *log4j.Sink

	// Truth, when set, enables the ground-truth containment check:
	// every mined delay-component span must fall within its recorded
	// counterpart on the same (application, container, name) track.
	// Leave nil for degraded-log runs — per-file clock skew moves mined
	// timestamps off the simulator's timeline by design.
	Truth   *sim.Recorder
	EpochMS int64 // wall-clock epoch of sim time 0 (shifts Truth spans)

	// RequireSpans lists span names the mined trace must contain (e.g.
	// the full shared vocabulary for a healthy Spark run).
	RequireSpans []string
}

// DiffOracle is a differential test harness for the parallel mining
// pipeline: for each worker count it checks that MineSink renders byte
// for byte what the serial Checker renders, that a ShardedStream fed
// the sink's lines renders byte for byte what a serial Stream renders
// and hands its completion hook the same applications, which sketch to
// the same breakdown, that the byte-level fast parser and the regexp
// reference (core.ParseReference) agree on every file, and — when
// ground truth is supplied — that the mined spans are contained in the
// simulator's recorded spans.
type DiffOracle struct {
	// Workers are the parallel worker counts to diff (default 2, 3, 8).
	Workers []int
}

// Check runs the full differential suite and returns the serial
// checker's report (the reference all parallel paths were diffed
// against) for any further scenario-specific assertions.
func (o DiffOracle) Check(t testing.TB, in OracleInput) *core.Report {
	t.Helper()
	workers := o.Workers
	if len(workers) == 0 {
		workers = []int{2, 3, 8}
	}

	// Reference: the serial offline checker.
	ck := core.New()
	if err := ck.AddSink(in.Sink); err != nil {
		t.Fatalf("%s: AddSink: %v", in.Name, err)
	}
	ref := ck.Analyze()
	refJSON, err := ref.JSON()
	if err != nil {
		t.Fatalf("%s: reference JSON: %v", in.Name, err)
	}
	refAttr, err := ref.Breakdown().AttributionJSON()
	if err != nil {
		t.Fatalf("%s: reference attribution JSON: %v", in.Name, err)
	}

	// Reference: the serial stream, fed the sink's lines in file order,
	// with the applications its completion hook delivers sketched in
	// application-ID order.
	st := core.NewStream()
	var stHooked []*core.AppTrace
	st.OnComplete(func(a *core.AppTrace) { stHooked = append(stHooked, a) })
	for _, f := range in.Sink.Files() {
		for _, l := range in.Sink.Lines(f) {
			st.Feed(f, l)
		}
	}
	stJSON, err := st.Report().JSON()
	if err != nil {
		t.Fatalf("%s: serial stream JSON: %v", in.Name, err)
	}
	stApps, refBD := sketchBySeq(stHooked)
	stAttr, err := refBD.AttributionJSON()
	if err != nil {
		t.Fatalf("%s: serial stream attribution JSON: %v", in.Name, err)
	}

	// Cross-implementation diff: every file of the sink, parsed by the
	// fast Parser and by the regexp reference, must yield identical
	// events, warnings, line counts and core_parser_* counters. The
	// reports above are functions of those outputs, so every oracle
	// scenario is also a matcher-equivalence scenario.
	for _, f := range in.Sink.Files() {
		diffReference(t, in.Name, in.Sink, f)
	}

	for _, w := range workers {
		// Parallel offline mining == serial checker, byte for byte.
		rep, err := core.MineSink(in.Sink, w)
		if err != nil {
			t.Fatalf("%s: MineSink(workers=%d): %v", in.Name, w, err)
		}
		got, err := rep.JSON()
		if err != nil {
			t.Fatalf("%s: MineSink(workers=%d) JSON: %v", in.Name, w, err)
		}
		if got != refJSON {
			t.Errorf("%s: MineSink(workers=%d) diverges from serial checker", in.Name, w)
		}
		if !reflect.DeepEqual(rep.Breakdown().Rows(), ref.Breakdown().Rows()) {
			t.Errorf("%s: MineSink(workers=%d) breakdown diverges", in.Name, w)
		}
		// Attribution state (exemplar reservoirs + heavy-hitter top-k)
		// must merge to the same bytes at any worker count.
		if attr, err := rep.Breakdown().AttributionJSON(); err != nil {
			t.Fatalf("%s: MineSink(workers=%d) attribution JSON: %v", in.Name, w, err)
		} else if attr != refAttr {
			t.Errorf("%s: MineSink(workers=%d) attribution diverges from serial checker", in.Name, w)
		}

		// Parallel streaming == serial streaming, byte for byte, and the
		// completion hook delivers the same applications, whose sketch
		// equals the serial one.
		ss := core.NewShardedStream(w)
		var ssHooked []*core.AppTrace
		ss.OnComplete(func(a *core.AppTrace) { ssHooked = append(ssHooked, a) })
		for _, f := range in.Sink.Files() {
			for _, l := range in.Sink.Lines(f) {
				ss.Feed(f, l)
			}
		}
		ss.Quiesce()
		sgot, err := ss.Report().JSON()
		if err != nil {
			t.Fatalf("%s: ShardedStream(workers=%d) JSON: %v", in.Name, w, err)
		}
		if sgot != stJSON {
			t.Errorf("%s: ShardedStream(workers=%d) diverges from serial stream", in.Name, w)
		}
		gotApps, bd := sketchBySeq(ssHooked)
		if !reflect.DeepEqual(gotApps, stApps) {
			t.Errorf("%s: ShardedStream(workers=%d) hook delivered apps %v, serial stream %v", in.Name, w, gotApps, stApps)
		}
		if !reflect.DeepEqual(bd.Rows(), refBD.Rows()) {
			t.Errorf("%s: ShardedStream(workers=%d) hook sketch diverges from serial hook sketch", in.Name, w)
		}
		if attr, err := bd.AttributionJSON(); err != nil {
			t.Fatalf("%s: ShardedStream(workers=%d) attribution JSON: %v", in.Name, w, err)
		} else if attr != stAttr {
			t.Errorf("%s: ShardedStream(workers=%d) attribution diverges from serial stream", in.Name, w)
		}
		ss.Close()
	}

	if in.Truth != nil {
		o.checkContainment(t, in, ref)
	}
	if len(in.RequireSpans) > 0 {
		seen := map[string]bool{}
		for _, a := range ref.Apps {
			for _, sp := range core.AppSpans(a) {
				seen[sp.Name] = true
			}
		}
		for _, want := range in.RequireSpans {
			if !seen[want] {
				t.Errorf("%s: mined trace missing span %q", in.Name, want)
			}
		}
	}
	return ref
}

// sketchBySeq orders the traces a completion hook delivered by
// submission sequence and returns their app IDs and a breakdown folded
// in that order, so a sharded stream's hook order, which depends on
// worker scheduling, does not reach the comparison.
func sketchBySeq(traces []*core.AppTrace) ([]string, *core.ClusterBreakdown) {
	sorted := slices.Clone(traces)
	slices.SortFunc(sorted, func(a, b *core.AppTrace) int {
		return cmp.Or(cmp.Compare(a.ID.Seq, b.ID.Seq), cmp.Compare(a.ID.ClusterTS, b.ID.ClusterTS))
	})
	apps := make([]string, len(sorted))
	bd := core.NewClusterBreakdown()
	for i, a := range sorted {
		apps[i] = a.ID.String()
		bd.Observe(a)
	}
	return apps, bd
}

// diffReference parses one file of the sink with the fast Parser and
// with core.ParseReference and reports every observable difference.
func diffReference(t testing.TB, scenario string, s *log4j.Sink, name string) {
	t.Helper()
	freg, rreg := metrics.NewRegistry(), metrics.NewRegistry()
	fp := core.NewParser()
	fp.Instrument(freg)
	ferr := fp.ParseReader(name, s.Reader(name))
	rp, rerr := core.ParseReference(name, s.Reader(name), rreg)
	if fmt.Sprint(ferr) != fmt.Sprint(rerr) {
		t.Errorf("%s: %s: reference error diverges: fast=%v regex=%v", scenario, name, ferr, rerr)
	}
	if !reflect.DeepEqual(fp.Events(), rp.Events()) {
		t.Errorf("%s: %s: reference events diverge from the fast parser", scenario, name)
	}
	if !reflect.DeepEqual(fp.Warnings(), rp.Warnings()) {
		t.Errorf("%s: %s: reference warnings diverge: fast=%q regex=%q", scenario, name, fp.Warnings(), rp.Warnings())
	}
	ff, fl := fp.Stats()
	rf, rl := rp.Stats()
	if ff != rf || fl != rl {
		t.Errorf("%s: %s: reference stats diverge: fast=(%d files, %d lines) regex=(%d, %d)", scenario, name, ff, fl, rf, rl)
	}
	var fm, rm strings.Builder
	if err := freg.WriteText(&fm); err != nil {
		t.Fatalf("%s: %s: fast parser metrics: %v", scenario, name, err)
	}
	if err := rreg.WriteText(&rm); err != nil {
		t.Fatalf("%s: %s: reference metrics: %v", scenario, name, err)
	}
	if fm.String() != rm.String() {
		t.Errorf("%s: %s: parser counters diverge:\nfast:\n%s\nregex:\n%s", scenario, name, fm.String(), rm.String())
	}
}

// checkContainment verifies every mined delay-component span falls
// within a ground-truth span on the same track (the PR 1 fidelity check,
// applied to whatever scenario the oracle is driven with).
func (o DiffOracle) checkContainment(t testing.TB, in OracleInput, rep *core.Report) {
	t.Helper()
	type key struct{ proc, track, name string }
	truth := map[key][][2]int64{}
	for _, sp := range in.Truth.Spans() {
		k := key{sp.Process, sp.Thread, sp.Name}
		truth[k] = append(truth[k], [2]int64{in.EpochMS + int64(sp.Start), in.EpochMS + int64(sp.End)})
	}
	if len(truth) == 0 {
		t.Fatalf("%s: ground-truth recorder captured nothing", in.Name)
	}
	mined := 0
	for _, a := range rep.Apps {
		for _, m := range core.AppSpans(a) {
			mined++
			k := key{m.Process, m.Thread, m.Name}
			within := false
			for _, tr := range truth[k] {
				if tr[0] <= int64(m.Start) && int64(m.End) <= tr[1] {
					within = true
					break
				}
			}
			if !within {
				t.Errorf("%s: mined span %s/%s %q [%d, %d] not within any ground-truth span",
					in.Name, m.Process, m.Thread, m.Name, m.Start, m.End)
			}
		}
	}
	if mined == 0 {
		t.Fatalf("%s: no spans mined from the logs", in.Name)
	}
}
