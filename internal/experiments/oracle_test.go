package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/log4j"
	"repro/internal/sim"
	"repro/internal/spark"
	"repro/internal/testkit"
	"repro/internal/workload"
	"repro/internal/yarn"
)

// oracleScenario runs a short TPC-H burst under the given options and
// returns the scenario (with its sink and, when trace is set, the
// ground-truth recorder attached before any submission).
func oracleScenario(t *testing.T, opts Options, queries int, trace bool) (*Scenario, *sim.Recorder) {
	t.Helper()
	s := NewScenario(opts)
	var rec *sim.Recorder
	if trace {
		rec = s.Trace()
	}
	tables := workload.CreateTPCHTables(s.FS, 2048)
	for i := 0; i < queries; i++ {
		cfg := spark.DefaultConfig(workload.TPCHQuery(i+1, 2048, tables))
		s.Eng.At(sim.Time(int64(i)*3000+1000), func() { spark.Submit(s.RM, s.FS, cfg) })
	}
	s.Run(sim.Time(1800 * sim.Second))
	return s, rec
}

// oracleOptions returns the options of one simulated oracle matrix cell:
// "pristine" or "faults" (random node crashes).
func oracleOptions(seed uint64, cell string) Options {
	opts := DefaultOptions()
	opts.Seed = seed
	if cell == "faults" {
		opts.Faults = yarn.RandomFaults(seed+1, opts.Cluster.Workers, 120_000, 90_000, 20_000)
	}
	return opts
}

// oracleSink returns the logs of one oracle matrix cell at seed, given
// the seed's pristine logs: the "degraded" cell is not simulated but
// damages them (dropped, truncated, torn, garbage and clock-skewed
// lines), so it shares the pristine cell's simulation.
func oracleSink(t *testing.T, seed uint64, cell string, pristine *log4j.Sink) *log4j.Sink {
	switch cell {
	case "pristine":
		return pristine
	case "degraded":
		return pristine.Damaged(log4j.DegradeConfig{
			DropProb:     0.05,
			TruncateProb: 0.05,
			TearProb:     0.05,
			GarbageProb:  0.05,
			SkewMaxMs:    2000,
			Seed:         seed ^ 0xbeef,
		})
	}
	s, _ := oracleScenario(t, oracleOptions(seed, cell), 3, false)
	return s.Sink
}

// TestDiffOracleMatrix drives the differential harness over a
// seed x fault-model x worker-count matrix: pristine runs (with
// ground-truth span containment), node-crash runs, and degraded-log
// runs. For every cell, parallel mining and parallel streaming must be
// byte-identical to their serial counterparts, and the breakdown
// sketches must match exactly.
func TestDiffOracleMatrix(t *testing.T) {
	oracle := testkit.DiffOracle{Workers: []int{1, 2, 3, 4, 8}}
	for _, seed := range []uint64{11, 23} {
		// The recorder only records, so the traced run's logs are the
		// pristine logs the degraded cell damages.
		s, rec := oracleScenario(t, oracleOptions(seed, "pristine"), 3, true)

		t.Run(fmt.Sprintf("pristine/seed=%d", seed), func(t *testing.T) {
			rep := oracle.Check(t, testkit.OracleInput{
				Name:    fmt.Sprintf("pristine-%d", seed),
				Sink:    s.Sink,
				Truth:   rec,
				EpochMS: s.Opts.ClusterTS,
				RequireSpans: []string{
					sim.SpanAM, sim.SpanAllocation, sim.SpanAcquisition,
					sim.SpanLocalization, sim.SpanLaunching, sim.SpanDriver, sim.SpanExecutor,
				},
			})
			if len(rep.Apps) != 3 {
				t.Fatalf("mined %d apps, want 3", len(rep.Apps))
			}
		})

		for _, cell := range []string{"faults", "degraded"} {
			t.Run(fmt.Sprintf("%s/seed=%d", cell, seed), func(t *testing.T) {
				oracle.Check(t, testkit.OracleInput{
					Name: fmt.Sprintf("%s-%d", cell, seed),
					Sink: oracleSink(t, seed, cell, s.Sink),
				})
			})
		}
	}
}

// TestOfflineEqualsLivePristine pins that the offline checker and the
// live streams render the same report JSON on pristine, faulted and
// degraded logs: a serial Stream, and ShardedStreams at 1, 2 and 4
// workers, each fed the files whole in lexical order, as a restarted
// -serve scan walks them: line by line, and at 2 workers also one
// FeedBlock per file, as the tailer feeds them. Live classifies a
// container from all of its lines, as the offline parser does: a later
// line that changes the instance rewrites the kept FIRST_LOG
// (TestStreamReclassifiesFirstLog).
func TestOfflineEqualsLivePristine(t *testing.T) {
	for _, seed := range []uint64{5, 11, 17, 23, 29} {
		pristine, _ := oracleScenario(t, oracleOptions(seed, "pristine"), 3, false)
		for _, cell := range []string{"pristine", "faults", "degraded"} {
			t.Run(fmt.Sprintf("%s/seed=%d", cell, seed), func(t *testing.T) {
				sink := oracleSink(t, seed, cell, pristine.Sink)
				ck := core.New()
				if err := ck.AddSink(sink); err != nil {
					t.Fatalf("AddSink: %v", err)
				}
				offline, err := ck.Analyze().JSON()
				if err != nil {
					t.Fatalf("offline JSON: %v", err)
				}
				files := sink.Files()
				slices.Sort(files)
				live := func(name string, feed func(source, raw string) bool, rep func() *core.Report) {
					for _, f := range files {
						for _, l := range sink.Lines(f) {
							feed(f, l)
						}
					}
					got, err := rep().JSON()
					if err != nil {
						t.Fatalf("%s JSON: %v", name, err)
					}
					if got != offline {
						t.Errorf("%s report diverges from the offline checker", name)
					}
				}
				st := core.NewStream()
				live("serial stream", st.Feed, st.Report)
				for _, w := range []int{1, 2, 4} {
					ss := core.NewShardedStream(w)
					live(fmt.Sprintf("ShardedStream(workers=%d)", w), ss.Feed, func() *core.Report {
						ss.Quiesce()
						return ss.Report()
					})
					ss.Close()
				}
				// The tailer's bulk feed: each file as one block.
				ss := core.NewShardedStream(2)
				defer ss.Close()
				for _, f := range files {
					ss.FeedBlock(f, strings.Join(sink.Lines(f), "\n")+"\n")
				}
				ss.Quiesce()
				if got, err := ss.Report().JSON(); err != nil || got != offline {
					t.Errorf("ShardedStream(workers=2) FeedBlock report diverges from the offline checker (err %v)", err)
				}
			})
		}
	}
}

// TestBreakdownWorkerCountInvariant is the sketch-merge property test:
// for any worker count, the parallel miner's Report.Breakdown rollups —
// quantiles included — must equal the serial rollups exactly, because
// per-shard digests merge losslessly rather than being re-approximated.
func TestBreakdownWorkerCountInvariant(t *testing.T) {
	for _, seed := range []uint64{5, 17, 29} {
		opts := DefaultOptions()
		opts.Seed = seed
		s, _ := oracleScenario(t, opts, 4, false)
		ref := s.Check().Breakdown()
		refRows, refComps := ref.Rows(), ref.ComponentRows()
		for _, w := range []int{2, 3, 5} {
			rep, err := core.MineSink(s.Sink, w)
			if err != nil {
				t.Fatalf("seed=%d workers=%d: %v", seed, w, err)
			}
			bd := rep.Breakdown()
			rows, comps := bd.Rows(), bd.ComponentRows()
			if len(rows) != len(refRows) {
				t.Fatalf("seed=%d workers=%d: %d rows, serial %d", seed, w, len(rows), len(refRows))
			}
			for i := range refRows {
				if rows[i] != refRows[i] {
					t.Errorf("seed=%d workers=%d: row %d = %+v, serial %+v", seed, w, i, rows[i], refRows[i])
				}
			}
			for i := range refComps {
				if comps[i] != refComps[i] {
					t.Errorf("seed=%d workers=%d: component row %d = %+v, serial %+v", seed, w, i, comps[i], refComps[i])
				}
			}
		}
	}
}

// TestCompletePredicateMatchesDecomposeOracle extends core's
// TestCompletePredicateMatchesDecompose to the oracle matrix cells of
// TestOfflineEqualsLivePristine, fed file by file in lexical order: after
// every line, each app's Complete verdict — the predicate the stream
// evaluated as it absorbed — equals the definition over the app's
// decomposition (Total, AM, Driver and Executor present, no anomalies),
// and the decomposition's own Complete flag.
func TestCompletePredicateMatchesDecomposeOracle(t *testing.T) {
	complete, incomplete := 0, 0
	for _, seed := range []uint64{5, 11, 17, 23, 29} {
		pristine, _ := oracleScenario(t, oracleOptions(seed, "pristine"), 3, false)
		for _, cell := range []string{"pristine", "faults", "degraded"} {
			sink := oracleSink(t, seed, cell, pristine.Sink)
			files := sink.Files()
			slices.Sort(files)
			ss := core.NewShardedStream(1)
			for _, f := range files {
				for n, l := range sink.Lines(f) {
					ss.Feed(f, l)
					ss.Quiesce()
					for _, a := range ss.Apps() {
						d := a.Decomp
						def := d.Total >= 0 && d.AM >= 0 && d.Driver >= 0 && d.Executor >= 0 && len(d.Anomalies) == 0
						if got := ss.Complete(a.ID); got != def || d.Complete != def {
							t.Fatalf("%s/seed=%d %s line %d: app %v: predicate %v, Decompose %v, definition %v", cell, seed, f, n, a.ID, got, d.Complete, def)
						}
						if def {
							complete++
						} else if a.Submitted != 0 && a.Registered != 0 {
							incomplete++
						}
					}
				}
			}
			ss.Close()
		}
	}
	if complete == 0 || incomplete == 0 {
		t.Fatalf("verdicts seen: %d complete, %d incomplete past registration; want both", complete, incomplete)
	}
}
