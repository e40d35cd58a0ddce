package experiments

import (
	"fmt"
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

// TestDiffOracleMatrix drives the differential harness over a
// seed x fault-model x worker-count matrix: pristine runs (with
// ground-truth span containment), node-crash runs, and degraded-log
// runs. For every cell, parallel mining and parallel streaming must be
// byte-identical to their serial counterparts, and the merged breakdown
// sketches must match exactly.
func TestDiffOracleMatrix(t *testing.T) {
	oracle := testkit.DiffOracle{Workers: []int{1, 2, 3, 4, 8}}
	for _, seed := range []uint64{11, 23} {
		seed := seed

		t.Run(fmt.Sprintf("pristine/seed=%d", seed), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Seed = seed
			s, rec := oracleScenario(t, opts, 3, true)
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

		t.Run(fmt.Sprintf("faults/seed=%d", seed), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Seed = seed
			opts.Faults = yarn.RandomFaults(seed+1, opts.Cluster.Workers, 120_000, 90_000, 20_000)
			s, _ := oracleScenario(t, opts, 3, false)
			oracle.Check(t, testkit.OracleInput{
				Name: fmt.Sprintf("faults-%d", seed),
				Sink: s.Sink,
			})
		})

		t.Run(fmt.Sprintf("degraded/seed=%d", seed), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Seed = seed
			opts.LogDegrade = log4j.DegradeConfig{
				DropProb:     0.05,
				TruncateProb: 0.05,
				TearProb:     0.05,
				GarbageProb:  0.05,
				SkewMaxMs:    2000,
				Seed:         seed ^ 0xbeef,
			}
			s, _ := oracleScenario(t, opts, 3, false)
			oracle.Check(t, testkit.OracleInput{
				Name: fmt.Sprintf("degraded-%d", seed),
				Sink: s.Sink,
			})
		})
	}
}

// TestOfflineEqualsLivePristine pins that, on pristine logs, the offline
// checker and a serial stream fed the same files in order render the
// same report JSON. Faulted and degraded logs can diverge: the offline
// parser classifies a container's instance (and so its FIRST_LOG kind)
// from all of the container's lines, the stream from its first line only.
func TestOfflineEqualsLivePristine(t *testing.T) {
	for _, seed := range []uint64{11, 23} {
		opts := DefaultOptions()
		opts.Seed = seed
		s, _ := oracleScenario(t, opts, 3, false)
		ck := core.New()
		if err := ck.AddSink(s.Sink); err != nil {
			t.Fatalf("seed=%d: AddSink: %v", seed, err)
		}
		offline, err := ck.Analyze().JSON()
		if err != nil {
			t.Fatalf("seed=%d: offline JSON: %v", seed, err)
		}
		st := core.NewStream()
		for _, f := range s.Sink.Files() {
			for _, l := range s.Sink.Lines(f) {
				st.Feed(f, l)
			}
		}
		live, err := st.Report().JSON()
		if err != nil {
			t.Fatalf("seed=%d: live JSON: %v", seed, err)
		}
		if offline != live {
			t.Errorf("seed=%d: live stream report diverges from the offline checker", seed)
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
