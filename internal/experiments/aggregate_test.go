package experiments

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/digest"
)

// exactQuantile is the same nearest-rank definition digest.Sketch uses
// (1-based rank ceil(p*n)), computed exactly on the raw samples.
func exactQuantile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestSweepShardMergeParity is the acceptance check for the mergeable
// aggregation path: splitting one run's applications across shards,
// sketching each shard independently and merging reproduces the
// whole-run breakdown exactly, and the merged percentiles match the
// exact sample percentiles within the sketch's documented relative
// error bound (alpha).
func TestSweepShardMergeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("trace run")
	}
	tr := DefaultTraceRun(40)
	tr.Seed = 17
	_, rep := tr.Run()
	if len(rep.Apps) < 8 {
		t.Fatalf("trace produced only %d apps", len(rep.Apps))
	}

	whole := rep.Breakdown()

	// Shard the applications four ways and sketch each shard on its own,
	// as independent collector processes would.
	const shards = 4
	table := NewSweepTable("shard parity")
	for s := 0; s < shards; s++ {
		cb := core.NewClusterBreakdown()
		for i, a := range rep.Apps {
			if i%shards == s {
				cb.Observe(a)
			}
		}
		table.Points = append(table.Points, SweepPoint{Label: "shard", Breakdown: cb})
	}
	merged := table.Merged()

	// Merging is exact: every key, count and quantile of the merged
	// breakdown must equal the whole-run breakdown bit for bit.
	wholeRows, mergedRows := whole.Rows(), merged.Rows()
	if len(wholeRows) != len(mergedRows) {
		t.Fatalf("row count: whole %d, merged %d", len(wholeRows), len(mergedRows))
	}
	for i := range wholeRows {
		if wholeRows[i] != mergedRows[i] {
			t.Errorf("row %d differs:\n whole  %+v\n merged %+v", i, wholeRows[i], mergedRows[i])
		}
	}

	// And the merged sketch's percentiles must sit within alpha of the
	// exact sample percentiles for every component with data.
	alpha := digest.DefaultAlpha
	for _, comp := range core.Components {
		var samples []float64
		for _, a := range rep.Apps {
			for _, o := range core.Observations(a) {
				if o.Component == comp {
					samples = append(samples, float64(o.MS))
				}
			}
		}
		if len(samples) == 0 {
			continue
		}
		sort.Float64s(samples)
		sk := merged.Component(comp)
		if got, want := sk.Count(), uint64(len(samples)); got != want {
			t.Fatalf("%s: sketch count %d, samples %d", comp, got, want)
		}
		for _, p := range []float64{0.50, 0.95, 0.99} {
			got := sk.Quantile(p)
			want := exactQuantile(samples, p)
			if want == 0 {
				if got != 0 {
					t.Errorf("%s p%.0f: got %.3f, want exactly 0", comp, p*100, got)
				}
				continue
			}
			if rel := math.Abs(got-want) / want; rel > alpha+1e-9 {
				t.Errorf("%s p%.0f: sketch %.3f vs exact %.3f (rel err %.4f > alpha %.3f)",
					comp, p*100, got, want, rel, alpha)
			}
		}
	}
}

func TestSweepTableFormatAndJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("trace run")
	}
	tr := DefaultTraceRun(12)
	tr.Seed = 23
	_, rep := tr.Run()

	table := NewSweepTable("unit sweep")
	table.Add("a", rep)
	table.Add("b", rep)

	rows := table.ComponentAcross("total")
	if len(rows) != 2 {
		t.Fatalf("ComponentAcross: %d rows, want 2", len(rows))
	}
	if rows[0].Label != "a" || rows[1].Label != "b" {
		t.Errorf("labels %q, %q", rows[0].Label, rows[1].Label)
	}
	if rows[0].Count == 0 || rows[0].Count != rows[1].Count {
		t.Errorf("counts %d, %d — same report must yield same count", rows[0].Count, rows[1].Count)
	}

	out := table.Format("total", "localization")
	for _, want := range []string{"unit sweep", "total:", "localization:", "p95ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}

	b, err := table.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	for _, want := range []string{`"alpha"`, `"merged"`, `"label": "a"`, `"component": "total"`, `"p99_ms"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("JSON output missing %q", want)
		}
	}

	// The merged rollup of two copies of the same report doubles counts.
	mc := table.Merged().Component("total").Count()
	wc := rep.Breakdown().Component("total").Count()
	if mc != 2*wc {
		t.Errorf("merged total count %d, want %d", mc, 2*wc)
	}
}

func TestFigAggregateBuilders(t *testing.T) {
	if testing.Short() {
		t.Skip("trace run")
	}
	f5 := Fig5(8) // tiny sweep, still covers all sizes
	t5 := Fig5Aggregate(f5)
	if len(t5.Points) != len(f5) {
		t.Fatalf("Fig5Aggregate: %d points, want %d", len(t5.Points), len(f5))
	}
	for i, r := range f5 {
		if r.Breakdown == nil {
			t.Fatalf("Fig5 row %d has nil Breakdown", i)
		}
		if got := t5.Points[i].Label; got != sizeLabel(r.DatasetMB) {
			t.Errorf("point %d label %q", i, got)
		}
		// The figure's headline number must come from the sketch.
		if want := msToSec(r.Breakdown.Component("total").Quantile(0.95)); r.TotalP95Sec != want {
			t.Errorf("row %d TotalP95Sec %.3f, sketch says %.3f", i, r.TotalP95Sec, want)
		}
	}
	if out := t5.Format("total"); !strings.Contains(out, "total:") {
		t.Errorf("Fig5 aggregate format missing total table:\n%s", out)
	}
}
