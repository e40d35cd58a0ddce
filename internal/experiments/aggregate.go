package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/digest"
)

// SweepTable aggregates a parameter sweep (input size, interference
// level, ...) through the mergeable quantile sketches: one
// core.ClusterBreakdown per sweep point, plus a lossless whole-sweep
// merge. This is the shared table machinery behind the Fig 5 / Fig 12
// sweeps and benchall's JSON output.
type SweepTable struct {
	Name   string
	Points []SweepPoint
}

// SweepPoint is one sweep setting's aggregate.
type SweepPoint struct {
	Label     string
	Breakdown *core.ClusterBreakdown
}

// NewSweepTable returns an empty table.
func NewSweepTable(name string) *SweepTable {
	return &SweepTable{Name: name}
}

// Add folds one sweep point's report in and returns its breakdown (so
// row builders can read individual quantiles from the same sketches).
func (t *SweepTable) Add(label string, rep *core.Report) *core.ClusterBreakdown {
	cb := rep.Breakdown()
	t.Points = append(t.Points, SweepPoint{Label: label, Breakdown: cb})
	return cb
}

// Merged losslessly merges every point's sketches — the whole-sweep
// rollup. All breakdowns share the default alpha, so a merge failure is
// a harness bug.
func (t *SweepTable) Merged() *core.ClusterBreakdown {
	out := core.NewClusterBreakdown()
	for _, p := range t.Points {
		if err := out.Merge(p.Breakdown); err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
	}
	return out
}

// SweepRow is one (point, component) percentile summary. The embedded
// BreakdownRow marshals flat, so JSON rows read
// {"label": ..., "component": ..., "p95_ms": ...}.
type SweepRow struct {
	Label string `json:"label"`
	core.BreakdownRow
}

// ComponentAcross returns one row per sweep point for a single
// component, in sweep order — a paper-style "metric vs parameter" series
// computed from the sketches.
func (t *SweepTable) ComponentAcross(component string) []SweepRow {
	out := make([]SweepRow, 0, len(t.Points))
	for _, p := range t.Points {
		s := p.Breakdown.Component(component)
		out = append(out, SweepRow{Label: p.Label, BreakdownRow: core.BreakdownRow{
			Component: component,
			Count:     s.Count(),
			MeanMS:    s.Mean(),
			P50MS:     s.Quantile(0.50),
			P95MS:     s.Quantile(0.95),
			P99MS:     s.Quantile(0.99),
			MaxMS:     s.Max(),
		}})
	}
	return out
}

// Format renders the requested components (default: all observed) as
// text tables across the sweep.
func (t *SweepTable) Format(components ...string) string {
	if len(components) == 0 {
		components = core.Components
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — per-component delay percentiles (sketch alpha %.2g):\n",
		t.Name, digest.DefaultAlpha)
	for _, comp := range components {
		rows := t.ComponentAcross(comp)
		any := false
		for _, r := range rows {
			if r.Count > 0 {
				any = true
			}
		}
		if !any {
			continue
		}
		fmt.Fprintf(&b, "  %s:\n", comp)
		fmt.Fprintf(&b, "    %-10s %7s %9s %9s %9s %9s\n", "point", "count", "p50ms", "p95ms", "p99ms", "maxms")
		for _, r := range rows {
			fmt.Fprintf(&b, "    %-10s %7d %9.0f %9.0f %9.0f %9.0f\n",
				r.Label, r.Count, r.P50MS, r.P95MS, r.P99MS, r.MaxMS)
		}
	}
	return b.String()
}

// sweepJSON is the benchall JSON export shape.
type sweepJSON struct {
	Name   string              `json:"name"`
	Alpha  float64             `json:"alpha"`
	Points []sweepPointJSON    `json:"points"`
	Merged []core.BreakdownRow `json:"merged"`
}

type sweepPointJSON struct {
	Label      string              `json:"label"`
	Components []core.BreakdownRow `json:"components"`
	ByQueue    []core.BreakdownRow `json:"rows,omitempty"`
}

// JSON renders the sweep as indented JSON: per-point component rollups,
// per-point exact (component, queue, node) rows, and the whole-sweep
// merged rollup.
func (t *SweepTable) JSON() ([]byte, error) {
	doc := sweepJSON{Name: t.Name, Alpha: digest.DefaultAlpha}
	for _, p := range t.Points {
		doc.Points = append(doc.Points, sweepPointJSON{
			Label:      p.Label,
			Components: p.Breakdown.ComponentRows(),
			ByQueue:    p.Breakdown.Rows(),
		})
	}
	doc.Merged = t.Merged().ComponentRows()
	return json.MarshalIndent(doc, "", "  ")
}

// Fig5Aggregate assembles the input-size sweep's aggregation table from
// the breakdowns Fig5 computed.
func Fig5Aggregate(rows []Fig5Row) *SweepTable {
	t := NewSweepTable("Fig 5 input-size sweep")
	for _, r := range rows {
		t.Points = append(t.Points, SweepPoint{Label: sizeLabel(r.DatasetMB), Breakdown: r.Breakdown})
	}
	return t
}

// Fig12Aggregate assembles the interference sweep's aggregation table
// from the breakdowns Fig12 computed.
func Fig12Aggregate(rows []Fig12Row) *SweepTable {
	t := NewSweepTable("Fig 12 dfsIO interference sweep")
	for _, r := range rows {
		t.Points = append(t.Points, SweepPoint{Label: fmt.Sprintf("%dmaps", r.InterferenceMaps), Breakdown: r.Breakdown})
	}
	return t
}
