package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/digest"
)

// plantObservations fills a breakdown with a crowd of fast applications
// in queue "etl" and one massive outlier in queue "adhoc": the tail of
// the fleet-wide total distribution belongs entirely to the outlier.
func plantObservations(cb *ClusterBreakdown) (outlier string) {
	outlier = "application_1499000000000_0099"
	for i := 0; i < 40; i++ {
		cb.Add(Observation{
			Component: "total", Queue: "etl", Node: fmt.Sprintf("node-%d", i%4),
			MS: int64(100 + i), App: fmt.Sprintf("application_1499000000000_%04d", i),
			AtMS: 1_499_000_000_000 + int64(i)*1000,
		})
	}
	cb.Add(Observation{
		Component: "total", Queue: "adhoc", Node: "node-1",
		MS: 90_000, App: outlier, AtMS: 1_499_000_100_000,
	})
	return outlier
}

// TestExplainRanksPlantedOutlier plants one known-worst application and
// checks the full drill-down chain: its cell ranks first, it leads the
// cell's heavy hitters, it is the top exemplar, and enrichment resolves
// it to a summary with a trace deep link.
func TestExplainRanksPlantedOutlier(t *testing.T) {
	cb := NewClusterBreakdown()
	outlier := plantObservations(cb)

	enriched := 0
	doc := cb.Explain("total", 0.99, 0, func(app string) (*AppSummary, bool) {
		enriched++
		if app != outlier {
			return nil, false
		}
		return &AppSummary{App: app, Seq: 99}, true
	})
	if doc.Component != "total" || doc.Count != 41 || doc.TailCount == 0 {
		t.Fatalf("doc header %+v", doc)
	}
	if len(doc.Cells) == 0 {
		t.Fatal("no cells")
	}
	top := doc.Cells[0]
	if top.Queue != "adhoc" || top.Node != "node-1" {
		t.Fatalf("top cell is %q/%q, want the outlier's adhoc/node-1", top.Queue, top.Node)
	}
	if top.TailShare <= 0 || top.TailShare > 1 {
		t.Errorf("tail share %v out of range", top.TailShare)
	}
	if len(top.TopApps) == 0 || top.TopApps[0].Key != outlier {
		t.Errorf("heavy hitters %+v do not lead with the outlier", top.TopApps)
	}
	if len(top.Exemplars) == 0 {
		t.Fatal("no exemplars in the top cell")
	}
	ex := top.Exemplars[0]
	if ex.App != outlier || ex.ValueMS != 90_000 {
		t.Errorf("top exemplar %+v, want the planted outlier at 90000ms", ex.Exemplar)
	}
	if ex.Summary == nil || !ex.Evicted || ex.TracePath != "/trace/99" {
		t.Errorf("enrichment did not resolve: %+v", ex)
	}
	if enriched == 0 {
		t.Error("enrich callback never invoked")
	}

	// The human rendering names the offender too.
	text := doc.Format()
	if !strings.Contains(text, outlier) || !strings.Contains(text, "/trace/99") {
		t.Errorf("Format() does not name the outlier:\n%s", text)
	}
	if _, err := doc.JSON(); err != nil {
		t.Fatalf("JSON: %v", err)
	}
}

// TestExplainBoundsAndClamp: out-of-range q falls back to 0.99, the cell
// list is truncated to maxCells while CellsTotal keeps the real count.
func TestExplainBoundsAndClamp(t *testing.T) {
	cb := NewClusterBreakdown()
	plantObservations(cb)
	doc := cb.Explain("total", -3, 2, nil)
	if doc.Q != 0.99 {
		t.Errorf("q = %v, want clamp to 0.99", doc.Q)
	}
	if len(doc.Cells) > 2 {
		t.Errorf("%d cells, want <= 2", len(doc.Cells))
	}
	if doc.CellsTotal <= 2 {
		t.Errorf("CellsTotal = %d, should count all cells pre-truncation", doc.CellsTotal)
	}
	// Unknown component: an empty, well-formed report, not a panic.
	empty := cb.Explain("nope", 0.99, 0, nil)
	if empty.Count != 0 || len(empty.Cells) != 0 {
		t.Errorf("unknown component yielded data: %+v", empty)
	}
}

// TestExemplarAppsAndAttrStats: the referenced-app set names the planted
// apps and the footprint counters are non-zero and bounded.
func TestExemplarAppsAndAttrStats(t *testing.T) {
	cb := NewClusterBreakdown()
	outlier := plantObservations(cb)
	apps := cb.ExemplarApps()
	if !apps[outlier] {
		t.Errorf("ExemplarApps missing the outlier: %v", apps)
	}
	ex, tk := cb.AttrStats()
	if ex == 0 || tk == 0 {
		t.Errorf("AttrStats = (%d, %d), want both non-zero", ex, tk)
	}
	maxEx := len(cb.Sketches) * digest.MaxExemplars
	if ex > maxEx {
		t.Errorf("%d exemplars exceeds the %d bound", ex, maxEx)
	}
}

// TestAttributionJSONCanonical: identical observation multisets fed in
// different orders render identical attribution bytes — the property the
// differential oracle byte-compares across worker counts.
func TestAttributionJSONCanonical(t *testing.T) {
	a, b := NewClusterBreakdown(), NewClusterBreakdown()
	plantObservations(a)
	// Same multiset, reversed feed order.
	var obs []Observation
	for i := 39; i >= 0; i-- {
		obs = append(obs, Observation{
			Component: "total", Queue: "etl", Node: fmt.Sprintf("node-%d", i%4),
			MS: int64(100 + i), App: fmt.Sprintf("application_1499000000000_%04d", i),
			AtMS: 1_499_000_000_000 + int64(i)*1000,
		})
	}
	b.Add(Observation{
		Component: "total", Queue: "adhoc", Node: "node-1",
		MS: 90_000, App: "application_1499000000000_0099", AtMS: 1_499_000_100_000,
	})
	for _, o := range obs {
		b.Add(o)
	}
	aj, err := a.AttributionJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.AttributionJSON()
	if err != nil {
		t.Fatal(err)
	}
	if aj != bj {
		t.Error("attribution JSON depends on feed order")
	}
	if !strings.Contains(aj, "application_1499000000000_0099") {
		t.Error("attribution dump does not name the outlier")
	}
}

// TestBreakdownMergeCarriesAttribution: merging two breakdowns (the
// sharded-stream path) must merge reservoirs and heavy hitters, not just
// sketches.
func TestBreakdownMergeCarriesAttribution(t *testing.T) {
	a, b := NewClusterBreakdown(), NewClusterBreakdown()
	outlier := plantObservations(b)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !a.ExemplarApps()[outlier] {
		t.Error("merge dropped the outlier exemplar")
	}
	aj, _ := a.AttributionJSON()
	bj, _ := b.AttributionJSON()
	if aj != bj {
		t.Error("merge into empty breakdown is not identity for attribution state")
	}
}
