package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/attr"
	"repro/internal/digest"
	"repro/internal/obs"
)

// This file builds the tail-attribution ("explain") report: given a
// component and a target quantile, rank the breakdown cells that put
// mass at or above the fleet-wide target, name each cell's heavy-hitter
// applications and the component's worst nodes, and resolve every
// exemplar back to its mined decomposition, trace deep link, and (in
// serve mode) the flight-recorder slice around its completion. It is
// the drill-down path from "p99 is high" on /aggregate or /slo to the
// concrete applications responsible.

// AppSummary is the minimal per-application record the drill-down layer
// keeps for exemplar-referenced applications: identity, the headline
// decomposition, and the trace sequence number behind /trace/<seq>. It
// is what survives eviction when the full AppTrace is dropped.
type AppSummary struct {
	App         string     `json:"app"`
	Seq         int        `json:"seq"`
	Name        string     `json:"name,omitempty"`
	AppType     string     `json:"type,omitempty"`
	Queue       string     `json:"queue,omitempty"`
	SubmittedMS int64      `json:"submitted_ms"`
	Decomp      jsonDecomp `json:"decomposition"`
}

// jsonDecomp is the headline decomposition as AppSummary exports it,
// with the keys of the JSON export's "decomposition" object.
type jsonDecomp struct {
	Total    int64 `json:"total_ms"`
	AM       int64 `json:"am_ms"`
	In       int64 `json:"in_ms"`
	Out      int64 `json:"out_ms"`
	Driver   int64 `json:"driver_ms"`
	Executor int64 `json:"executor_ms"`
	Alloc    int64 `json:"alloc_ms"`
	Cf       int64 `json:"cf_ms"`
	Cl       int64 `json:"cl_ms"`
	Job      int64 `json:"job_ms"`
	// Complete is false when headline observations are missing or
	// anomalies were found; the decomposition is then partial.
	Complete  bool     `json:"complete"`
	Anomalies []string `json:"anomalies,omitempty"`
}

// SummarizeApp captures an application's pinned summary (nil decomp
// yields zero-valued headline fields marked incomplete).
func SummarizeApp(a *AppTrace) *AppSummary {
	s := &AppSummary{
		App: a.ID.String(), Seq: a.ID.Seq,
		Name: a.Name, AppType: a.AppType, Queue: a.Queue,
		SubmittedMS: a.Submitted,
	}
	if d := a.Decomp; d != nil {
		s.Decomp = jsonDecomp{
			Total: d.Total, AM: d.AM, In: d.In, Out: d.Out,
			Driver: d.Driver, Executor: d.Executor, Alloc: d.Alloc,
			Cf: d.Cf, Cl: d.Cl, Job: d.JobRuntime,
			Complete: d.Complete, Anomalies: d.Anomalies,
		}
	}
	return s
}

// ExplainExemplar is one resolved exemplar: the raw reservoir entry
// plus its drill-down context. Flight is the flight-recorder slice
// around the application's completion hook (serve mode only).
type ExplainExemplar struct {
	digest.Exemplar
	TracePath string      `json:"trace,omitempty"`
	Evicted   bool        `json:"evicted,omitempty"`
	Summary   *AppSummary `json:"summary,omitempty"`
	Flight    []obs.Event `json:"flight,omitempty"`
}

// ExplainCell is one breakdown cell's contribution to the component's
// tail, with its heavy hitters and resolved exemplars.
type ExplainCell struct {
	Queue     string            `json:"queue,omitempty"`
	Node      string            `json:"node,omitempty"`
	Instance  string            `json:"instance,omitempty"`
	Count     uint64            `json:"count"`
	QMS       float64           `json:"q_ms"`
	MaxMS     float64           `json:"max_ms"`
	TailCount uint64            `json:"tail_count"`
	TailShare float64           `json:"tail_share"`
	TopApps   []attr.Entry      `json:"top_apps,omitempty"`
	Exemplars []ExplainExemplar `json:"exemplars,omitempty"`
}

// ExplainDoc is the ranked attribution report behind /explain and
// `sdchecker -explain`.
type ExplainDoc struct {
	Component  string        `json:"component"`
	Q          float64       `json:"q"`
	TargetMS   float64       `json:"target_ms"`
	Count      uint64        `json:"count"`
	TailCount  uint64        `json:"tail_count"`
	Alpha      float64       `json:"alpha"`
	CellsTotal int           `json:"cells_total"`
	Cells      []ExplainCell `json:"cells"`
	WorstNodes []attr.Entry  `json:"worst_nodes,omitempty"`
}

// DefaultExplainCells bounds how many cells an explain report lists.
const DefaultExplainCells = 10

// explainTopApps bounds the heavy hitters listed per cell and the worst
// nodes listed per report (the underlying summaries hold more; see
// attr.DefaultTopK).
const explainTopApps = 8

// Explain builds the attribution report for one component at quantile q
// (clamped into (0,1]; out-of-range defaults to 0.99). Cells are ranked
// by how many of their observations sit at or above the fleet-wide
// target quantile value — the cells that own the tail — with ties
// broken by cell coordinates; maxCells <= 0 uses DefaultExplainCells.
// enrich, when non-nil, resolves an exemplar's app ID to its pinned or
// live summary and whether the full trace has been evicted.
func (cb *ClusterBreakdown) Explain(component string, q float64, maxCells int, enrich func(app string) (*AppSummary, bool)) *ExplainDoc {
	if !(q > 0 && q <= 1) {
		q = 0.99
	}
	if maxCells <= 0 {
		maxCells = DefaultExplainCells
	}
	fleet := cb.Component(component)
	doc := &ExplainDoc{
		Component: component, Q: q,
		TargetMS: fleet.Quantile(q),
		Count:    fleet.Count(),
		Alpha:    digest.DefaultAlpha,
	}
	doc.TailCount = fleet.CountAbove(doc.TargetMS)

	type cell struct {
		key BreakdownKey
		sk  *digest.Sketch
	}
	var cells []cell
	for k, s := range cb.Sketches {
		if k.Component == component {
			cells = append(cells, cell{k, s})
		}
	}
	doc.CellsTotal = len(cells)
	sort.Slice(cells, func(i, j int) bool {
		ti := cells[i].sk.CountAbove(doc.TargetMS)
		tj := cells[j].sk.CountAbove(doc.TargetMS)
		if ti != tj {
			return ti > tj
		}
		a, b := cells[i].key, cells[j].key
		if a.Queue != b.Queue {
			return a.Queue < b.Queue
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Instance < b.Instance
	})
	if len(cells) > maxCells {
		cells = cells[:maxCells]
	}
	for _, c := range cells {
		ec := ExplainCell{
			Queue: c.key.Queue, Node: c.key.Node, Instance: string(c.key.Instance),
			Count:     c.sk.Count(),
			QMS:       c.sk.Quantile(q),
			MaxMS:     c.sk.Max(),
			TailCount: c.sk.CountAbove(doc.TargetMS),
		}
		if doc.TailCount > 0 {
			ec.TailShare = float64(ec.TailCount) / float64(doc.TailCount)
		}
		if tk := cb.Apps[c.key]; tk != nil {
			ec.TopApps = tk.Top(explainTopApps)
		}
		for _, e := range c.sk.Exemplars() {
			ee := ExplainExemplar{Exemplar: e}
			if enrich != nil {
				if sum, evicted := enrich(e.App); sum != nil {
					ee.Summary = sum
					ee.Evicted = evicted
					ee.TracePath = fmt.Sprintf("/trace/%d", sum.Seq)
				}
			}
			ec.Exemplars = append(ec.Exemplars, ee)
		}
		doc.Cells = append(doc.Cells, ec)
	}
	if tk := cb.Nodes[component]; tk != nil {
		doc.WorstNodes = tk.Top(explainTopApps)
	}
	return doc
}

// JSON renders the report as indented JSON (the /explain wire format
// and the golden-test format).
func (d *ExplainDoc) JSON() (string, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", fmt.Errorf("core: %w", err)
	}
	return string(b), nil
}

// Format renders the report as the CLI's human-readable table.
func (d *ExplainDoc) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "explain %s p%g: target %.0fms over %d observations (%d in tail, %d cells)\n",
		d.Component, d.Q*100, d.TargetMS, d.Count, d.TailCount, d.CellsTotal)
	if len(d.WorstNodes) > 0 {
		b.WriteString("worst nodes: ")
		for i, n := range d.WorstNodes {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s (%.0fms)", n.Key, n.SumMS)
		}
		b.WriteByte('\n')
	}
	for i, c := range d.Cells {
		fmt.Fprintf(&b, "#%d queue=%q node=%q instance=%q: %d obs, p%g %.0fms, max %.0fms, tail %d (%.0f%%)\n",
			i+1, c.Queue, c.Node, c.Instance, c.Count, d.Q*100, c.QMS, c.MaxMS, c.TailCount, c.TailShare*100)
		for _, a := range c.TopApps {
			fmt.Fprintf(&b, "   app %s contributed %.0fms", a.Key, a.SumMS)
			if a.ErrMS > 0 {
				fmt.Fprintf(&b, " (±%.0fms)", a.ErrMS)
			}
			b.WriteByte('\n')
		}
		for _, e := range c.Exemplars {
			fmt.Fprintf(&b, "   exemplar %s %.0fms at %d", e.App, e.ValueMS, e.AtMS)
			if e.TracePath != "" {
				fmt.Fprintf(&b, " trace %s", e.TracePath)
			}
			if e.Evicted {
				b.WriteString(" (evicted; pinned summary)")
			}
			if s := e.Summary; s != nil {
				fmt.Fprintf(&b, "\n      total %dms am %dms driver %dms executor %dms alloc %dms complete=%v",
					s.Decomp.Total, s.Decomp.AM, s.Decomp.Driver, s.Decomp.Executor, s.Decomp.Alloc, s.Decomp.Complete)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// ExemplarApps returns the set of application IDs referenced by any
// exemplar reservoir in the breakdown — the apps whose summaries the
// drill-down layer must keep resolvable (e.g. pinned across eviction).
func (cb *ClusterBreakdown) ExemplarApps() map[string]bool {
	out := make(map[string]bool)
	for _, s := range cb.Sketches {
		for i := range s.NumExemplars() {
			out[s.ExemplarAt(i).App] = true
		}
	}
	return out
}

// AttrStats reports the attribution layer's current footprint: held
// exemplars across all cell reservoirs and heavy-hitter entries across
// all top-k summaries (both bounded by construction).
func (cb *ClusterBreakdown) AttrStats() (exemplars, topkEntries int) {
	for _, s := range cb.Sketches {
		exemplars += s.NumExemplars()
	}
	for _, tk := range cb.Apps {
		topkEntries += tk.Len()
	}
	for _, tk := range cb.Nodes {
		topkEntries += tk.Len()
	}
	return exemplars, topkEntries
}

// attributionCell is one cell's full attribution state in the canonical
// dump (see AttributionJSON).
type attributionCell struct {
	Component string            `json:"component"`
	Queue     string            `json:"queue,omitempty"`
	Node      string            `json:"node,omitempty"`
	Instance  string            `json:"instance,omitempty"`
	Count     uint64            `json:"count"`
	Exemplars []digest.Exemplar `json:"exemplars,omitempty"`
	TopApps   []attr.Entry      `json:"top_apps,omitempty"`
}

type attributionDoc struct {
	Cells []attributionCell       `json:"cells"`
	Nodes map[string][]attr.Entry `json:"nodes,omitempty"`
}

// AttributionJSON renders the complete attribution state — every cell's
// exemplar reservoir and heavy hitters, every component's worst nodes —
// in a canonical deterministic order. The differential oracle
// byte-compares it between serial and sharded runs at every worker
// count.
func (cb *ClusterBreakdown) AttributionJSON() (string, error) {
	compOrder := make(map[string]int, len(Components))
	for i, c := range Components {
		compOrder[c] = i
	}
	doc := attributionDoc{}
	for k, s := range cb.Sketches {
		c := attributionCell{
			Component: k.Component, Queue: k.Queue, Node: k.Node, Instance: string(k.Instance),
			Count:     s.Count(),
			Exemplars: s.Exemplars(),
		}
		if tk := cb.Apps[k]; tk != nil {
			c.TopApps = tk.Entries()
		}
		doc.Cells = append(doc.Cells, c)
	}
	sort.Slice(doc.Cells, func(i, j int) bool {
		a, b := doc.Cells[i], doc.Cells[j]
		if ca, cb2 := compOrder[a.Component], compOrder[b.Component]; ca != cb2 {
			return ca < cb2
		}
		if a.Queue != b.Queue {
			return a.Queue < b.Queue
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Instance < b.Instance
	})
	if len(cb.Nodes) > 0 {
		doc.Nodes = make(map[string][]attr.Entry, len(cb.Nodes))
		for c, tk := range cb.Nodes {
			doc.Nodes[c] = tk.Entries()
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", fmt.Errorf("core: %w", err)
	}
	return string(b), nil
}
