package core

import (
	"fmt"
	"sort"

	"repro/internal/attr"
	"repro/internal/digest"
)

// This file is the cluster-level aggregation layer: it turns
// per-application decompositions into delay observations keyed by
// (component, queue, node, instance type) and folds them into mergeable
// quantile sketches (internal/digest), so percentile tables for a whole
// fleet — or for one queue or one node — come out of the same structure,
// and sketches from sharded runs combine exactly.

// Components lists every delay component the aggregation layer reports,
// in display order. App-level components come first, per-container ones
// after.
var Components = []string{
	"total", "am", "driver", "executor", "alloc",
	"acquisition", "localization", "launching", "queueing",
}

// Observation is one delay measurement bound to its cluster coordinates.
// Queue comes from the application's submission summary; Node and
// Instance are set on components with per-container (or AM-host)
// attribution and empty otherwise. App and AtMS carry drill-down
// identity — the application the delay belongs to and its event time
// (completion in cluster time) — consumed by the attribution layer;
// observations with an empty App aggregate without attribution.
type Observation struct {
	Component string
	Queue     string
	Node      string
	Instance  InstanceType
	MS        int64
	App       string
	AtMS      int64
}

// Observations extracts every observed delay component of one decomposed
// application. Missing components are skipped; a nil decomposition
// yields nil. Components measured on the AM host (am, driver, alloc)
// carry the AM container's node binding.
func Observations(a *AppTrace) []Observation {
	d := a.Decomp
	if d == nil {
		return nil
	}
	var amNode string
	var amInst InstanceType
	if am := a.AMContainer(); am != nil {
		amNode = am.Node
		amInst = am.Instance
	}
	// Event time for every component of this app: completion in cluster
	// time, matching the SLO engine's clock.
	appID := a.ID.String()
	atMS := a.Submitted
	if d.Total >= 0 {
		atMS += d.Total
	}
	out := make([]Observation, 0, 8+len(d.Acquisitions)+len(d.Localizations)+len(d.Launchings)+len(d.Queueings))
	app := func(component string, ms int64, node string, inst InstanceType) {
		if ms >= 0 {
			out = append(out, Observation{Component: component, Queue: a.Queue, Node: node, Instance: inst, MS: ms, App: appID, AtMS: atMS})
		}
	}
	app("total", d.Total, "", "")
	app("am", d.AM, amNode, amInst)
	app("driver", d.Driver, amNode, amInst)
	app("executor", d.Executor, "", "")
	app("alloc", d.Alloc, amNode, amInst)
	perCont := func(component string, cds []ContainerDelay) {
		for _, cd := range cds {
			out = append(out, Observation{Component: component, Queue: a.Queue, Node: cd.Node, Instance: cd.Instance, MS: cd.MS, App: appID, AtMS: atMS})
		}
	}
	perCont("acquisition", d.Acquisitions)
	perCont("localization", d.Localizations)
	perCont("launching", d.Launchings)
	perCont("queueing", d.Queueings)
	return out
}

// BreakdownKey addresses one sketch of a ClusterBreakdown.
type BreakdownKey struct {
	Component string
	Queue     string
	Node      string
	Instance  InstanceType
}

// BreakdownRow is one key's percentile summary, the /aggregate and HTML
// table row format.
type BreakdownRow struct {
	Component string  `json:"component"`
	Queue     string  `json:"queue,omitempty"`
	Node      string  `json:"node,omitempty"`
	Instance  string  `json:"instance,omitempty"`
	Count     uint64  `json:"count"`
	MeanMS    float64 `json:"mean_ms"`
	P50MS     float64 `json:"p50_ms"`
	P95MS     float64 `json:"p95_ms"`
	P99MS     float64 `json:"p99_ms"`
	MaxMS     float64 `json:"max_ms"`
}

// ClusterBreakdown holds one quantile sketch per observed
// (component, queue, node, instance) combination. Rollups — one
// component across the fleet, one component per queue, per node — are
// computed by merging the exact-key sketches, which is lossless
// (digest.Merge is exact), so every view shares the same error bound.
// Every sketch is at digest.DefaultAlpha. For drill-down, each cell
// sketch keeps an exemplar reservoir, and the heavy-hitter summaries
// name the worst apps per exact key and the worst nodes per component;
// like the sketches they decorate, all of it is bounded and mergeable.
type ClusterBreakdown struct {
	Sketches map[BreakdownKey]*digest.Sketch
	Apps     map[BreakdownKey]*attr.TopK // worst apps per (component, queue, node, instance)
	Nodes    map[string]*attr.TopK       // worst nodes per component
}

// NewClusterBreakdown returns an empty breakdown.
func NewClusterBreakdown() *ClusterBreakdown {
	return &ClusterBreakdown{
		Sketches: make(map[BreakdownKey]*digest.Sketch),
		Apps:     make(map[BreakdownKey]*attr.TopK),
		Nodes:    make(map[string]*attr.TopK),
	}
}

// Observe folds one application's observations in.
func (cb *ClusterBreakdown) Observe(a *AppTrace) {
	for _, o := range Observations(a) {
		cb.Add(o)
	}
}

// Add folds one observation in.
func (cb *ClusterBreakdown) Add(o Observation) {
	k := BreakdownKey{Component: o.Component, Queue: o.Queue, Node: o.Node, Instance: o.Instance}
	s := cb.Sketches[k]
	if s == nil {
		s = digest.New(digest.DefaultAlpha)
		cb.Sketches[k] = s
	}
	ms := float64(o.MS)
	if o.App == "" {
		s.Add(ms)
		return
	}
	s.AddExemplar(ms, o.App, o.AtMS)
	tk := cb.Apps[k]
	if tk == nil {
		tk = attr.NewTopK(attr.DefaultTopK)
		cb.Apps[k] = tk
	}
	tk.Offer(o.App, ms)
	if o.Node != "" {
		nk := cb.Nodes[o.Component]
		if nk == nil {
			nk = attr.NewTopK(attr.DefaultTopK)
			cb.Nodes[o.Component] = nk
		}
		nk.Offer(o.Node, ms)
	}
}

// Merge folds another breakdown (e.g. one shard's) into cb. Attribution
// state merges alongside the sketches.
func (cb *ClusterBreakdown) Merge(other *ClusterBreakdown) error {
	for k, s := range other.Sketches {
		dst := cb.Sketches[k]
		if dst == nil {
			dst = digest.New(digest.DefaultAlpha)
			cb.Sketches[k] = dst
		}
		if err := dst.Merge(s); err != nil {
			return fmt.Errorf("core: breakdown key %+v: %w", k, err)
		}
	}
	for k, tk := range other.Apps {
		dst := cb.Apps[k]
		if dst == nil {
			dst = attr.NewTopK(attr.DefaultTopK)
			cb.Apps[k] = dst
		}
		dst.Merge(tk)
	}
	for c, tk := range other.Nodes {
		dst := cb.Nodes[c]
		if dst == nil {
			dst = attr.NewTopK(attr.DefaultTopK)
			cb.Nodes[c] = dst
		}
		dst.Merge(tk)
	}
	return nil
}

// Component returns the fleet-wide rollup sketch for one component
// (empty sketch when unobserved).
func (cb *ClusterBreakdown) Component(component string) *digest.Sketch {
	out := digest.New(digest.DefaultAlpha)
	for k, s := range cb.Sketches {
		if k.Component == component {
			out.Merge(s) // same alpha by construction
		}
	}
	return out
}

// GroupBy rolls one component up by an arbitrary key dimension (queue,
// node, instance). Keys mapping to "" are grouped under "" too, so
// callers can drop or label them.
func (cb *ClusterBreakdown) GroupBy(component string, dim func(BreakdownKey) string) map[string]*digest.Sketch {
	out := make(map[string]*digest.Sketch)
	for k, s := range cb.Sketches {
		if k.Component != component {
			continue
		}
		g := dim(k)
		dst := out[g]
		if dst == nil {
			dst = digest.New(digest.DefaultAlpha)
			out[g] = dst
		}
		dst.Merge(s)
	}
	return out
}

// ByQueue rolls one component up per queue.
func (cb *ClusterBreakdown) ByQueue(component string) map[string]*digest.Sketch {
	return cb.GroupBy(component, func(k BreakdownKey) string { return k.Queue })
}

// ByNode rolls one component up per node.
func (cb *ClusterBreakdown) ByNode(component string) map[string]*digest.Sketch {
	return cb.GroupBy(component, func(k BreakdownKey) string { return k.Node })
}

// Worst returns the group with the highest p99 among groups with at
// least minCount observations — the "worst node" / "worst queue"
// callout. Empty-name groups (unattributed observations) are skipped.
func Worst(groups map[string]*digest.Sketch, minCount uint64) (name string, p99 float64, ok bool) {
	for g, s := range groups {
		if g == "" || s.Count() < minCount {
			continue
		}
		q := s.Quantile(0.99)
		// Break p99 ties lexicographically so the callout is stable
		// across map iteration order.
		if !ok || q > p99 || (q == p99 && g < name) {
			name, p99, ok = g, q, true
		}
	}
	return name, p99, ok
}

func row(component, queue, node string, inst InstanceType, s *digest.Sketch) BreakdownRow {
	return BreakdownRow{
		Component: component, Queue: queue, Node: node, Instance: string(inst),
		Count:  s.Count(),
		MeanMS: s.Mean(),
		P50MS:  s.Quantile(0.50),
		P95MS:  s.Quantile(0.95),
		P99MS:  s.Quantile(0.99),
		MaxMS:  s.Max(),
	}
}

// Rows renders every exact key as a summary row, sorted by component
// display order, then queue, node, instance.
func (cb *ClusterBreakdown) Rows() []BreakdownRow {
	compOrder := make(map[string]int, len(Components))
	for i, c := range Components {
		compOrder[c] = i
	}
	out := make([]BreakdownRow, 0, len(cb.Sketches))
	for k, s := range cb.Sketches {
		out = append(out, row(k.Component, k.Queue, k.Node, k.Instance, s))
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
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
	return out
}

// ComponentRows renders the fleet-wide rollup, one row per component in
// display order, skipping unobserved components.
func (cb *ClusterBreakdown) ComponentRows() []BreakdownRow {
	out := make([]BreakdownRow, 0, len(Components))
	for _, c := range Components {
		s := cb.Component(c)
		if s.Count() == 0 {
			continue
		}
		out = append(out, row(c, "", "", "", s))
	}
	return out
}

// Breakdown aggregates the report's applications into a fresh
// ClusterBreakdown.
func (r *Report) Breakdown() *ClusterBreakdown {
	cb := NewClusterBreakdown()
	for _, a := range r.Apps {
		cb.Observe(a)
	}
	return cb
}
