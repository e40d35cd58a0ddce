package slo

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

func mustRule(t *testing.T, s string) Rule {
	t.Helper()
	r, err := ParseRule(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestParseRule(t *testing.T) {
	r := mustRule(t, "alloc-p99: p99(alloc) < 500ms over 5m")
	if r.Name != "alloc-p99" || r.Component != "alloc" || r.Quantile != 0.99 ||
		r.Op != '<' || r.ThresholdMS != 500 || r.WindowMS != 5*60*1000 ||
		r.BurnMS != 0 || r.MinCount != 1 {
		t.Fatalf("parsed %+v", r)
	}

	r = mustRule(t, "prod: p95(total, queue=prod, node=node07) > 2s over 10m burn 1m min 3")
	if r.Queue != "prod" || r.Node != "node07" || r.Quantile != 0.95 ||
		r.Op != '>' || r.ThresholdMS != 2000 || r.BurnMS != 60*1000 || r.MinCount != 3 {
		t.Fatalf("parsed %+v", r)
	}
}

func TestParseRuleRejects(t *testing.T) {
	for _, s := range []string{
		"",                                       // empty
		"x: p99(alloc) < 500ms",                  // missing window
		"x: p99(bogus) < 500ms over 5m",          // unknown component
		"x: p0(alloc) < 500ms over 5m",           // quantile at 0
		"x: p100(alloc) < 500ms over 5m",         // quantile at 100
		"x: p99(alloc) < -5ms over 5m",           // negative threshold
		"x: p99(alloc) < 500ms over 5m burn 10m", // burn >= window
		"x: p99(alloc, shard=3) < 500ms over 5m", // unknown selector
		"x: p99(alloc) < 500ms over 5m min 0",    // zero min
		"x p99(alloc) < 500ms over 5m",           // missing colon
	} {
		if _, err := ParseRule(s); err == nil {
			t.Errorf("ParseRule(%q) accepted", s)
		}
	}
}

func TestRuleStringRoundtrip(t *testing.T) {
	for _, s := range []string{
		"alloc-p99: p99(alloc) < 500ms over 5m",
		"prod: p95(total, queue=prod) < 30s over 10m burn 2m",
		"n7: p50(localization, node=node07) > 1s over 2m min 5",
		"fine: p99.9(queueing) < 250ms over 1h",
	} {
		r := mustRule(t, s)
		r2 := mustRule(t, r.String())
		if r != r2 {
			t.Errorf("roundtrip %q -> %q: %+v != %+v", s, r.String(), r, r2)
		}
	}
}

func TestParseRulesFile(t *testing.T) {
	src := `
# delay objectives
alloc-p99: p99(alloc) < 500ms over 5m
total-p95: p95(total) < 30s over 10m burn 2m  # inline comment

`
	rules, err := ParseRules(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].Name != "alloc-p99" || rules[1].BurnMS != 2*60*1000 {
		t.Fatalf("rules %+v", rules)
	}

	if _, err := ParseRules(strings.NewReader("a: p99(alloc) < 1s over 5m\na: p99(total) < 1s over 5m")); err == nil {
		t.Fatal("duplicate rule names accepted")
	}
	if _, err := ParseRules(strings.NewReader("garbage")); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("want line-numbered error, got %v", err)
	}
}

func TestRuleMatches(t *testing.T) {
	r := mustRule(t, "x: p99(alloc, queue=prod) < 1s over 5m")
	if !r.Matches(core.Observation{Component: "alloc", Queue: "prod"}) {
		t.Error("should match its queue")
	}
	if r.Matches(core.Observation{Component: "alloc", Queue: "batch"}) {
		t.Error("matched the wrong queue")
	}
	if r.Matches(core.Observation{Component: "total", Queue: "prod"}) {
		t.Error("matched the wrong component")
	}
	any := mustRule(t, "y: p99(alloc) < 1s over 5m")
	if !any.Matches(core.Observation{Component: "alloc", Queue: "batch", Node: "n1"}) {
		t.Error("selector-free rule should match any queue/node")
	}
}

// obs builds n identical observations.
func obs(component string, ms int64, n int) []core.Observation {
	out := make([]core.Observation, n)
	for i := range out {
		out[i] = core.Observation{Component: component, MS: ms}
	}
	return out
}

const t0 = int64(1499000000000)

func TestEngineFiresAndResolves(t *testing.T) {
	e := NewEngine([]Rule{mustRule(t, "alloc: p99(alloc) < 500ms over 1m")})

	// Healthy traffic: no transition.
	e.ObserveAt(obs("alloc", 100, 5), t0)
	if got := e.Status()[0].State; got != "ok" {
		t.Fatalf("state %q after healthy traffic", got)
	}
	if len(e.History()) != 0 {
		t.Fatalf("history %+v before any breach", e.History())
	}

	// Spike: p99 over threshold -> firing at the spike's event time.
	e.ObserveAt(obs("alloc", 2000, 10), t0+30_000)
	st := e.Status()[0]
	if st.State != "firing" {
		t.Fatalf("state %q after spike (value %v)", st.State, st.ValueMS)
	}
	h := e.History()
	if len(h) != 1 || h[0].State != "firing" || h[0].AtMS != t0+30_000 {
		t.Fatalf("history %+v", h)
	}

	// Time passes, the window drains -> resolved.
	e.Advance(t0 + 10*60_000)
	h = e.History()
	if len(h) != 2 || h[1].State != "ok" || h[1].AtMS != t0+10*60_000 {
		t.Fatalf("history %+v", h)
	}
	if e.Status()[0].State != "ok" {
		t.Fatal("rule still firing after window drained")
	}
	if e.FiringCount() != 0 {
		t.Fatal("firing count nonzero")
	}
}

func TestEngineBurnRateNeedsBothWindows(t *testing.T) {
	e := NewEngine([]Rule{mustRule(t, "x: p99(alloc) < 500ms over 10m burn 1m")})

	// Breach both windows -> firing.
	e.ObserveAt(obs("alloc", 3000, 10), t0)
	if e.Status()[0].State != "firing" {
		t.Fatalf("status %+v", e.Status()[0])
	}

	// Recovery traffic two minutes later: the 1m burn window now holds
	// only healthy samples, so the alert resolves even though the 10m
	// window still contains the breach.
	e.ObserveAt(obs("alloc", 50, 10), t0+2*60_000)
	st := e.Status()[0]
	if st.State != "ok" {
		t.Fatalf("burn window clean but still firing: %+v", st)
	}
	if st.ValueMS < 500 {
		t.Fatalf("long window should still hold the breach, value %v", st.ValueMS)
	}
	h := e.History()
	if len(h) != 2 || h[0].State != "firing" || h[1].State != "ok" {
		t.Fatalf("history %+v", h)
	}
}

func TestEngineMinCount(t *testing.T) {
	e := NewEngine([]Rule{mustRule(t, "x: p99(alloc) < 500ms over 5m min 5")})
	e.ObserveAt(obs("alloc", 9000, 4), t0)
	if e.Status()[0].State != "ok" {
		t.Fatal("fired below min count")
	}
	e.ObserveAt(obs("alloc", 9000, 1), t0+1000)
	if e.Status()[0].State != "firing" {
		t.Fatal("did not fire at min count")
	}
}

func TestEngineGreaterThanObjective(t *testing.T) {
	// An op-'>' rule asserts the value stays ABOVE the bound (e.g. a
	// canary that proves data is flowing with non-trivial delays).
	e := NewEngine([]Rule{mustRule(t, "x: p50(alloc) > 1ms over 5m")})
	e.ObserveAt(obs("alloc", 0, 5), t0)
	if e.Status()[0].State != "firing" {
		t.Fatal("value below a > objective should fire")
	}
	e.ObserveAt(obs("alloc", 100, 50), t0+1000)
	if e.Status()[0].State != "ok" {
		t.Fatal("value above a > objective should be ok")
	}
}

func TestEngineEventClockMonotonic(t *testing.T) {
	e := NewEngine(nil)
	e.Advance(t0 + 5000)
	e.Advance(t0) // stale stamp must not rewind
	if e.Now() != t0+5000 {
		t.Fatalf("clock rewound to %d", e.Now())
	}
}

func TestEngineCumulativeBreakdownAndOverflow(t *testing.T) {
	e := NewEngine(nil)
	n := DefaultMaxKeys + 2
	for i := 0; i < n; i++ {
		o := core.Observation{Component: "localization", Node: fmt.Sprintf("n%d", i), MS: int64(100 * (i + 1))}
		e.ObserveAt([]core.Observation{o}, t0+int64(i)*1000)
	}
	cb := e.Breakdown()
	if got := cb.Component("localization").Count(); got != uint64(n) {
		t.Fatalf("cumulative count %d, want %d (overflow must not drop observations)", got, n)
	}
	// DefaultMaxKeys exact keys + 1 overflow key.
	if len(cb.Sketches) != DefaultMaxKeys+1 {
		t.Fatalf("%d keys, want %d", len(cb.Sketches), DefaultMaxKeys+1)
	}
	if e.OverflowObservations() != 2 {
		t.Fatalf("overflow observations %d, want 2", e.OverflowObservations())
	}
	byNode := cb.ByNode("localization")
	if s := byNode[Overflow]; s == nil || s.Count() != 2 {
		t.Fatalf("overflow bucket %+v", byNode)
	}
}

func TestEngineObserveApp(t *testing.T) {
	e := NewEngine([]Rule{mustRule(t, "tot: p50(total) < 10s over 5m")})
	a := &core.AppTrace{
		Queue:     "prod",
		Submitted: t0,
		Decomp: &core.Decomposition{
			Total: 15_000, AM: 2000, Driver: 1000, Executor: 3000,
			Alloc: core.Missing, Complete: true,
		},
	}
	e.ObserveApp(a, core.Observations(a))
	if e.AppsIngested() != 1 {
		t.Fatal("app not counted")
	}
	// Event time = submission + total.
	if e.Now() != t0+15_000 {
		t.Fatalf("event clock %d, want %d", e.Now(), t0+15_000)
	}
	st := e.Status()[0]
	if st.State != "firing" || st.WindowCount != 1 {
		t.Fatalf("status %+v", st)
	}
	// Missing alloc must not be aggregated.
	if e.Breakdown().Component("alloc").Count() != 0 {
		t.Fatal("Missing component leaked into the aggregate")
	}
	if got := e.Breakdown().ByQueue("total")["prod"]; got == nil || got.Count() != 1 {
		t.Fatal("queue attribution lost")
	}
}

func TestRingPartialBucketApproximation(t *testing.T) {
	// The oldest overlapping bucket is included whole: a sample just
	// outside the nominal window but inside its bucket still counts.
	r := newRing(60_000) // 5s buckets
	r.add(100, t0, "")
	if got := r.merged(t0 + 60_000 + 2_000).Count(); got != 1 {
		t.Fatalf("sample in partial bucket dropped (count %d)", got)
	}
	// One full bucket width past the window it is gone.
	if got := r.merged(t0 + 60_000 + 5_000).Count(); got != 0 {
		t.Fatalf("expired sample survived (count %d)", got)
	}
}

func TestRingRecyclesSlots(t *testing.T) {
	r := newRing(10_000) // 1s buckets, 11 slots
	r.add(1, t0, "old-epoch-app")
	// t0+11s maps to the same slot as t0: the old epoch must be
	// discarded, not merged, and so must its exemplars, or an alert
	// fired on the new window would name an app from outside it.
	r.add(2, t0+11_000, "new-epoch-app")
	m := r.merged(t0 + 11_000)
	if m.Count() != 1 {
		t.Fatalf("stale epoch leaked: count %d", m.Count())
	}
	if ex := m.Exemplars(); len(ex) != 1 || ex[0].App != "new-epoch-app" {
		t.Fatalf("recycled slot exemplars %v, want only new-epoch-app", ex)
	}
}
