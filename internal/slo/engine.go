package slo

import (
	"repro/internal/core"
	"repro/internal/digest"
)

// State is one rule's alert state.
type State int

const (
	StateOK State = iota
	StateFiring
)

func (s State) String() string {
	if s == StateFiring {
		return "firing"
	}
	return "ok"
}

// Transition is one recorded alert edge (ok->firing or firing->ok). A
// firing edge captures the long window's exemplar set at fire time —
// the worst observations still inside the window, i.e. the applications
// that pushed the quantile over the threshold.
type Transition struct {
	Rule        string            `json:"rule"`
	State       string            `json:"state"`
	AtMS        int64             `json:"at_ms"`
	ValueMS     float64           `json:"value_ms"`
	BurnValueMS float64           `json:"burn_value_ms,omitempty"`
	ThresholdMS float64           `json:"threshold_ms"`
	WindowCount uint64            `json:"window_count"`
	Exemplars   []digest.Exemplar `json:"exemplars,omitempty"`
}

// RuleStatus is one rule's current evaluation, the /slo endpoint row.
// Exemplars names the current window's worst observations while the
// rule is firing.
type RuleStatus struct {
	Name        string            `json:"name"`
	Expr        string            `json:"expr"`
	State       string            `json:"state"`
	SinceMS     int64             `json:"since_ms,omitempty"`
	ValueMS     float64           `json:"value_ms"`
	BurnValueMS float64           `json:"burn_value_ms,omitempty"`
	ThresholdMS float64           `json:"threshold_ms"`
	WindowCount uint64            `json:"window_count"`
	Exemplars   []digest.Exemplar `json:"exemplars,omitempty"`
}

type ruleState struct {
	rule    Rule
	long    *ring
	burn    *ring // nil when the rule has no burn window
	state   State
	sinceMS int64
}

// DefaultMaxKeys bounds the cumulative breakdown's key cardinality.
// Garbage log lines can mint unbounded node names; past the cap, new
// (queue, node) combinations fold into a per-component "(overflow)" key
// so counts stay exact even when attribution saturates.
const DefaultMaxKeys = 4096

// Overflow is the queue/node label observations are folded under once
// DefaultMaxKeys distinct breakdown keys exist.
const Overflow = "(overflow)"

// historyCap bounds the recorded transition log; the oldest edges are
// dropped first.
const historyCap = 512

// Engine aggregates delay observations and evaluates SLO rules over
// rolling event-time windows. It is not goroutine-safe: the caller (the
// serve loop) serializes access.
//
// The engine's clock is event time — the max observation timestamp it
// has seen, advanced explicitly via Advance. Feeding historical logs
// therefore replays the alert timeline deterministically: a delay spike
// fires rules at the spike's log timestamps and recovery resolves them,
// no matter when the analysis actually runs.
type Engine struct {
	rules        []*ruleState
	agg          *core.ClusterBreakdown
	overflowObs  uint64
	nowMS        int64
	history      []Transition
	appsIngested uint64
	onTransition func(Transition)
}

// NewEngine builds an engine evaluating the given rules (none is valid:
// the engine still aggregates for /aggregate).
func NewEngine(rules []Rule) *Engine {
	e := &Engine{agg: core.NewClusterBreakdown()}
	for _, r := range rules {
		rs := &ruleState{rule: r, long: newRing(r.WindowMS)}
		if r.BurnMS > 0 {
			rs.burn = newRing(r.BurnMS)
		}
		e.rules = append(e.rules, rs)
	}
	return e
}

// OnTransition registers a hook invoked synchronously for every
// recorded alert edge (fire and resolve), after the engine's own state
// is updated. At most one hook; nil clears it. The serve loop uses it
// to land slo_fire/slo_resolve events in the flight recorder.
func (e *Engine) OnTransition(fn func(Transition)) { e.onTransition = fn }

// ObserveApp folds one decomposed application's observations
// (core.Observations(a), which the caller may also use for its own
// histograms) in, stamped at its event time (submission plus total
// delay, i.e. when its first task ran — the moment the delays became
// knowable), then re-evaluates every rule.
func (e *Engine) ObserveApp(a *core.AppTrace, obs []core.Observation) {
	at := a.Submitted
	if d := a.Decomp; d != nil && d.Total >= 0 {
		at += d.Total
	}
	e.appsIngested++
	e.ObserveAt(obs, at)
}

// ObserveAt folds raw observations in at an explicit event time and
// re-evaluates every rule at that time (if it advances the clock).
func (e *Engine) ObserveAt(obs []core.Observation, atMS int64) {
	for _, o := range obs {
		e.addCumulative(o)
		v := float64(o.MS)
		for _, rs := range e.rules {
			if !rs.rule.Matches(o) {
				continue
			}
			rs.long.add(v, atMS, o.App)
			if rs.burn != nil {
				rs.burn.add(v, atMS, o.App)
			}
		}
	}
	e.Advance(atMS)
}

func (e *Engine) addCumulative(o core.Observation) {
	k := core.BreakdownKey{Component: o.Component, Queue: o.Queue, Node: o.Node, Instance: o.Instance}
	if _, ok := e.agg.Sketches[k]; !ok && len(e.agg.Sketches) >= DefaultMaxKeys {
		o.Queue, o.Node, o.Instance = Overflow, Overflow, ""
		e.overflowObs++
	}
	e.agg.Add(o)
}

// Advance moves the event clock forward (it never goes back) and
// re-evaluates every rule. Call it with the latest log timestamp even
// when no application completed, so rules resolve once their windows
// drain.
func (e *Engine) Advance(nowMS int64) {
	if nowMS > e.nowMS {
		e.nowMS = nowMS
	}
	e.evaluate()
}

func (e *Engine) evaluate() {
	for _, rs := range e.rules {
		v, burnV, count, exs, want := e.eval(rs)
		if want == rs.state {
			continue
		}
		rs.state = want
		rs.sinceMS = e.nowMS
		tr := Transition{
			Rule: rs.rule.Name, State: want.String(), AtMS: e.nowMS,
			ValueMS: v, BurnValueMS: burnV,
			ThresholdMS: rs.rule.ThresholdMS, WindowCount: count,
		}
		if want == StateFiring {
			tr.Exemplars = exs
		}
		e.history = append(e.history, tr)
		if len(e.history) > historyCap {
			e.history = e.history[len(e.history)-historyCap:]
		}
		if h := e.onTransition; h != nil {
			h(tr)
		}
	}
}

// eval computes one rule's current window value(s), the window's
// exemplar set, and the desired state. With a burn window configured,
// firing needs BOTH windows in violation (the multi-window burn-rate
// pattern): the long window proves the breach is sustained, the short
// one proves it is still happening — so recovery resolves the alert as
// soon as the short window is clean.
func (e *Engine) eval(rs *ruleState) (v, burnV float64, count uint64, exs []digest.Exemplar, want State) {
	long := rs.long.merged(e.nowMS)
	count = long.Count()
	v = long.Quantile(rs.rule.Quantile)
	exs = long.Exemplars()
	violated := count >= rs.rule.MinCount && !rs.rule.satisfied(v)
	if rs.burn != nil {
		short := rs.burn.merged(e.nowMS)
		burnV = short.Quantile(rs.rule.Quantile)
		violated = violated && short.Count() > 0 && !rs.rule.satisfied(burnV)
	}
	if violated {
		return v, burnV, count, exs, StateFiring
	}
	return v, burnV, count, exs, StateOK
}

// Now returns the engine's event clock (0 before any observation).
func (e *Engine) Now() int64 { return e.nowMS }

// AppsIngested returns how many applications were folded in.
func (e *Engine) AppsIngested() uint64 { return e.appsIngested }

// OverflowObservations returns how many observations were folded under
// the overflow key because the cardinality cap was hit.
func (e *Engine) OverflowObservations() uint64 { return e.overflowObs }

// Breakdown exposes the cumulative cluster breakdown (the /aggregate
// source). Callers must not mutate it concurrently with Observe.
func (e *Engine) Breakdown() *core.ClusterBreakdown { return e.agg }

// Rules returns the parsed rules in evaluation order.
func (e *Engine) Rules() []Rule {
	out := make([]Rule, len(e.rules))
	for i, rs := range e.rules {
		out[i] = rs.rule
	}
	return out
}

// Status renders every rule's current evaluation at the event clock.
func (e *Engine) Status() []RuleStatus {
	out := make([]RuleStatus, 0, len(e.rules))
	for _, rs := range e.rules {
		v, burnV, count, exs, _ := e.eval(rs)
		st := RuleStatus{
			Name: rs.rule.Name, Expr: rs.rule.String(),
			State: rs.state.String(), SinceMS: rs.sinceMS,
			ValueMS: v, BurnValueMS: burnV,
			ThresholdMS: rs.rule.ThresholdMS, WindowCount: count,
		}
		if rs.state == StateFiring {
			st.Exemplars = exs
		}
		out = append(out, st)
	}
	return out
}

// History returns the recorded alert transitions, oldest first (bounded;
// the oldest edges fall off past the cap).
func (e *Engine) History() []Transition {
	out := make([]Transition, len(e.history))
	copy(out, e.history)
	return out
}

// FiringCount returns how many rules are currently firing.
func (e *Engine) FiringCount() int {
	n := 0
	for _, rs := range e.rules {
		if rs.state == StateFiring {
			n++
		}
	}
	return n
}
