// Package slo evaluates service-level objectives over the delay
// decompositions that internal/core produces. It consumes completed
// application traces (typically via core.ShardedStream's OnComplete
// hook), folds every delay component into rolling event-time quantile
// sketches, and checks declarative rules like
//
//	alloc-p99: p99(alloc) < 500ms over 5m
//	prod-total: p95(total, queue=prod) < 30s over 10m burn 2m
//
// against them, recording firing/resolved transitions. Evaluation is
// driven by observation (event) time, not wall clock, so replaying a
// directory of historical logs reproduces the exact alert timeline the
// rules would have produced live.
package slo

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// Rule is one parsed SLO statement. The zero selector fields mean "any":
// a rule with Queue=="" matches observations from every queue.
type Rule struct {
	Name      string
	Component string
	Queue     string
	Node      string
	// Quantile in (0,1): p99 parses to 0.99.
	Quantile float64
	// Op is '<' or '>': the comparison the objective asserts. The rule is
	// violated when the window quantile fails the comparison.
	Op byte
	// ThresholdMS is the objective bound in milliseconds.
	ThresholdMS float64
	// WindowMS is the rolling evaluation window; BurnMS, when non-zero,
	// is the short burn-rate window (both must be violated to fire).
	WindowMS int64
	BurnMS   int64
	// MinCount is the minimum number of window samples before the rule
	// can be violated at all (default 1): empty windows never fire.
	MinCount uint64
}

// reRule captures: name, quantile, component, selector list, op,
// threshold, window, optional burn window, optional min count.
var reRule = regexp.MustCompile(
	`^([A-Za-z0-9._-]+)\s*:\s*p([0-9]+(?:\.[0-9]+)?)\s*\(\s*([a-z]+)` +
		`((?:\s*,\s*[a-z]+\s*=\s*[^,()\s]+)*)\s*\)\s*([<>])\s*(\S+)` +
		`\s+over\s+(\S+)(?:\s+burn\s+(\S+))?(?:\s+min\s+([0-9]+))?\s*$`)

var reSelector = regexp.MustCompile(`([a-z]+)\s*=\s*([^,()\s]+)`)

// ParseRule parses one rule line (comments and surrounding space already
// stripped) against the scheduling-delay component vocabulary
// (core.Components).
func ParseRule(s string) (Rule, error) {
	return ParseRuleFor(s, core.Components)
}

// ParseRuleFor parses one rule line validating its component against an
// explicit vocabulary. The engine itself is vocabulary-agnostic (rules
// match observations by string), so the same grammar and machinery
// evaluate both mined delay components and the pipeline's own stage
// latencies (obs.Stages) — the checker's self-SLOs.
func ParseRuleFor(s string, components []string) (Rule, error) {
	m := reRule.FindStringSubmatch(s)
	if m == nil {
		return Rule{}, fmt.Errorf("slo: cannot parse rule %q (want `name: p99(component[, queue=Q][, node=N]) < 500ms over 5m [burn 1m] [min 3]`)", s)
	}
	r := Rule{Name: m[1], Component: m[3], MinCount: 1}
	pct, err := strconv.ParseFloat(m[2], 64)
	if err != nil || pct <= 0 || pct >= 100 {
		return Rule{}, fmt.Errorf("slo: rule %s: quantile p%s out of (0,100)", r.Name, m[2])
	}
	r.Quantile = pct / 100
	valid := false
	for _, c := range components {
		if c == r.Component {
			valid = true
			break
		}
	}
	if !valid {
		return Rule{}, fmt.Errorf("slo: rule %s: unknown component %q (have %s)",
			r.Name, r.Component, strings.Join(components, ", "))
	}
	for _, sel := range reSelector.FindAllStringSubmatch(m[4], -1) {
		switch sel[1] {
		case "queue":
			r.Queue = sel[2]
		case "node":
			r.Node = sel[2]
		default:
			return Rule{}, fmt.Errorf("slo: rule %s: unknown selector %q (want queue= or node=)", r.Name, sel[1])
		}
	}
	r.Op = m[5][0]
	thr, err := time.ParseDuration(m[6])
	if err != nil || thr <= 0 {
		return Rule{}, fmt.Errorf("slo: rule %s: bad threshold %q", r.Name, m[6])
	}
	r.ThresholdMS = float64(thr) / float64(time.Millisecond)
	win, err := time.ParseDuration(m[7])
	if err != nil || win <= 0 {
		return Rule{}, fmt.Errorf("slo: rule %s: bad window %q", r.Name, m[7])
	}
	r.WindowMS = win.Milliseconds()
	if m[8] != "" {
		burn, err := time.ParseDuration(m[8])
		if err != nil || burn <= 0 {
			return Rule{}, fmt.Errorf("slo: rule %s: bad burn window %q", r.Name, m[8])
		}
		r.BurnMS = burn.Milliseconds()
		if r.BurnMS >= r.WindowMS {
			return Rule{}, fmt.Errorf("slo: rule %s: burn window %s must be shorter than the main window %s", r.Name, m[8], m[7])
		}
	}
	if m[9] != "" {
		n, err := strconv.ParseUint(m[9], 10, 64)
		if err != nil || n == 0 {
			return Rule{}, fmt.Errorf("slo: rule %s: bad min count %q", r.Name, m[9])
		}
		r.MinCount = n
	}
	return r, nil
}

// ParseRules reads a rule file: one rule per line, '#' comments and blank
// lines ignored. Duplicate rule names are rejected.
func ParseRules(rd io.Reader) ([]Rule, error) {
	return ParseRulesFor(rd, core.Components)
}

// ParseRulesFor is ParseRules with an explicit component vocabulary
// (see ParseRuleFor).
func ParseRulesFor(rd io.Reader, components []string) ([]Rule, error) {
	var out []Rule
	seen := make(map[string]bool)
	sc := bufio.NewScanner(rd)
	for lineNo := 1; sc.Scan(); lineNo++ {
		s := sc.Text()
		if i := strings.IndexByte(s, '#'); i >= 0 {
			s = s[:i]
		}
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		r, err := ParseRuleFor(s, components)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("line %d: slo: duplicate rule name %q", lineNo, r.Name)
		}
		seen[r.Name] = true
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("slo: %w", err)
	}
	return out, nil
}

// Matches reports whether an observation falls under this rule's
// selector.
func (r Rule) Matches(o core.Observation) bool {
	if o.Component != r.Component {
		return false
	}
	if r.Queue != "" && o.Queue != r.Queue {
		return false
	}
	if r.Node != "" && o.Node != r.Node {
		return false
	}
	return true
}

// satisfied reports whether a window value meets the objective.
func (r Rule) satisfied(v float64) bool {
	if r.Op == '<' {
		return v < r.ThresholdMS
	}
	return v > r.ThresholdMS
}

// String renders the rule back in its canonical parseable form.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: p%s(%s", r.Name,
		strconv.FormatFloat(r.Quantile*100, 'f', -1, 64), r.Component)
	if r.Queue != "" {
		fmt.Fprintf(&b, ", queue=%s", r.Queue)
	}
	if r.Node != "" {
		fmt.Fprintf(&b, ", node=%s", r.Node)
	}
	fmt.Fprintf(&b, ") %c %s over %s", r.Op,
		fmtDur(int64(r.ThresholdMS)), fmtDur(r.WindowMS))
	if r.BurnMS > 0 {
		fmt.Fprintf(&b, " burn %s", fmtDur(r.BurnMS))
	}
	if r.MinCount > 1 {
		fmt.Fprintf(&b, " min %d", r.MinCount)
	}
	return b.String()
}

// fmtDur renders milliseconds the way the rule grammar reads them,
// without time.Duration's trailing zero units ("5m0s" -> "5m").
func fmtDur(ms int64) string {
	s := (time.Duration(ms) * time.Millisecond).String()
	if strings.HasSuffix(s, "m0s") {
		s = s[:len(s)-2]
	}
	if strings.HasSuffix(s, "h0m") {
		s = s[:len(s)-2]
	}
	return s
}
