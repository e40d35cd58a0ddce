package core

import (
	"fmt"
	"strings"
)

// Segment is one labeled span of an application's scheduling critical
// path. Segments are contiguous and cover [Submitted, FirstTask].
type Segment struct {
	Label  string
	FromMS int64
	ToMS   int64
}

// Duration returns the segment length in ms.
func (s Segment) Duration() int64 { return s.ToMS - s.FromMS }

// CriticalPath walks the chain of events that actually gated the first
// task — the paper decomposes delays per component, this attributes every
// millisecond of the total delay to exactly one cause:
//
//	app-accept → am-allocate → am-acquire → am-localize → am-launch →
//	driver-init → executor-allocate → executor-acquire →
//	executor-localize → executor-launch → executor-wait
//
// where the executor chain follows the container whose first task opened
// the app (the earliest FIRST_TASK), and "executor-wait" is the idle
// period of Fig 10 (executor up, waiting for the driver's init and the
// registration gate). Returns nil when the trace is too incomplete.
func CriticalPath(a *AppTrace) []Segment {
	am := a.AMContainer()
	if am == nil || a.Submitted == 0 {
		return nil
	}
	// The gating executor: the worker container with the earliest
	// FIRST_TASK.
	var gate *ContainerTrace
	for _, c := range a.Containers {
		if c.IsAM() || c.FirstTask == 0 {
			continue
		}
		if gate == nil || c.FirstTask < gate.FirstTask {
			gate = c
		}
	}
	if gate == nil {
		return nil
	}

	segs := make([]Segment, 0, 11) // one per add below
	cursor := a.Submitted
	add := func(label string, to int64) {
		if to == 0 || to <= cursor {
			return // component missing or overlapped by an earlier one
		}
		segs = append(segs, Segment{Label: label, FromMS: cursor, ToMS: to})
		cursor = to
	}

	add("app-accept", a.Accepted)
	add("am-allocate", am.Allocated)
	add("am-acquire", am.Acquired)
	add("am-localize", am.Scheduled)
	add("am-launch", firstNonZero(am.Running, am.FirstLog))
	add("driver-init", firstNonZero(a.DriverRegister, a.Registered))
	add("executor-allocate", gate.Allocated)
	add("executor-acquire", gate.Acquired)
	add("executor-localize", gate.Scheduled)
	add("executor-launch", firstNonZero(gate.Running, gate.FirstLog))
	add("executor-wait", gate.FirstTask)
	return segs
}

// FormatCriticalPath renders the segments with durations and shares.
func FormatCriticalPath(segs []Segment) string {
	if len(segs) == 0 {
		return "critical path unavailable (incomplete trace)\n"
	}
	total := segs[len(segs)-1].ToMS - segs[0].FromMS
	var b strings.Builder
	fmt.Fprintf(&b, "critical path (total %dms):\n", total)
	for _, s := range segs {
		share := float64(s.Duration()) / float64(total) * 100
		bar := strings.Repeat("#", int(share/2))
		fmt.Fprintf(&b, "  %-18s %7dms %5.1f%% %s\n", s.Label, s.Duration(), share, bar)
	}
	return b.String()
}

// CriticalPathShares aggregates critical-path segment shares across all
// applications of a report: for each label, the mean fraction of the
// total delay it occupies.
func (r *Report) CriticalPathShares() map[string]float64 {
	sums := map[string]float64{}
	n := 0
	for _, a := range r.Apps {
		segs := CriticalPath(a)
		if len(segs) == 0 {
			continue
		}
		total := float64(segs[len(segs)-1].ToMS - segs[0].FromMS)
		if total <= 0 {
			continue
		}
		n++
		for _, s := range segs {
			sums[s.Label] += float64(s.Duration()) / total
		}
	}
	if n == 0 {
		return nil
	}
	for k := range sums {
		sums[k] /= float64(n)
	}
	return sums
}
