//go:build !race

package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/log4j"
)

// Allocation regression tests for the byte-level hot path. The central
// claim — the reason the fast matcher exists — is that scanning a line
// that matches no vocabulary rule costs zero heap allocations: no
// regexp machine, no error values, no submatch slices. Excluded under
// -race because the detector's instrumentation perturbs the counts.

// TestFastPathZeroAllocNonMatching pins the zero-allocation contract at
// every layer: the daemon-line miner, the container body matcher, and
// the whole Stream.Feed path, on parseable-but-unmined and on garbage
// lines alike.
func TestFastPathZeroAllocNonMatching(t *testing.T) {
	restore := UseReferenceMatcher(false)
	defer restore()

	line := log4j.Line{
		TimeMS:  1499000000123,
		Level:   log4j.Info,
		Class:   "org.apache.hadoop.ipc.Server",
		Message: "IPC Server handler 12 on 8030, call heartbeat from 10.0.0.7",
	}
	p := NewParser()
	if got := testing.AllocsPerRun(1000, func() {
		p.mineDaemonLineFast("hadoop/yarn-resourcemanager.log", line)
	}); got != 0 {
		t.Errorf("mineDaemonLineFast on a non-vocabulary line: %v allocs/op, want 0", got)
	}

	cases := map[string]string{
		"stamped non-vocabulary": line.Format(),
		"garbage no stamp":       "\tat org.apache.hadoop.ipc.Client$Connection.run(Client.java:891)",
		"empty":                  "",
	}
	for name, raw := range cases {
		st := NewStream()
		st.Feed("hadoop/yarn-resourcemanager.log", raw) // warm the scratch parser
		if got := testing.AllocsPerRun(1000, func() {
			st.Feed("hadoop/yarn-resourcemanager.log", raw)
		}); got != 0 {
			t.Errorf("Stream.Feed(%s): %v allocs/op, want 0", name, got)
		}
	}

	// Container stderr body lines after the first (FIRST_LOG already
	// deduplicated) that hit no body rule.
	st := NewStream()
	src := "userlogs/application_1499000000000_0001/container_1499000000000_0001_01_000001/stderr"
	body := log4j.Line{
		TimeMS:  1499000000200,
		Level:   log4j.Info,
		Class:   "org.apache.spark.executor.Executor",
		Message: "Finished task 3.0 in stage 1.0 (TID 7) in 212 ms",
	}.Format()
	st.Feed(src, body)
	if got := testing.AllocsPerRun(1000, func() {
		st.Feed(src, body)
	}); got != 0 {
		t.Errorf("Stream.Feed(container body): %v allocs/op, want 0", got)
	}
}

// TestFastPathAllocBudgetMatching bounds the cost of lines that DO mine
// an event. Matching lines legitimately allocate (the event is absorbed
// and a new trace snapshot published), but the budget must stay fixed and
// small — a regression here means the hot path regrew per-line garbage —
// and must not grow with the application's history.
func TestFastPathAllocBudgetMatching(t *testing.T) {
	restore := UseReferenceMatcher(false)
	defer restore()

	raw := log4j.Line{
		TimeMS:  1499000000123,
		Level:   log4j.Info,
		Class:   "org.apache.hadoop.yarn.server.resourcemanager.rmcontainer.RMContainerImpl",
		Message: "container_1499000000000_0001_01_000002 Container Transitioned from ALLOCATED to ACQUIRED",
	}.Format()
	measure := func(ref bool) float64 {
		restore := UseReferenceMatcher(ref)
		defer restore()
		st := NewStream()
		st.Feed("hadoop/yarn-resourcemanager.log", raw)
		return testing.AllocsPerRun(500, func() {
			st.Feed("hadoop/yarn-resourcemanager.log", raw)
		})
	}
	fast, ref := measure(false), measure(true)
	// The matcher itself must contribute nothing on top of the absorb —
	// the fast path may never allocate more than the reference — and the
	// absolute budget (measured 8 vs 15 with incremental correlation: the
	// published header, container and slice copies plus the
	// decomposition) must not creep.
	if fast > ref {
		t.Errorf("fast matcher allocates more than the regex reference on a matching line: %v > %v allocs/op", fast, ref)
	}
	const budget = 10.0
	if fast > budget {
		t.Errorf("Stream.Feed(matching line): %v allocs/op, budget %v", fast, budget)
	}

	// Size independence: one more in-order matching line costs the same
	// for an app with 5 prior events as for one with 1,000 spread over
	// 100 containers.
	history := func(n int) float64 {
		st := NewStream()
		for i := 0; i < n; i++ {
			st.Feed("hadoop/yarn-resourcemanager.log", log4j.Line{
				TimeMS:  1499000000000, // before raw's stamp: raw stays in order
				Level:   log4j.Info,
				Class:   "org.apache.hadoop.yarn.server.resourcemanager.rmcontainer.RMContainerImpl",
				Message: fmt.Sprintf("container_1499000000000_0001_01_%06d Container Transitioned from NEW to ALLOCATED", 2+i/10),
			}.Format())
		}
		if got := st.EventCount(); got != n {
			t.Fatalf("history of %d lines absorbed %d events", n, got)
		}
		return testing.AllocsPerRun(200, func() {
			st.Feed("hadoop/yarn-resourcemanager.log", raw)
		})
	}
	small, large := history(5), history(1000)
	if math.Abs(large-small) > 1 {
		t.Errorf("matching line allocs grow with app history: %v allocs/op after 5 events, %v after 1,000", small, large)
	}
}
