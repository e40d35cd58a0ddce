// Live dashboard: the streaming variant of SDchecker. A simulated
// cluster runs in time slices; after each slice, every newly produced log
// line is fed into a one-worker core.ShardedStream (exactly what
// `sdchecker -follow` does against files on disk) and the current
// picture is printed — completed
// applications get their final decomposition, in-flight ones show what is
// known so far. The stream is instrumented into the scenario's metrics
// registry, so the run ends with the same counters a live `-serve`
// endpoint would expose on /metrics.
//
//	go run ./examples/live-dashboard
package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/spark"
	"repro/internal/workload"
)

func main() {
	s := experiments.NewScenario(experiments.DefaultOptions())
	tables := workload.CreateTPCHTables(s.FS, 2048)
	for i := 0; i < 6; i++ {
		cfg := spark.DefaultConfig(workload.TPCHQuery(i+1, 2048, tables))
		at := sim.Time(int64(i)*4000 + 1000)
		s.Eng.At(at, func() { spark.Submit(s.RM, s.FS, cfg) })
	}

	stream := core.NewShardedStream(1)
	defer stream.Close()
	stream.Instrument(s.Metrics)
	// drain feeds every sink line produced since the previous drain — the
	// in-memory analogue of `sdchecker -follow` tailing files on disk —
	// waits until the stream has absorbed them (Quiesce), and returns how
	// many scheduling events the stream gained.
	fed := make(map[string]int) // lines of each sink file already fed
	drain := func() int {
		before := stream.EventCount()
		for _, file := range s.Sink.Files() {
			lines := s.Sink.Lines(file)
			for _, l := range lines[fed[file]:] {
				stream.Feed(file, l)
			}
			fed[file] = len(lines)
		}
		stream.Quiesce()
		return stream.EventCount() - before
	}

	// Completed decompositions roll into the SLO engine, exactly as
	// `sdchecker -serve -slo rules.txt` wires them. The hook runs on the
	// stream's worker; drain's Quiesce orders it before the reads below. The tight rule is
	// meant to fire on any realistic run; watch it in the alert log.
	rules, err := slo.ParseRules(strings.NewReader(
		"demo-total-p95: p95(total) < 5s over 2m\n"))
	if err != nil {
		panic(err)
	}
	engine := slo.NewEngine(rules)
	stream.OnComplete(func(a *core.AppTrace) { engine.ObserveApp(a, core.Observations(a)) })

	for slice := 1; slice <= 6; slice++ {
		s.Eng.RunUntil(sim.Time(int64(slice) * 10_000))
		events := drain()
		fmt.Printf("=== t=%2ds  (+%d scheduling events) ===\n", slice*10, events)
		for _, a := range stream.Apps() {
			status := "in-flight"
			detail := ""
			if stream.Complete(a.ID) {
				status = "scheduled"
				d := a.Decomp
				detail = fmt.Sprintf("total=%5.1fs am=%4.1fs in=%5.1fs out=%4.1fs",
					float64(d.Total)/1000, float64(d.AM)/1000, float64(d.In)/1000, float64(d.Out)/1000)
			} else {
				switch {
				case a.Registered != 0:
					detail = "driver registered, executors starting"
				case a.Submitted != 0:
					detail = "submitted, AppMaster starting"
				default:
					detail = "accepted"
				}
			}
			fmt.Printf("  %s  %-9s %s\n", a.ID, status, detail)
		}
	}

	// Drain and print the final aggregate — identical to an offline pass.
	s.Run(sim.Time(3600 * sim.Second))
	drain()
	fmt.Println("\nfinal aggregate from the stream:")
	rep := stream.Report()
	fmt.Printf("  %d apps, total p50=%.1fs p95=%.1fs, in/total=%.2f\n",
		len(rep.Apps), rep.Total.Median()/1000, rep.Total.P95()/1000, rep.InOverTotal.Median())

	// Cluster breakdown: the same mergeable-sketch tables `-serve`
	// renders on /aggregate — per-component percentiles plus the worst
	// node by localization tail.
	engine.Advance(stream.LastEventMS())
	cb := engine.Breakdown()
	fmt.Println("\ncluster breakdown (from the SLO engine's sketches):")
	fmt.Printf("  %-14s %6s %9s %9s %9s\n", "component", "count", "p50ms", "p95ms", "p99ms")
	for _, row := range cb.ComponentRows() {
		fmt.Printf("  %-14s %6d %9.0f %9.0f %9.0f\n",
			row.Component, row.Count, row.P50MS, row.P95MS, row.P99MS)
	}
	if node, p99, ok := core.Worst(cb.ByNode("localization"), 1); ok {
		fmt.Printf("  worst node by localization p99: %s (%.0fms)\n", node, p99)
	}
	fmt.Println("\nSLO status:")
	for _, st := range engine.Status() {
		fmt.Printf("  [%s] %s (value %.0fms over %d samples)\n", st.State, st.Expr, st.ValueMS, st.WindowCount)
	}
	for _, tr := range engine.History() {
		fmt.Printf("  %s -> %s at t=%dms (value %.0fms)\n", tr.Rule, tr.State, tr.AtMS, tr.ValueMS)
	}

	// The registry holds simulator, YARN and stream series side by side —
	// the same snapshot `sdchecker -serve` renders on /metrics.
	fmt.Println("\nselected metrics:")
	for _, snap := range s.Metrics.Snapshot() {
		switch snap.Type {
		case metrics.TypeCounter, metrics.TypeGauge:
			if snap.Value == 0 {
				continue
			}
			fmt.Printf("  %-45s %s %d\n", snap.Name+labelSuffix(snap.Labels), snap.Type, snap.Value)
		case metrics.TypeHistogram:
			if snap.Count == 0 {
				continue
			}
			fmt.Printf("  %-45s %s count=%d mean=%.1f\n",
				snap.Name+labelSuffix(snap.Labels), snap.Type, snap.Count, snap.Sum/float64(snap.Count))
		}
	}
}

func labelSuffix(labels map[string]string) string {
	out := ""
	for k, v := range labels {
		if out != "" {
			out += ","
		}
		out += fmt.Sprintf("%s=%q", k, v)
	}
	if out == "" {
		return ""
	}
	return "{" + out + "}"
}
