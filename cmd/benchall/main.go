// Command benchall regenerates every table and figure of the paper's
// evaluation section and prints them in paper-style text form.
//
//	benchall             # quick pass (reduced query counts)
//	benchall -scale paper  # full paper scale (2000-query long trace, ...)
//	benchall -only fig7,tableII
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		scale  = flag.String("scale", "quick", `"quick" (reduced counts) or "paper" (full trace sizes)`)
		only   = flag.String("only", "", "comma-separated subset: fig4,fig5,fig6,fig7,fig8,fig9,fig11,fig12,fig13,tableII,tableIII,bug,ablations,multitenant,extensions,failures")
		outDir = flag.String("out", "", "also write each section's text (plus Fig 4 CSV series and an HTML report) into this directory")
	)
	flag.Parse()
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
			os.Exit(1)
		}
	}

	long, short := 300, 80
	if *scale == "paper" {
		long, short = 2000, 200
	}
	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }

	write := func(name, content string) {
		if *outDir == "" {
			return
		}
		path := filepath.Join(*outDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
		}
	}
	run := func(name string, fn func() string) {
		if !sel(name) {
			return
		}
		start := time.Now()
		out := fn()
		fmt.Printf("==== %s (wall %.1fs) ====\n%s\n", name, time.Since(start).Seconds(), out)
		write(name+".txt", out)
	}

	var fig4 *experiments.Fig4Result
	run("fig4", func() string {
		fig4 = experiments.Fig4(long)
		write("fig4_apps.csv", fig4.Report.CSV())
		write("fig4_cdf.csv", fig4.Report.CDFCSV(100))
		write("fig4_launching.csv", fig4.Report.InstanceLaunchCSV())
		write("fig4_report.html", fig4.Report.HTMLReport("Fig 4 — overall scheduling delays", 6))
		return fig4.Format()
	})
	// Sweep figures also emit their mergeable-sketch aggregation tables:
	// the text form alongside the figure, the full per-point/merged
	// percentile rows as JSON when -out is set.
	writeSweep := func(base string, t *experiments.SweepTable) string {
		if *outDir != "" {
			if b, err := t.JSON(); err == nil {
				write(base+"_aggregate.json", string(b))
			} else {
				fmt.Fprintf(os.Stderr, "benchall: %s aggregate: %v\n", base, err)
			}
		}
		return t.Format("total", "alloc", "localization")
	}
	run("fig5", func() string {
		rows := experiments.Fig5(short)
		return experiments.FormatFig5(rows) + writeSweep("fig5", experiments.Fig5Aggregate(rows))
	})
	run("fig6", func() string { return experiments.FormatFig6(experiments.Fig6(short)) })
	run("fig7", func() string { return experiments.Fig7(short).Format() })
	run("tableII", func() string { return experiments.FormatTableII(experiments.TableII()) })
	run("fig8", func() string { return experiments.FormatFig8(experiments.Fig8(short)) })
	run("fig9", func() string { return experiments.Fig9(short).Format() })
	run("fig11", func() string { return experiments.Fig11(short).Format() })
	run("fig12", func() string {
		rows := experiments.Fig12(short)
		return experiments.FormatFig12(rows) + writeSweep("fig12", experiments.Fig12Aggregate(rows))
	})
	run("fig13", func() string { return experiments.FormatFig13(experiments.Fig13(short)) })
	run("tableIII", func() string {
		if fig4 == nil {
			fig4 = experiments.Fig4(long)
		}
		return experiments.FormatTableIII(experiments.TableIII(fig4))
	})
	run("bug", func() string { return experiments.BugHunt(short).Format() })
	run("ablations", func() string {
		var sb strings.Builder
		sb.WriteString(experiments.FormatAblationHeartbeat(experiments.AblationHeartbeat()))
		sb.WriteString(experiments.FormatAblationGate(experiments.AblationGate(short)))
		jvm := experiments.AblationJVMReuse(short)
		sb.WriteString("Ablation — JVM reuse (Table III rows 5-6):\n")
		sb.WriteString(jvm.Comparison.Format())
		disk := experiments.AblationDedicatedDisk(short)
		sb.WriteString("Ablation — dedicated localization storage class under dfsIO (§V-B):\n")
		sb.WriteString(disk.Comparison.Format())
		ord := experiments.AblationOrdering(short)
		sb.WriteString("Ablation — FIFO vs Fair ordering behind a large job:\n")
		sb.WriteString(ord.Comparison.Format())
		return sb.String()
	})
	run("multitenant", func() string { return experiments.MultiTenant(short).Format() })
	run("failures", func() string { return experiments.FormatFailureSweep(experiments.FailureSweep(short)) })
	run("extensions", func() string {
		var sb strings.Builder
		sb.WriteString(experiments.FormatExtensionSampling(experiments.ExtensionSampling(short * 2)))
		svc := experiments.ExtensionCacheService(short)
		sb.WriteString(fmt.Sprintf("Extension — §V-B caching service: cache hit rate %.2f\n", svc.HitRate))
		sb.WriteString(svc.Comparison.Format())
		return sb.String()
	})
}
