// Command sdchecker is the paper's tool: an offline log miner that
// decomposes the job scheduling delay of data analytics applications.
//
// Point it at a directory of YARN and Spark logs (as written by
// cmd/simcluster, or a real cluster's collected logs in the same log4j
// format):
//
//	sdchecker -dir ./logs                 # aggregate decomposition report
//	sdchecker -dir ./logs -graph 1        # scheduling graph of app seq 1
//	sdchecker -dir ./logs -dot 1          # same graph in Graphviz DOT
//	sdchecker -dir ./logs -bugs           # allocated-but-unused containers
//	sdchecker -dir ./logs -per-app        # one decomposition line per app
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/slo"
)

func main() {
	var (
		dir      = flag.String("dir", "", "log directory tree to analyze (required)")
		workers  = flag.Int("workers", 0, "worker goroutines: offline they walk the tree and parse its files, live they ingest (0 = GOMAXPROCS); output is byte-identical at any setting")
		graph    = flag.Int("graph", 0, "print the scheduling graph (ASCII) for the app with this sequence number")
		path     = flag.Int("path", 0, "print the scheduling critical path for the app with this sequence number")
		dot      = flag.Int("dot", 0, "print the scheduling graph (Graphviz DOT) for the app with this sequence number")
		bugs     = flag.Bool("bugs", false, "print only the bug-detection report")
		perApp   = flag.Bool("per-app", false, "print one decomposition line per application")
		csv      = flag.Bool("csv", false, "emit per-application decompositions as CSV")
		jsonOut  = flag.Bool("json", false, "emit per-application traces, decompositions and critical paths as JSON")
		cdfCSV   = flag.Bool("cdf-csv", false, "emit the Fig-4a CDF series as CSV")
		compCSV  = flag.String("component-csv", "", "emit one per-container component as CSV (acquisition|localization|launching|queueing)")
		validate = flag.Bool("validate", false, "check traces for temporal consistency (clock skew, missing files)")
		explain  = flag.String("explain", "", "print the tail-attribution report for this delay component (e.g. total, alloc): the cells, heavy-hitter apps, and exemplars dominating the target quantile")
		quant    = flag.Float64("q", 0.99, "with -explain: target quantile in (0, 1]")
		htmlOut  = flag.String("html", "", "write a self-contained HTML report (SVG CDFs + per-app Gantt timelines) to this file")
		follow   = flag.Bool("follow", false, "keep watching the directory for appended lines and new files, reprinting the summary on change")
		serve    = flag.String("serve", "", "address (e.g. :8080) to serve live /metrics, /apps, /trace/<seq>, /aggregate, /explain, /slo and /healthz on while tailing the directory")
		retain   = flag.Int("retain", 4096, "with -serve: keep at most this many completed applications in memory (-1 = unlimited)")
		maxApps  = flag.Int("max-apps", 16384, "with -serve: hard cap on tracked applications, complete or not — degraded logs can mint unbounded IDs (-1 = unlimited)")
		sloFile  = flag.String("slo", "", "with -serve: SLO rule file (one `name: p99(component[, queue=Q][, node=N]) < 500ms over 5m [burn 1m]` per line)")
		selfSLO  = flag.String("self-slo", "", "with -serve: self-SLO rule file over the pipeline's own stages (read|parse|forward|decompose|aggregate|scan); default is `pipeline-scan-p99: p99(scan) < 10000ms over 5m`")
		debug    = flag.Bool("debug", false, "with -serve: expose net/http/pprof under /debug/pprof/ (off by default)")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "sdchecker: -dir is required")
		flag.Usage()
		os.Exit(2)
	}
	// Output modes are mutually exclusive, and none of them combine with
	// the live modes (-follow tails a terminal, -serve tails HTTP): reject
	// ambiguous combinations instead of silently picking one.
	outputModes := 0
	for _, set := range []bool{
		*graph > 0, *path > 0, *dot > 0, *bugs, *perApp, *csv, *jsonOut,
		*cdfCSV, *compCSV != "", *validate, *htmlOut != "", *explain != "",
	} {
		if set {
			outputModes++
		}
	}
	qSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "q" {
			qSet = true
		}
	})
	if msg := modeConflict(*follow, *serve, outputModes, *sloFile, *selfSLO, *debug, *explain, qSet); msg != "" {
		fmt.Fprintln(os.Stderr, "sdchecker: "+msg)
		flag.Usage()
		os.Exit(2)
	}
	run(*dir, *workers, *graph, *path, *dot, *bugs, *perApp, *csv, *jsonOut, *cdfCSV,
		*compCSV, *validate, *htmlOut, *explain, *quant, *follow, *serve, *retain, *maxApps, *sloFile, *selfSLO, *debug)
}

// modeConflict validates the flag combination, returning a diagnostic
// for the first conflict found or "" when the combination is legal.
// Output modes are mutually exclusive, and none of them combine with
// the live modes (-follow tails a terminal, -serve tails HTTP); the
// serve-only knobs require -serve.
func modeConflict(follow bool, serve string, outputModes int, sloFile, selfSLOFile string, debug bool, explain string, qSet bool) string {
	switch {
	case follow && serve != "":
		return "-follow and -serve are mutually exclusive"
	case (follow || serve != "") && outputModes > 0:
		return "live modes (-follow, -serve) cannot be combined with output flags"
	case sloFile != "" && serve == "":
		return "-slo requires -serve"
	case selfSLOFile != "" && serve == "":
		return "-self-slo requires -serve"
	case debug && serve == "":
		return "-debug requires -serve"
	case qSet && explain == "":
		return "-q requires -explain"
	case outputModes > 1:
		return "choose at most one output mode"
	}
	return ""
}

// explainReport renders the offline tail-attribution report: the mined
// report's breakdown (attribution on) explained for one component, with
// every exemplar resolved against the report's own traces.
func explainReport(rep *core.Report, component string, q float64) (string, error) {
	if !slices.Contains(core.Components, component) {
		return "", fmt.Errorf("-explain %q: unknown component (one of %s)", component, strings.Join(core.Components, "|"))
	}
	if !(q > 0 && q <= 1) {
		return "", fmt.Errorf("-q %v: quantile must be in (0, 1]", q)
	}
	apps := make(map[string]*core.AppTrace, len(rep.Apps))
	for _, a := range rep.Apps {
		apps[a.ID.String()] = a
	}
	doc := rep.Breakdown().Explain(component, q, core.DefaultExplainCells, func(app string) (*core.AppSummary, bool) {
		if a := apps[app]; a != nil {
			return core.SummarizeApp(a), false
		}
		return nil, false
	})
	return doc.Format(), nil
}

// parseRuleFile loads an SLO rule file with the given component
// vocabulary, exiting with a diagnostic on failure.
func parseRuleFile(path string, components []string) []slo.Rule {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdchecker: %v\n", err)
		os.Exit(1)
	}
	rules, err := slo.ParseRulesFor(f, components)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdchecker: %s: %v\n", path, err)
		os.Exit(1)
	}
	return rules
}

func run(dir string, workers, graph, path, dot int, bugs, perApp, csv, jsonOut, cdfCSV bool,
	compCSV string, validate bool, htmlOut string, explain string, quant float64,
	follow bool, serve string, retain, maxApps int,
	sloFile, selfSLOFile string, debug bool) {

	if serve != "" {
		o := defaultServeOptions(workers)
		o.retain, o.maxApps, o.debug = retain, maxApps, debug
		if sloFile != "" {
			o.rules = parseRuleFile(sloFile, core.Components)
		}
		if selfSLOFile != "" {
			o.selfRules = parseRuleFile(selfSLOFile, obs.Stages)
		}
		if err := serveDir(serve, dir, o); err != nil {
			fmt.Fprintf(os.Stderr, "sdchecker: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if follow {
		if err := followDir(dir, workers, os.Stdout, nil); err != nil {
			fmt.Fprintf(os.Stderr, "sdchecker: %v\n", err)
			os.Exit(1)
		}
		return
	}

	rep, err := core.MineDir(dir, workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdchecker: %v\n", err)
		os.Exit(1)
	}
	for _, w := range rep.Warnings {
		fmt.Fprintf(os.Stderr, "sdchecker: warning: %s\n", w)
	}

	if htmlOut != "" {
		html := rep.HTMLReport("SDchecker report: "+dir, 8)
		if err := os.WriteFile(htmlOut, []byte(html), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sdchecker: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote HTML report to %s\n", htmlOut)
		return
	}

	switch {
	case explain != "":
		out, err := explainReport(rep, explain, quant)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdchecker: %v\n", err)
			os.Exit(2)
		}
		fmt.Print(out)
	case path > 0:
		for _, a := range rep.Apps {
			if a.ID.Seq != path {
				continue
			}
			fmt.Print(core.FormatCriticalPath(core.CriticalPath(a)))
			return
		}
		fmt.Fprintf(os.Stderr, "sdchecker: no application with sequence %d\n", path)
		os.Exit(1)
	case jsonOut:
		// Streamed app by app; a failed write (a full disk, a closed
		// pipe) must not pass for a complete report.
		bw := bufio.NewWriterSize(os.Stdout, 64<<10)
		err := rep.WriteJSON(bw)
		if err == nil {
			bw.WriteByte('\n') // a failed write is sticky: Flush returns it
			err = bw.Flush()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdchecker: %v\n", err)
			os.Exit(1)
		}
	case csv:
		fmt.Print(rep.CSV())
	case cdfCSV:
		fmt.Print(rep.CDFCSV(100))
	case compCSV != "":
		out, err := rep.ComponentCSV(compCSV)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdchecker: %v\n", err)
			os.Exit(2)
		}
		fmt.Print(out)
	case validate:
		problems := rep.ValidateAll()
		if len(problems) == 0 {
			fmt.Printf("all %d application traces are temporally consistent\n", len(rep.Apps))
			return
		}
		for _, p := range problems {
			fmt.Println(p)
		}
		os.Exit(1)
	case graph > 0 || dot > 0:
		seq := graph
		ascii := true
		if dot > 0 {
			seq = dot
			ascii = false
		}
		for _, a := range rep.Apps {
			if a.ID.Seq != seq {
				continue
			}
			g := core.BuildGraph(a)
			if ascii {
				fmt.Print(g.ASCII())
			} else {
				fmt.Print(g.DOT())
			}
			return
		}
		fmt.Fprintf(os.Stderr, "sdchecker: no application with sequence %d\n", seq)
		os.Exit(1)
	case bugs:
		if len(rep.Bugs) == 0 {
			fmt.Println("no allocated-but-unused containers found")
			return
		}
		fmt.Printf("%d allocated-but-unused containers (cf. SPARK-21562):\n", len(rep.Bugs))
		for _, f := range rep.Bugs {
			fmt.Printf("  %s\n", f)
		}
	case perApp:
		fmt.Printf("%-42s %8s %8s %8s %8s %8s %8s %8s  %s\n",
			"application", "total", "am", "in", "out", "driver", "exec", "job", "status")
		for _, a := range rep.Apps {
			d := a.Decomp
			if d == nil {
				continue
			}
			status := "complete"
			if !d.Complete {
				status = "partial"
				if len(d.Anomalies) > 0 {
					status += " (" + strings.Join(d.Anomalies, "; ") + ")"
				}
			}
			fmt.Printf("%-42s %8d %8d %8d %8d %8d %8d %8d  %s\n",
				a.ID, d.Total, d.AM, d.In, d.Out, d.Driver, d.Executor, d.JobRuntime, status)
		}
	default:
		fmt.Print(rep.Format())
	}
}
