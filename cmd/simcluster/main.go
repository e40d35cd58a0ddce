// Command simcluster runs the simulated 26-node Spark-on-YARN testbed,
// submits a TPC-H-over-trace workload, and writes the resulting log tree
// (ResourceManager log, per-NodeManager logs, per-container stderr files)
// to a directory that cmd/sdchecker can analyze:
//
//	simcluster -queries 200 -out ./logs
//	sdchecker -dir ./logs
//
// Files already in the -out directory are overwritten in place, and a
// file the run does not write is left there: simcluster -out D over a
// larger earlier run leaves D holding files of both runs, which
// sdchecker mines as one. Point -out at an empty or missing directory
// for a tree of this run alone.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/docker"
	"repro/internal/experiments"
	"repro/internal/spark"
	"repro/internal/yarn"
)

func main() {
	var (
		config    = flag.String("config", "", "JSON scenario spec (overrides the individual flags; see internal/experiments.Spec)")
		queries   = flag.Int("queries", 200, "number of TPC-H queries to submit")
		datasetMB = flag.Float64("dataset-mb", 2048, "TPC-H dataset size in MB")
		executors = flag.Int("executors", 4, "executors per query")
		gapMs     = flag.Float64("gap-ms", 2600, "mean submission gap in ms")
		scheduler = flag.String("scheduler", "ce", "scheduler: ce (centralized Capacity) or de (distributed opportunistic)")
		useDocker = flag.Bool("docker", false, "launch containers through Docker")
		seed      = flag.Uint64("seed", 7, "simulation seed")
		out       = flag.String("out", "", "directory to write the log tree to (required); files already there are overwritten, and files this run does not write are kept")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "simcluster: -out is required")
		flag.Usage()
		os.Exit(2)
	}

	var tr experiments.TraceRun
	if *config != "" {
		sp, err := experiments.LoadSpecFile(*config)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simcluster: %v\n", err)
			os.Exit(1)
		}
		tr, err = sp.ToTraceRun()
		if err != nil {
			fmt.Fprintf(os.Stderr, "simcluster: %v\n", err)
			os.Exit(1)
		}
	} else {
		tr = experiments.DefaultTraceRun(*queries)
		tr.DatasetMB = *datasetMB
		tr.MeanGapMs = *gapMs
		tr.Seed = *seed
		opportunistic := *scheduler == "de"
		if opportunistic {
			tr.Opts.Yarn.Scheduler = yarn.SchedOpportunistic
		}
		tr.MutateSpark = func(i int, cfg *spark.Config) {
			cfg.Executors = *executors
			cfg.Opportunistic = opportunistic
			if *useDocker {
				cfg.Runtime = docker.RuntimeDocker
			}
		}
	}

	s, rep := tr.Run()
	if err := s.Sink.WriteDir(*out); err != nil {
		fmt.Fprintf(os.Stderr, "simcluster: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("simulated %d queries to virtual t=%ds; %d log lines in %d files written to %s\n",
		tr.Queries, int64(s.Eng.Now())/1000, s.Sink.TotalLines(), len(s.Sink.Files()), *out)
	fmt.Printf("quick check — total scheduling delay p50=%.1fs p95=%.1fs (run sdchecker -dir %s for the full report)\n",
		rep.Total.Median()/1000, rep.Total.P95()/1000, *out)
}
