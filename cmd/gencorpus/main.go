// Command gencorpus regenerates SDchecker's checked-in test inputs from
// real simulator output:
//
//   - testdata/golden/<case>/input/ — complete log trees for the golden
//     tests (run `go test ./internal/core -run TestGolden -update` after
//     regenerating to refresh the expected JSON);
//   - testdata/corpus/ — seed files for the FuzzParseReader /
//     FuzzStreamFeed fuzz targets, including degraded (torn, truncated,
//     skewed) variants and RM logs replayed from the model checker's
//     minimized counterexample traces (internal/mc/testdata/cx), whose
//     crash/expiry/resync interleavings no random workload reproduces.
//
// The inputs are checked in; rerun this tool only when the simulator's
// log vocabulary changes.
//
//	go run ./cmd/gencorpus -out internal/core/testdata
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/log4j"
	"repro/internal/mc"
	"repro/internal/sim"
	"repro/internal/spark"
	"repro/internal/workload"
	"repro/internal/yarn"
)

func main() {
	out := flag.String("out", "internal/core/testdata", "output directory")
	cxDir := flag.String("cx", "internal/mc/testdata/cx", "model-checker counterexample traces to replay into corpus seeds")
	mcOnly := flag.Bool("mc-only", false, "regenerate only the model-checker corpus seeds (leave golden trees untouched)")
	flag.Parse()

	if *mcOnly {
		corpus := filepath.Join(*out, "corpus")
		must(os.MkdirAll(corpus, 0o755))
		writeMCSeeds(corpus, *cxDir)
		return
	}

	pristine := runScenario(3, yarn.FaultSchedule{})
	writeTree(pristine, filepath.Join(*out, "golden", "pristine", "input"))

	faulted := runScenario(3, yarn.FaultSchedule{Crashes: []yarn.NodeCrash{
		{Node: 1, AtMs: 8_000, DownForMs: 30_000},
		{Node: 2, AtMs: 8_200, DownForMs: 35_000},
		{Node: 3, AtMs: 8_400, DownForMs: 0},
		{Node: 4, AtMs: 8_600, DownForMs: 40_000},
	}})
	writeTree(faulted, filepath.Join(*out, "golden", "faulted", "input"))

	// Fuzz seeds: a pristine RM log, a faulted RM log, a degraded run's
	// worth of torn/truncated/skewed files, and one container stderr.
	degraded := runScenario(2, yarn.FaultSchedule{Crashes: []yarn.NodeCrash{
		{Node: 0, AtMs: 7_000, DownForMs: 20_000},
	}}).Damaged(log4j.DegradeConfig{
		DropProb: 0.05, TruncateProb: 0.05, TearProb: 0.05,
		GarbageProb: 0.03, SkewMaxMs: 1500, Seed: 99,
	})
	corpus := filepath.Join(*out, "corpus")
	must(os.MkdirAll(corpus, 0o755))
	writeSeed(corpus, "rm-pristine.log", pristine, yarn.RMLogFile)
	writeSeed(corpus, "rm-faulted.log", faulted, yarn.RMLogFile)
	writeSeed(corpus, "rm-degraded.log", degraded, yarn.RMLogFile)
	nmDone, errDone := false, false
	for _, f := range degraded.Files() {
		if !nmDone && strings.Contains(f, "nodemanager") {
			writeSeed(corpus, "nm-degraded.log", degraded, f)
			nmDone = true
		}
		if !errDone && strings.HasSuffix(f, "/stderr") {
			writeSeed(corpus, "stderr.log", degraded, f)
			errDone = true
		}
	}
	writeMCSeeds(corpus, *cxDir)
}

// writeMCSeeds replays each checked-in model-checker counterexample and
// writes the resulting RM log as a fuzz seed. One extra seed replays the
// stale-epoch trace with the NM epoch guard chaos-disabled: its log shows
// containers resurrected across NM incarnations — exactly the torn
// lifecycle shapes the stream parser must survive.
func writeMCSeeds(corpus, cxDir string) {
	files, err := filepath.Glob(filepath.Join(cxDir, "*.json"))
	must(err)
	for _, file := range files {
		cx, err := mc.ReadCounterexample(file)
		must(err)
		name := strings.TrimSuffix(filepath.Base(file), ".json")
		w, _ := mc.Replay(cx.Config, cx.Trace)
		writeSeed(corpus, "mc-"+name+".log", w.RM().Sink, yarn.RMLogFile)
		if name == "stale-epoch-reservation" {
			chaos := cx.Config
			chaos.BreakEpochGuard = true
			w, _ = mc.Replay(chaos, cx.Trace)
			writeSeed(corpus, "mc-"+name+"-chaos.log", w.RM().Sink, yarn.RMLogFile)
		}
	}
}

// runScenario drives a small cluster through n TPC-H queries and returns
// the log sink.
func runScenario(n int, faults yarn.FaultSchedule) *log4j.Sink {
	opts := experiments.DefaultOptions()
	opts.Seed = 20260806
	opts.Cluster = cluster.DefaultConfig()
	opts.Cluster.Workers = 6
	opts.Faults = faults
	s := experiments.NewScenario(opts)
	tables := workload.CreateTPCHTables(s.FS, 512)
	for i := 0; i < n; i++ {
		cfg := spark.DefaultConfig(workload.TPCHQuery(i*7+1, 512, tables))
		s.Eng.At(sim.Time(int64(i)*4000+2000), func() { spark.Submit(s.RM, s.FS, cfg) })
	}
	s.Run(sim.Time(600 * sim.Second))
	return s.Sink
}

func writeTree(sink *log4j.Sink, dir string) {
	must(os.RemoveAll(dir))
	must(os.MkdirAll(dir, 0o755))
	must(sink.WriteDir(dir))
	fmt.Printf("wrote %s (%d files, %d lines)\n", dir, len(sink.Files()), sink.TotalLines())
}

func writeSeed(dir, name string, sink *log4j.Sink, file string) {
	lines := sink.Lines(file)
	must(os.WriteFile(filepath.Join(dir, name), []byte(strings.Join(lines, "\n")+"\n"), 0o644))
	fmt.Printf("wrote %s (%d lines from %s)\n", filepath.Join(dir, name), len(lines), file)
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gencorpus:", err)
		os.Exit(1)
	}
}
