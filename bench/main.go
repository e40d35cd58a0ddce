// Command sdbench is SDchecker's benchmark: end-to-end metrics for the
// offline miner and the live -serve tailer on fixed-seed simulated log
// trees, and a separate traced run that times each layer of
// internal/core and scrapes the server's own /metrics.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload mine-tree --seed 97 --seconds 10 --trace 0
//	(cd bench && go run . -seed 97)               # every workload, both runs
//	(cd bench && go run . -compare OLD.json NEW.json)
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; see README.md for the metrics,
// the workloads and why each was chosen.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// sizes are the input sizes of one scale.
type sizes struct {
	treeQueries    int           // mine-tree and serve-backfill
	chatterQueries int           // mine-chatter
	tailRate       float64       // serve-tail offered load, lines/s
	tailDrain      time.Duration // serve-tail wait for the last apps after load
	setupReps      int           // set-ups per run; setup_s is their median
	minRuns        int           // fewest timed runs per mine/backfill run
	layerReps      int           // traced and untraced layer passes each
}

var scales = map[string]sizes{
	"full":  {treeQueries: 2000, chatterQueries: 500, tailRate: 4000, tailDrain: 5 * time.Second, setupReps: 3, minRuns: 3, layerReps: 3},
	"smoke": {treeQueries: 24, chatterQueries: 8, tailRate: 1500, tailDrain: 3 * time.Second, setupReps: 2, minRuns: 2, layerReps: 1},
}

// env is what every workload run shares.
type env struct {
	root     string // repository root
	work     string // scratch space for trees and the binary
	workload string
	bin      string // built sdchecker
	seed     int64
	seconds  int
	sz       sizes
	log      io.Writer
}

func (e *env) treeDir() string        { return filepath.Join(e.work, "trees", e.workload) }
func (e *env) runTime() time.Duration { return time.Duration(e.seconds) * time.Second }
func (e *env) tailTotal() int         { return int(e.sz.tailRate * float64(e.seconds)) }

// result is one workload run's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     map[string]string  `json:"notes,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
}

func newResult(workload string, traced bool) *result {
	return &result{Workload: workload, Traced: traced, Metrics: map[string]float64{}, Notes: map[string]string{}}
}

// set records a metric; NaN (no samples) leaves it unset.
func (r *result) set(name string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.Metrics[name] = v
	if note != "" {
		r.Notes[name] = note
	}
}

// setPercentile records the p-quantile of xs, or leaves the metric unset
// with the reason when the sample is too small for it.
func (r *result) setPercentile(name string, xs []float64, p float64) {
	v, err := percentile(xs, p)
	if err != nil {
		r.Notes[name] = err.Error()
		return
	}
	r.set(name, v, fmt.Sprintf("p%g of n=%d", p*100, len(xs)))
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	const maxProblems = 20
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// check counts one checked operation and reports whether it passed.
func (r *result) check(ok bool, format string, args ...any) bool {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
	return ok
}

func (r *result) correct() bool { return r.Failed == 0 }

// runWorkload runs one workload untraced (the end-to-end metrics) or
// traced (the per-layer metrics).
func runWorkload(e *env, w workload, traced bool, out string) (*result, error) {
	r := newResult(w.name, traced)
	reps := e.sz.setupReps
	if traced {
		reps = 1
	}
	// Every set-up rewrites the workload's tree in place (see writeTree).
	// The file system is synced before the set-ups and before the
	// measurement, so write-back from this run or the one before it
	// overlaps no timed interval.
	syscall.Sync()
	var setups []float64
	var in *input
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		var err error
		if in, err = w.gen(e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if w.verify != nil {
		if err := w.verify(e, in, r); err != nil {
			return nil, fmt.Errorf("%s reference: %w", w.name, err)
		}
	}
	syscall.Sync()
	if !traced {
		r.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups %.3v", reps, setups))
		if err := w.measure(e, in, r); err != nil {
			return nil, err
		}
		return r, nil
	}
	t := newTracer(w.name)
	if w.serve != nil {
		var err error
		t.do("serve", func() { err = w.serve(e, in, r) })
		if err != nil {
			return nil, err
		}
	}
	if err := traceLayers(e, t, in, r); err != nil {
		return nil, err
	}
	printSelfTimes(e.log, t, r)
	doc, err := t.chromeTrace()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(out, "trace-"+w.name+".json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "  wrote %s (open in https://ui.perfetto.dev)\n", path)
	return r, nil
}

// findRoot walks up from the working directory to the repository root:
// the directory holding BENCHMARK.json next to cmd/sdchecker.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		_, e1 := os.Stat(filepath.Join(dir, "BENCHMARK.json"))
		_, e2 := os.Stat(filepath.Join(dir, "cmd", "sdchecker"))
		if e1 == nil && e2 == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (BENCHMARK.json next to cmd/sdchecker) above the working directory")
		}
		dir = parent
	}
}

// filesystem names the filesystem dir lives on.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x9123683e:
		return "btrfs"
	case 0x58465342:
		return "xfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// cpuTicks returns the machine's total and stolen CPU time from /proc/stat,
// in clock ticks. Steal is time the hypervisor gave a virtual CPU of this
// machine to another guest while it had work; the ledger records its
// share of each set, so a set slowed by its neighbours shows as such.
func cpuTicks() (total, steal float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("/proc/stat: no cpu line")
	}
	// user nice system idle iowait irq softirq steal
	for i, s := range f[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("sdbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	wl := fl.String("workload", strings.Join(names, ","), "comma-separated workloads to run")
	seed := fl.Int64("seed", 97, "input seed: the same seed gives the same log trees")
	seconds := fl.Int("seconds", 0, "seconds each run measures (0 = BENCHMARK.json run_seconds)")
	trace := fl.Int("trace", -1, "0 = end-to-end run, 1 = traced per-layer run, -1 = both")
	scale := fl.String("scale", "full", "input sizes: full or smoke")
	out := fl.String("out", "", "directory for traces and the result ledger (default .bench_build/out)")
	compare := fl.Bool("compare", false, "compare two result files: -compare OLD NEW; exits 1 if any metric got worse")
	execCmd := fl.Bool("exec", false, "run the remaining arguments as a command and report its wall time and peak RSS (used by the harness itself)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *execCmd {
		return execMain(fl.Args(), stderr)
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "sdbench:", err)
		return 1
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "sdbench:", err)
		return 1
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "sdbench: -compare needs two result files")
			return 2
		}
		return compareFiles(spec, fl.Arg(0), fl.Arg(1), stdout, stderr)
	}
	sz, ok := scales[*scale]
	if !ok {
		fmt.Fprintf(stderr, "sdbench: -scale %q: must be full or smoke\n", *scale)
		return 2
	}
	if *trace < -1 || *trace > 1 {
		fmt.Fprintln(stderr, "sdbench: -trace must be 0, 1 or -1")
		return 2
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "sdbench: -seconds must be at least 1")
		return 2
	}
	var chosen []workload
	for _, n := range strings.Split(*wl, ",") {
		w, ok := findWorkload(strings.TrimSpace(n))
		if !ok {
			fmt.Fprintf(stderr, "sdbench: unknown workload %q (one of %s)\n", n, strings.Join(names, ", "))
			return 2
		}
		chosen = append(chosen, w)
	}
	if *out == "" {
		*out = filepath.Join(root, ".bench_build", "out")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "sdbench:", err)
		return 1
	}
	e := &env{root: root, work: filepath.Join(root, ".bench_build", "work"), seed: *seed,
		seconds: *seconds, sz: sz, log: stderr}
	results, err := runAll(e, chosen, *trace, *out, *scale, spec, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "sdbench:", err)
		return 1
	}
	if err := printLast(stdout, spec, results); err != nil {
		fmt.Fprintln(stderr, "sdbench:", err)
		return 1
	}
	return 0
}

// runAll builds sdchecker, runs every chosen workload, prints each
// result and appends the set to the ledger in out.
func runAll(e *env, chosen []workload, trace int, out, scale string, spec *benchSpec, stdout io.Writer) ([]*result, error) {
	if err := os.MkdirAll(filepath.Join(e.work, "trees"), 0o755); err != nil {
		return nil, err
	}
	bin, err := buildSDChecker(e.root, filepath.Join(e.root, ".bench_build", "bin"))
	if err != nil {
		return nil, err
	}
	e.bin = bin
	total0, steal0, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	s := set{Seed: e.seed, Seconds: e.seconds, Scale: scale, Meta: meta{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		TreeFS: filesystem(filepath.Join(e.work, "trees")), Date: time.Now().UTC().Format("2006-01-02"),
	}}
	modes := []bool{false, true}
	if trace >= 0 {
		modes = []bool{trace == 1}
	}
	for _, w := range chosen {
		for _, traced := range modes {
			e.workload = w.name
			fmt.Fprintf(e.log, "== %s (seed %d, %d s, traced=%v, trees on %s)\n", w.name, e.seed, e.seconds, traced, s.Meta.TreeFS)
			r, err := runWorkload(e, w, traced, out)
			if err != nil {
				return nil, err
			}
			if err := complete(spec, r); err != nil {
				return nil, err
			}
			printResult(stdout, spec, r)
			s.Results = append(s.Results, r)
		}
	}
	total1, steal1, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	if total1 > total0 {
		s.Meta.CPUSteal = (steal1 - steal0) / (total1 - total0)
	}
	return s.Results, appendLedger(filepath.Join(out, "sdbench.json"), s)
}

// metricsOf returns the BENCHMARK.json metrics a run reports: end-to-end
// untraced, per-layer traced.
func metricsOf(spec *benchSpec, traced bool) []metricSpec {
	if traced {
		return spec.PerLayer
	}
	return spec.EndToEnd
}

// complete checks a result against BENCHMARK.json: every end-to-end
// metric is present on an untraced run. A traced run reports 0 for the
// layers its workload does not exercise (no server for mine-*, no load
// generator for serve-backfill).
func complete(spec *benchSpec, r *result) error {
	known := map[string]bool{}
	for _, m := range metricsOf(spec, r.Traced) {
		known[m.Name] = true
		if _, ok := r.Metrics[m.Name]; ok {
			continue
		}
		if !r.Traced {
			return fmt.Errorf("%s: end-to-end metric %s not measured", r.Workload, m.Name)
		}
		r.Metrics[m.Name] = 0
		if r.Notes[m.Name] == "" {
			r.Notes[m.Name] = "not exercised by this workload"
		}
	}
	for name := range r.Metrics {
		if !known[name] {
			return fmt.Errorf("%s: metric %s is not in BENCHMARK.json", r.Workload, name)
		}
	}
	return nil
}

func printResult(w io.Writer, spec *benchSpec, r *result) {
	kind := "end to end"
	if r.Traced {
		kind = "per layer"
	}
	fmt.Fprintf(w, "%s (%s): correct=%v attempted=%d failed=%d\n", r.Workload, kind, r.correct(), r.Attempted, r.Failed)
	for _, m := range metricsOf(spec, r.Traced) {
		fmt.Fprintf(w, "  %-28s %14.4f %-12s %s\n", m.Name, r.Metrics[m.Name], m.Unit, r.Notes[m.Name])
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printLast prints the final JSON line. With one workload the metric keys
// are the names in BENCHMARK.json; with several they are prefixed
// "<workload>/".
func printLast(w io.Writer, spec *benchSpec, results []*result) error {
	units := map[string]string{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	multi := false
	for _, r := range results {
		multi = multi || r.Workload != results[0].Workload
	}
	last := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Correct: true, Metrics: map[string]valueUnit{}}
	for _, r := range results {
		last.Correct = last.Correct && r.correct()
		last.Attempted += r.Attempted
		last.Failed += r.Failed
		for name, v := range r.Metrics {
			key := name
			if multi {
				key = r.Workload + "/" + name
			}
			last.Metrics[key] = valueUnit{v, units[name]}
		}
	}
	if last.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
