package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// TestMain lets the test binary stand in for sdbench when the harness
// re-executes itself with -exec to run the miner.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-exec" {
		os.Exit(execMain(os.Args[2:], os.Stderr))
	}
	os.Exit(m.Run())
}

func TestTreeDeterministicPerSeed(t *testing.T) {
	type tree struct {
		queries int
		seed    int64
		chatter bool
	}
	// hash writes the trees one over the other into one directory and
	// hashes what the last one left.
	hash := func(trees ...tree) string {
		dir := filepath.Join(t.TempDir(), "tree")
		for _, tr := range trees {
			if _, err := writeTree(simulate(tr.queries, tr.seed), dir, tr.chatter); err != nil {
				t.Fatal(err)
			}
		}
		h, err := treeSHA256(dir)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	a, b, c := hash(tree{12, 97, false}), hash(tree{12, 97, false}), hash(tree{12, 131, false})
	if a != b {
		t.Errorf("seed 97 gave two trees: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 97 and 131 gave the same tree %s", a)
	}
	// A tree rewritten over others, larger or with chatter, is the tree
	// written into an empty directory.
	if d := hash(tree{20, 131, false}, tree{8, 5, true}, tree{12, 97, false}); d != a {
		t.Errorf("seed 97 written over other trees: %s, written fresh: %s", d, a)
	}
}

func TestChatterLeavesReportUnchanged(t *testing.T) {
	sink := simulate(20, 97)
	pristine, noisy := filepath.Join(t.TempDir(), "pristine"), filepath.Join(t.TempDir(), "chatter")
	n0, err := writeTree(sink, pristine, false)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := writeTree(sink, noisy, true)
	if err != nil {
		t.Fatal(err)
	}
	if n1 <= n0*5 {
		t.Fatalf("chatter tree has %d lines, pristine %d: chatter missing", n1, n0)
	}
	want, rep, err := referenceJSON(pristine)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := referenceJSON(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Apps) != 20 {
		t.Fatalf("pristine report has %d apps, want 20", len(rep.Apps))
	}
	if got != want {
		t.Error("chatter changed the report")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{100, 0.99, false, 0},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{100, 0.9, true, 90},
		{99, 0.9, false, 0},
		{20, 0.5, true, 10},
		{19, 0.5, false, 0},
	} {
		got, err := percentile(xs(c.n), c.p)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("percentile(1..%d, %g) = %v, %v; want %v, ok=%v", c.n, c.p, got, err, c.want, c.ok)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3, ok := quartiles(xs(10)); !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, %v; want 2.75, 8.25", q1, q3, ok)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd: []metricSpec{
			{Name: "lat_ms", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1},
		},
	}
	ledgerOf := func(lat, rate []float64) *ledger {
		var s set
		for i := range lat {
			r := newResult("w", false)
			r.Metrics["lat_ms"], r.Metrics["rate"] = lat[i], rate[i]
			s.Results = append(s.Results, r)
		}
		return &ledger{Sets: []set{s}}
	}
	steady := []float64{100, 101, 99, 100, 100, 102, 98}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{50, 150, 100, 70, 130, 90, 110}
	for _, c := range []struct {
		name          string
		old, new      *ledger
		lat, rateWant string
	}{
		{"unchanged", ledgerOf(steady, steady), ledgerOf(steady, steady), "same", "same"},
		{"slower", ledgerOf(steady, steady), ledgerOf(scale(steady, 1.2), scale(steady, 0.8)), "worse", "worse"},
		{"faster", ledgerOf(steady, steady), ledgerOf(scale(steady, 0.8), scale(steady, 1.2)), "better", "better"},
		{"within bound", ledgerOf(steady, steady), ledgerOf(scale(steady, 1.05), scale(steady, 0.95)), "same", "same"},
		{"noisy", ledgerOf(noisy, noisy), ledgerOf(scale(noisy, 0.97), scale(noisy, 1.03)), "unresolved", "unresolved"},
		{"noisy, every new run better", ledgerOf(noisy, noisy), ledgerOf(scale(noisy, 0.3), scale(noisy, 3.1)), "better", "better"},
		{"one run each, small win", ledgerOf([]float64{100}, []float64{100}), ledgerOf([]float64{99.9}, []float64{100.1}), "unresolved", "unresolved"},
		{"one run each, large win", ledgerOf([]float64{100}, []float64{100}), ledgerOf([]float64{50}, []float64{200}), "unresolved", "unresolved"},
		{"one run each, worse", ledgerOf([]float64{100}, []float64{100}), ledgerOf([]float64{130}, []float64{70}), "unresolved", "unresolved"},
		{"three runs each", ledgerOf(steady[:3], steady[:3]), ledgerOf(steady[:3], steady[:3]), "unresolved", "unresolved"},
		{"four runs each, worse", ledgerOf(steady[:4], steady[:4]), ledgerOf(scale(steady[:4], 1.3), scale(steady[:4], 0.7)), "worse", "worse"},
	} {
		got := map[string]string{}
		for _, v := range compareLedgers(spec, c.old, c.new) {
			got[v.metric] = v.verdict
		}
		if got["lat_ms"] != c.lat || got["rate"] != c.rateWant {
			t.Errorf("%s: verdicts %v; want lat_ms %s, rate %s", c.name, got, c.lat, c.rateWant)
		}
	}
}

// TestSmokeAllWorkloads runs every workload, end to end and traced, at
// smoke scale through the same entry point as the command line, and
// checks the contract of the last output line.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sdchecker subprocesses")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	// Build once up front: compile time is not part of the budget.
	if _, err := buildSDChecker(root, filepath.Join(root, ".bench_build", "bin")); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run([]string{"-scale", "smoke", "-seconds", "1", "-out", t.TempDir()}, &stdout, &stderr)
	elapsed := time.Since(start)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if elapsed > 15*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v, budget 15s", elapsed)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", last.Correct, last.Attempted, last.Failed, stdout.String())
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			got, ok := last.Metrics[w.Name+"/"+m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s/%s: got %+v, present=%v; want unit %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}
		for _, m := range spec.EndToEnd {
			if v := last.Metrics[w.Name+"/"+m.Name].Value; !(v > 0) {
				t.Errorf("%s/%s = %v, want > 0", w.Name, m.Name, v)
			}
		}
	}
}

// treeSHA256 hashes a tree's relative paths and contents in walk order,
// so two trees hash equal exactly when they hold the same files.
func treeSHA256(dir string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := io.Copy(h, f); err != nil {
			return err
		}
		h.Write([]byte{0})
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}
