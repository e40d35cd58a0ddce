package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json: the metric names, units, directions and
// regression bounds every run and comparison is held to.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds < 1 {
		return nil, fmt.Errorf("%s: run_seconds must be at least 1", path)
	}
	return &s, nil
}

// set is one benchmark invocation's results; a ledger is a list of sets.
type set struct {
	Seed    int64     `json:"seed"`
	Seconds int       `json:"seconds"`
	Scale   string    `json:"scale"`
	Meta    meta      `json:"meta"`
	Results []*result `json:"results"`
}

type meta struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	TreeFS     string  `json:"tree_filesystem"`
	Date       string  `json:"date"`
	CPUSteal   float64 `json:"cpu_steal_frac"` // share of the machine's CPU time stolen by the hypervisor during the set
}

type ledger struct {
	Sets []set `json:"sets"`
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// appendLedger adds one set to the ledger file at path, creating it.
func appendLedger(path string, s set) error {
	l, err := readLedger(path)
	if errors.Is(err, fs.ErrNotExist) {
		l, err = &ledger{}, nil
	}
	if err != nil {
		return err
	}
	l.Sets = append(l.Sets, s)
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// verdict is the comparison of one (metric, workload) pair.
type verdict struct {
	metric, workload     string
	old, new             float64 // medians over runs
	oldSpread, newSpread float64
	nOld, nNew           int
	verdict              string
}

// minSpreadRuns is the fewest runs a side needs before its run-to-run
// spread means anything. With fewer, nothing can be decided: one run of
// serve-tail read 612 ms and the next, of the same commit and seed,
// 800 ms.
const minSpreadRuns = 4

// compareLedgers applies the end-to-end bounds. For each (metric,
// workload) it pools every untraced run of each file and reports:
//   - unresolved: a side has fewer than minSpreadRuns runs;
//   - worse: the new median is worse than the old by more than the bound;
//   - unresolved: not worse, but either side's run-to-run spread (the
//     interquartile distance as a share of the median) exceeds the bound
//     and not every new run is better than every old run;
//   - better: the new median is better by more than the bound;
//   - same: otherwise.
func compareLedgers(spec *benchSpec, old, new *ledger) []verdict {
	values := func(l *ledger, workload, metric string) []float64 {
		var xs []float64
		for _, s := range l.Sets {
			for _, r := range s.Results {
				if r.Workload != workload || r.Traced {
					continue
				}
				if v, ok := r.Metrics[metric]; ok {
					xs = append(xs, v)
				}
			}
		}
		return xs
	}
	var out []verdict
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(old, w.Name, m.Name), values(new, w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict{metric: m.Name, workload: w.Name, old: median(a), new: median(b),
				oldSpread: spread(a), newSpread: spread(b), nOld: len(a), nNew: len(b)}
			// gain > 0 means the new side is better, as a share of the old median.
			gain := (v.new - v.old) / v.old
			if m.Better == "lower" {
				gain = -gain
			}
			allBetter := true
			for _, x := range a {
				for _, y := range b {
					if (m.Better == "lower" && y >= x) || (m.Better == "higher" && y <= x) {
						allBetter = false
					}
				}
			}
			switch {
			case len(a) < minSpreadRuns || len(b) < minSpreadRuns:
				v.verdict = "unresolved"
			case gain < -m.Bound:
				v.verdict = "worse"
			case !allBetter && (v.oldSpread > m.Bound || v.newSpread > m.Bound):
				v.verdict = "unresolved"
			case gain > m.Bound:
				v.verdict = "better"
			default:
				v.verdict = "same"
			}
			out = append(out, v)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].workload < out[j].workload })
	return out
}

func compareFiles(spec *benchSpec, oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readLedger(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "sdbench:", err)
		return 2
	}
	new, err := readLedger(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "sdbench:", err)
		return 2
	}
	worse := 0
	fmt.Fprintf(stdout, "%-16s %-16s %14s %14s %8s %8s  %s\n", "workload", "metric", "old median", "new median", "old IQR", "new IQR", "verdict")
	for _, v := range compareLedgers(spec, old, new) {
		fmt.Fprintf(stdout, "%-16s %-16s %14.4g %14.4g %7.1f%% %7.1f%%  %s (n=%d vs %d)\n",
			v.workload, v.metric, v.old, v.new, 100*v.oldSpread, 100*v.newSpread, v.verdict, v.nOld, v.nNew)
		if v.verdict == "worse" {
			worse++
		}
	}
	if worse > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse than their bound\n", worse)
		return 1
	}
	return 0
}
