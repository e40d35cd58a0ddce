package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/log4j"
	"repro/internal/stats"
)

// Checker is the SDchecker front end: feed it logs, then Analyze.
type Checker struct {
	parser *Parser
}

// New returns an empty checker.
func New() *Checker {
	return &Checker{parser: NewParser()}
}

// AddReader feeds one log file (name decides daemon vs container log).
func (c *Checker) AddReader(name string, r io.Reader) error {
	return c.parser.ParseReader(name, r)
}

// AddSink feeds every file of an in-memory log sink.
func (c *Checker) AddSink(s *log4j.Sink) error {
	for _, f := range s.Files() {
		if err := c.parser.ParseReader(f, s.Reader(f)); err != nil {
			return err
		}
	}
	return nil
}

// AddDir feeds a log directory tree.
func (c *Checker) AddDir(dir string) error {
	return c.parser.ParseDir(dir)
}

// Analyze correlates, decomposes, aggregates, and runs bug detection.
func (c *Checker) Analyze() *Report {
	apps, events := correlateParts([][]Event{c.parser.Events()})
	for _, a := range apps {
		Decompose(a)
	}
	r := buildReport(apps, events)
	r.Warnings = c.parser.Warnings()
	r.FilesParsed, r.LinesParsed = c.parser.Stats()
	return r
}

// ReportFrom rebuilds a report over a subset of application traces —
// used to exclude interference workloads from foreground metrics. Traces
// must already be decomposed (Analyze does this).
func ReportFrom(apps []*AppTrace, events []Event) *Report {
	for _, a := range apps {
		if a.Decomp == nil {
			Decompose(a)
		}
	}
	return buildReport(apps, events)
}

// Merge combines several reports into one (e.g. aggregating repeated runs
// of the same scenario under different seeds for tighter percentiles).
// Application traces are concatenated; duplicate application IDs across
// runs are expected (every seeded run numbers from 1) and kept distinct.
func Merge(reports ...*Report) *Report {
	var apps []*AppTrace
	var events []Event
	files, lines := 0, 0
	var warnings []string
	for _, r := range reports {
		if r == nil {
			continue
		}
		apps = append(apps, r.Apps...)
		events = append(events, r.Events...)
		files += r.FilesParsed
		lines += r.LinesParsed
		warnings = append(warnings, r.Warnings...)
	}
	merged := ReportFrom(apps, events)
	merged.FilesParsed, merged.LinesParsed = files, lines
	merged.Warnings = warnings
	return merged
}

// Filter returns a new report restricted to apps where keep returns true.
func (r *Report) Filter(keep func(a *AppTrace) bool) *Report {
	var kept []*AppTrace
	for _, a := range r.Apps {
		if keep(a) {
			kept = append(kept, a)
		}
	}
	nr := ReportFrom(kept, r.Events)
	nr.Warnings = r.Warnings
	nr.FilesParsed, nr.LinesParsed = r.FilesParsed, r.LinesParsed
	return nr
}

// Report aggregates the per-application decompositions across a run. All
// delay samples are in milliseconds.
type Report struct {
	Apps []*AppTrace
	// Events is every mined event: the traces' events in submission
	// order, each app's in time order, offline and live alike. A mined
	// or analyzed report's traces share it, each Events a slice of it.
	// Merge lays its reports' lists end to end; Filter keeps its
	// report's whole list. Every reader ignores the order.
	Events []Event

	FilesParsed int
	LinesParsed int
	Warnings    []string

	// CompleteApps / PartialApps count decompositions by their Complete
	// flag: partial ones (degraded logs, lost nodes, in-flight apps) are
	// still listed but carry anomaly reasons instead of trusted totals.
	CompleteApps int
	PartialApps  int

	// Per-application samples.
	Job, Total, AM, In, Out *stats.Sample
	Driver, Executor, Alloc *stats.Sample
	Cf, Cl, ClMinusCf       *stats.Sample
	// Normalized samples (paper Fig 4b): Total/Job and each component
	// over Total.
	TotalOverJob, AMOverTotal, InOverTotal, OutOverTotal *stats.Sample

	// Per-container samples.
	Acquisition, Localization, Launching, Queueing *stats.Sample

	// Per-instance-type breakdowns (Fig 9a).
	LaunchingByInstance    map[InstanceType]*stats.Sample
	LocalizationByInstance map[InstanceType]*stats.Sample

	Bugs []BugFinding
}

func buildReport(apps []*AppTrace, events []Event) *Report {
	r := &Report{
		Apps: apps, Events: events,
		Job: stats.NewSample(len(apps)), Total: stats.NewSample(len(apps)),
		AM: stats.NewSample(len(apps)), In: stats.NewSample(len(apps)),
		Out: stats.NewSample(len(apps)), Driver: stats.NewSample(len(apps)),
		Executor: stats.NewSample(len(apps)), Alloc: stats.NewSample(len(apps)),
		Cf: stats.NewSample(len(apps)), Cl: stats.NewSample(len(apps)),
		ClMinusCf:    stats.NewSample(len(apps)),
		TotalOverJob: stats.NewSample(len(apps)), AMOverTotal: stats.NewSample(len(apps)),
		InOverTotal: stats.NewSample(len(apps)), OutOverTotal: stats.NewSample(len(apps)),
		Acquisition: stats.NewSample(0), Localization: stats.NewSample(0),
		Launching: stats.NewSample(0), Queueing: stats.NewSample(0),
		LaunchingByInstance:    make(map[InstanceType]*stats.Sample),
		LocalizationByInstance: make(map[InstanceType]*stats.Sample),
	}
	addIf := func(s *stats.Sample, v int64) {
		if v >= 0 {
			s.Add(float64(v))
		}
	}
	byInst := func(m map[InstanceType]*stats.Sample, inst InstanceType, v int64) {
		if inst == InstUnknown {
			return
		}
		s := m[inst]
		if s == nil {
			s = stats.NewSample(0)
			m[inst] = s
		}
		s.Add(float64(v))
	}
	for _, a := range apps {
		d := a.Decomp
		if d == nil {
			continue
		}
		if d.Complete {
			r.CompleteApps++
		} else {
			r.PartialApps++
		}
		addIf(r.Job, d.JobRuntime)
		addIf(r.Total, d.Total)
		addIf(r.AM, d.AM)
		addIf(r.In, d.In)
		addIf(r.Out, d.Out)
		addIf(r.Driver, d.Driver)
		addIf(r.Executor, d.Executor)
		addIf(r.Alloc, d.Alloc)
		addIf(r.Cf, d.Cf)
		addIf(r.Cl, d.Cl)
		addIf(r.ClMinusCf, d.ClMinusCf)
		if d.Total > 0 && d.JobRuntime > 0 {
			r.TotalOverJob.Add(float64(d.Total) / float64(d.JobRuntime))
		}
		if d.Total > 0 {
			if d.AM >= 0 {
				r.AMOverTotal.Add(float64(d.AM) / float64(d.Total))
			}
			if d.In >= 0 {
				r.InOverTotal.Add(float64(d.In) / float64(d.Total))
			}
			if d.Out >= 0 {
				r.OutOverTotal.Add(float64(d.Out) / float64(d.Total))
			}
		}
		for _, cd := range d.Acquisitions {
			r.Acquisition.Add(float64(cd.MS))
		}
		for _, cd := range d.Localizations {
			r.Localization.Add(float64(cd.MS))
			byInst(r.LocalizationByInstance, cd.Instance, cd.MS)
		}
		for _, cd := range d.Launchings {
			r.Launching.Add(float64(cd.MS))
			byInst(r.LaunchingByInstance, cd.Instance, cd.MS)
		}
		for _, cd := range d.Queueings {
			r.Queueing.Add(float64(cd.MS))
		}
	}
	r.Bugs = DetectBugs(apps)
	return r
}

// GroupTotals groups the per-application total scheduling delay by a key
// derived from each trace — e.g. the application name (query class) or
// queue, both mined from the RM's submission summary line. Apps with an
// empty key or no total are skipped.
func (r *Report) GroupTotals(key func(*AppTrace) string) map[string]*stats.Sample {
	out := make(map[string]*stats.Sample)
	for _, a := range r.Apps {
		if a.Decomp == nil || a.Decomp.Total < 0 {
			continue
		}
		k := key(a)
		if k == "" {
			continue
		}
		s := out[k]
		if s == nil {
			s = stats.NewSample(8)
			out[k] = s
		}
		s.Add(float64(a.Decomp.Total))
	}
	return out
}

// ByName groups total delays by application name (query class).
func (r *Report) ByName() map[string]*stats.Sample {
	return r.GroupTotals(func(a *AppTrace) string { return a.Name })
}

// ByQueue groups total delays by submission queue.
func (r *Report) ByQueue() map[string]*stats.Sample {
	return r.GroupTotals(func(a *AppTrace) string { return a.Queue })
}

// TimeSeriesPoint is one bin of a delay-over-trace-time series.
type TimeSeriesPoint struct {
	StartMS int64
	Count   int
	P50     float64
	P95     float64
}

// TotalTimeSeries bins the per-application total scheduling delay by
// submission time. It separates steady-state behavior from trace warm-up
// or interference ramps — e.g. under dfsIO the later bins degrade while
// the earliest queries escape (visible in Fig 12's scatter).
func (r *Report) TotalTimeSeries(binMS int64) []TimeSeriesPoint {
	if binMS <= 0 {
		binMS = 60_000
	}
	bins := map[int64]*stats.Sample{}
	var minBin, maxBin int64
	first := true
	for _, a := range r.Apps {
		if a.Decomp == nil || a.Decomp.Total < 0 || a.Submitted == 0 {
			continue
		}
		b := a.Submitted / binMS
		if first || b < minBin {
			minBin = b
		}
		if first || b > maxBin {
			maxBin = b
		}
		first = false
		s := bins[b]
		if s == nil {
			s = stats.NewSample(8)
			bins[b] = s
		}
		s.Add(float64(a.Decomp.Total))
	}
	if first {
		return nil
	}
	out := make([]TimeSeriesPoint, 0, maxBin-minBin+1)
	for b := minBin; b <= maxBin; b++ {
		p := TimeSeriesPoint{StartMS: b * binMS}
		if s := bins[b]; s != nil {
			p.Count = s.Len()
			p.P50 = s.Median()
			p.P95 = s.P95()
		}
		out = append(out, p)
	}
	return out
}

// AllocationThroughput returns the cluster-wide container allocation rate
// (containers/second) measured over the busy window — the Table II
// metric: total ALLOCATED events divided by the span between the first
// and last allocation.
func (r *Report) AllocationThroughput() float64 {
	var first, last int64
	var n int
	for _, e := range r.Events {
		if e.Kind != ContAllocated {
			continue
		}
		n++
		if first == 0 || e.TimeMS < first {
			first = e.TimeMS
		}
		if e.TimeMS > last {
			last = e.TimeMS
		}
	}
	if n < 2 || last <= first {
		return 0
	}
	return float64(n) / (float64(last-first) / 1000.0)
}

// ComponentShare returns each component's mean contribution to the mean
// total scheduling delay (Table III's "contribution" column). Components
// measured per container are first averaged within the run.
func (r *Report) ComponentShare() map[string]float64 {
	total := r.Total.Mean()
	if total == 0 {
		return nil
	}
	perApp := func(s *stats.Sample) float64 {
		if r.Total.Len() == 0 {
			return 0
		}
		// Per-container samples: containers per app ≈ sample/app count.
		return s.Sum() / float64(r.Total.Len())
	}
	return map[string]float64{
		"alloc-delays":   r.Alloc.Mean() / total,
		"acqui-delays":   r.Acquisition.Mean() / total,
		"local-delays":   r.Localization.Mean() / total,
		"laun-delays":    r.Launching.Mean() / total,
		"driver-delay":   r.Driver.Mean() / total,
		"executor-delay": r.Executor.Mean() / total,
		"acqui-per-app":  perApp(r.Acquisition) / total,
	}
}

// Summaries returns the standard component summaries in display order.
func (r *Report) Summaries() []stats.Summary {
	return []stats.Summary{
		r.Job.Summarize("job"),
		r.Total.Summarize("total"),
		r.AM.Summarize("am"),
		r.In.Summarize("in"),
		r.Out.Summarize("out"),
		r.Driver.Summarize("driver"),
		r.Executor.Summarize("executor"),
		r.Alloc.Summarize("alloc"),
		r.Acquisition.Summarize("acquisition"),
		r.Localization.Summarize("localization"),
		r.Launching.Summarize("launching"),
		r.Queueing.Summarize("queueing"),
		r.Cf.Summarize("Cf"),
		r.Cl.Summarize("Cl"),
		r.ClMinusCf.Summarize("Cl-Cf"),
	}
}

// Format renders a paper-style text report.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SDchecker report: %d applications, %d files, %d lines parsed\n",
		len(r.Apps), r.FilesParsed, r.LinesParsed)
	if r.PartialApps > 0 {
		fmt.Fprintf(&b, "WARNING: %d of %d decompositions are partial (missing observations or anomalies); aggregate rows below use observed components only\n",
			r.PartialApps, r.CompleteApps+r.PartialApps)
		shown := 0
		for _, a := range r.Apps {
			if a.Decomp == nil || a.Decomp.Complete || len(a.Decomp.Anomalies) == 0 {
				continue
			}
			if shown == 10 {
				fmt.Fprintf(&b, "  ... and %d more partial applications\n", r.PartialApps-shown)
				break
			}
			fmt.Fprintf(&b, "  %s: %s\n", a.ID, strings.Join(a.Decomp.Anomalies, "; "))
			shown++
		}
	}
	b.WriteString(stats.FormatTable("scheduling delay components (ms)", r.Summaries()))
	fmt.Fprintf(&b, "\nnormalized: total/job p50=%.2f p95=%.2f | in/total p50=%.2f | out/total p50=%.2f | am/total p50=%.2f\n",
		r.TotalOverJob.Median(), r.TotalOverJob.P95(),
		r.InOverTotal.Median(), r.OutOverTotal.Median(), r.AMOverTotal.Median())

	if len(r.LaunchingByInstance) > 0 {
		b.WriteString("\nlaunching delay by instance type (ms):\n")
		insts := make([]string, 0, len(r.LaunchingByInstance))
		for k := range r.LaunchingByInstance {
			insts = append(insts, string(k))
		}
		sort.Strings(insts)
		for _, k := range insts {
			s := r.LaunchingByInstance[InstanceType(k)]
			fmt.Fprintf(&b, "  %-5s n=%-5d p50=%6.0f p95=%6.0f\n", k, s.Len(), s.Median(), s.P95())
		}
	}
	if n := len(r.Bugs); n > 0 {
		fmt.Fprintf(&b, "\nBUG: %d containers allocated but never used (cf. SPARK-21562)\n", n)
		max := n
		if max > 5 {
			max = 5
		}
		for _, f := range r.Bugs[:max] {
			fmt.Fprintf(&b, "  %s\n", f)
		}
		if n > max {
			fmt.Fprintf(&b, "  ... and %d more\n", n-max)
		}
	}
	return b.String()
}
