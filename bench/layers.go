package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// tracer records a span around each call the benchmark makes into a
// layer. Spans stay in memory until the run ends. With off set it only
// times the calls, which is the untraced pass the overhead is taken
// against.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
	open     []int // ids of the spans enclosing the current call
	off      bool
}

type span struct {
	name       string
	parent     int // index into spans, -1 at the root
	start, end time.Duration
}

func newTracer(workload string) *tracer { return &tracer{t0: time.Now(), workload: workload} }

// do runs f inside a span and returns f's duration.
func (t *tracer) do(name string, f func()) time.Duration {
	if t.off {
		s := time.Now()
		f()
		return time.Since(s)
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, id)
	f()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].end = time.Since(t.t0)
	return t.spans[id].end - t.spans[id].start
}

// cost is one layer call's duration and heap allocation.
type cost struct {
	d             time.Duration
	allocs, bytes float64
}

// measure is do plus the process-wide allocation count and bytes of the
// call; the counters are read only on traced passes.
func (t *tracer) measure(name string, f func()) cost {
	if t.off {
		return cost{d: t.do(name, f)}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := t.do(name, f)
	runtime.ReadMemStats(&m1)
	return cost{d: d, allocs: float64(m1.Mallocs - m0.Mallocs), bytes: float64(m1.TotalAlloc - m0.TotalAlloc)}
}

// selfTimes sums, per span name, the total time and the self time: the
// span's duration minus what its direct children cover.
func (t *tracer) selfTimes() (names []string, total, self map[string]time.Duration) {
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	for _, s := range t.spans {
		d := s.end - s.start
		if _, ok := total[s.name]; !ok {
			names = append(names, s.name)
		}
		total[s.name] += d
		self[s.name] += d
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= d
		}
	}
	return names, total, self
}

// chromeTrace renders the spans for Perfetto / chrome://tracing.
func (t *tracer) chromeTrace() ([]byte, error) {
	out := make([]sim.TraceSpan, 0, len(t.spans))
	for _, s := range t.spans {
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		out = append(out, sim.TraceSpan{
			Process: "sdbench " + t.workload,
			Thread:  "harness",
			Name:    s.name,
			Start:   sim.Time(s.start.Milliseconds()),
			End:     sim.Time(s.end.Milliseconds()),
			Args: map[string]string{
				"workload": t.workload,
				"parent":   parent,
				"dur_us":   strconv.FormatInt((s.end - s.start).Microseconds(), 10),
			},
		})
	}
	return sim.ChromeTrace(out, 0)
}

// memFile is one log file read into memory, for the layers that must not
// pay for reading.
type memFile struct {
	name  string
	data  string
	lines []string
}

func readTree(dir string) ([]memFile, error) {
	var out []memFile
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data := string(b)
		out = append(out, memFile{name: filepath.ToSlash(rel), data: data,
			lines: strings.Split(strings.TrimSuffix(data, "\n"), "\n")})
		return nil
	})
	return out, err
}

// pass is one offline layer pass: the checker's stages called one by one,
// then the two engines that run them all.
type pass struct {
	wall                                              time.Duration
	parseDir, parseMem, correlate, decompose, report  cost
	renderJSON, renderText, aggregate, explain        cost
	mineSerial, mineParallel                          cost
	lines, files, events, apps, observations, jsonLen int
	// sha256 of each report as the CLI prints it (JSON plus a newline)
	sha, serialSHA, parallelSHA string
}

// reportSHA hashes a report's JSON as `sdchecker -dir -json` prints it.
func reportSHA(rep *core.Report) (string, error) {
	js, err := rep.JSON()
	return sha256Hex([]byte(js + "\n")), err
}

func layerPass(t *tracer, dir string, mem []memFile) (*pass, error) {
	p := &pass{}
	var err error
	start := time.Now()
	t.do("offline-pass", func() {
		parser := core.NewParser()
		p.parseDir = t.measure("parse_dir", func() { err = parser.ParseDir(dir) })
		if err != nil {
			return
		}
		p.files, p.lines = parser.Stats()
		p.parseMem = t.measure("parse_mem", func() {
			mp := core.NewParser()
			for _, f := range mem {
				if err = mp.ParseReader(f.name, strings.NewReader(f.data)); err != nil {
					return
				}
			}
		})
		if err != nil {
			return
		}
		events := parser.Events()
		p.events = len(events)
		var apps []*core.AppTrace
		p.correlate = t.measure("correlate", func() { apps = core.Correlate(events) })
		p.apps = len(apps)
		p.decompose = t.measure("decompose", func() {
			for _, a := range apps {
				core.Decompose(a)
			}
		})
		var rep *core.Report
		p.report = t.measure("report", func() { rep = core.ReportFrom(apps, events) })
		var js string
		p.renderJSON = t.measure("render_json", func() { js, err = rep.JSON() })
		if err != nil {
			return
		}
		p.jsonLen = len(js) + 1 // the CLI prints it with a newline
		p.sha = sha256Hex([]byte(js + "\n"))
		p.renderText = t.measure("render_text", func() { _ = rep.Format() })

		byID := make(map[string]*core.AppTrace, len(apps))
		for _, a := range apps {
			byID[a.ID.String()] = a
			p.observations += len(core.Observations(a))
		}
		cb := core.NewClusterBreakdown()
		p.aggregate = t.measure("aggregate", func() {
			for _, a := range apps {
				cb.Observe(a)
			}
		})
		p.explain = t.measure("explain", func() {
			cb.Explain("total", 0.99, core.DefaultExplainCells, func(app string) (*core.AppSummary, bool) {
				if a := byID[app]; a != nil {
					return core.SummarizeApp(a), false
				}
				return nil, false
			})
		})
		var serial, parallel *core.Report
		p.mineSerial = t.measure("mine_serial", func() { serial, err = core.MineDir(dir, 1) })
		if err != nil {
			return
		}
		if p.serialSHA, err = reportSHA(serial); err != nil {
			return
		}
		p.mineParallel = t.measure("mine_parallel", func() { parallel, err = core.MineDir(dir, 0) })
		if err != nil {
			return
		}
		p.parallelSHA, err = reportSHA(parallel)
	})
	p.wall = time.Since(start)
	return p, err
}

// streamPass feeds every line of the tree, file by file, through the
// serial stream and then a sharded stream with one shard per CPU.
type streamPass struct {
	serial, sharded, report cost
	events                  int
	serialSHA, shardedSHA   string
}

func runStreamPass(t *tracer, mem []memFile) (*streamPass, error) {
	sp := &streamPass{}
	var err error
	t.do("stream-pass", func() {
		st := core.NewStream()
		sp.serial = t.measure("ingest_serial", func() {
			for _, f := range mem {
				for _, l := range f.lines {
					st.Feed(f.name, l)
				}
			}
		})
		sp.events = st.EventCount()
		var rep *core.Report
		sp.report = t.measure("stream_report", func() { rep = st.Report() })
		if sp.serialSHA, err = reportSHA(rep); err != nil {
			return
		}
		ss := core.NewShardedStream(runtime.NumCPU())
		sp.sharded = t.measure("ingest_sharded", func() {
			for _, f := range mem {
				for _, l := range f.lines {
					ss.Feed(f.name, l)
				}
			}
			ss.Quiesce()
		})
		sp.shardedSHA, err = reportSHA(ss.Report())
		ss.Close()
	})
	return sp, err
}

// medianCost takes the per-field median over passes.
func medianCost(ps []*pass, f func(*pass) cost) cost {
	var d, a, b []float64
	for _, p := range ps {
		c := f(p)
		d = append(d, float64(c.d))
		a = append(a, c.allocs)
		b = append(b, c.bytes)
	}
	return cost{d: time.Duration(median(d)), allocs: median(a), bytes: median(b)}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traceLayers is the traced run's in-process part over a workload's tree:
// layer passes with and without spans, one stream pass and one
// subprocess mine. It records the per-layer metrics and checks that every
// path through the code renders the same report.
func traceLayers(e *env, t *tracer, in *input, r *result) error {
	mem, err := readTree(in.dir)
	if err != nil {
		return err
	}
	var traced, untraced []*pass
	for i := 0; i < e.sz.layerReps; i++ {
		for _, on := range []bool{true, false} {
			t.off = !on
			p, err := layerPass(t, in.dir, mem)
			if err != nil {
				return err
			}
			if on {
				traced = append(traced, p)
			} else {
				untraced = append(untraced, p)
			}
		}
	}
	t.off = false
	p := traced[0]
	want := p.serialSHA
	if in.refSHA != "" {
		r.check(want == in.refSHA, "MineDir(workers=1) differs from the reference report")
	}
	for _, q := range append(traced, untraced...) {
		r.check(q.sha == want, "layer-by-layer report differs from MineDir(workers=1)")
		r.check(q.parallelSHA == want, "MineDir(workers=0) differs from MineDir(workers=1)")
	}

	sp, err := runStreamPass(t, mem)
	if err != nil {
		return err
	}
	r.check(sp.serialSHA == want, "serial stream report differs from the offline report")
	r.check(sp.shardedSHA == want, "sharded stream report differs from the offline report")

	var mr mineRun
	t.do("process", func() { mr, err = runMine(e.bin, in.dir) })
	if r.check(err == nil, "%v", err) {
		r.check(mr.sha == want, "sdchecker -dir -json differs from the in-process report")
	}

	get := func(f func(*pass) cost) cost { return medianCost(traced, f) }
	lines, files, events := float64(p.lines), float64(p.files), float64(p.events)
	n := fmt.Sprintf("median of %d traced passes", len(traced))

	parseDir := get(func(p *pass) cost { return p.parseDir })
	r.set("parse_dir.ms", ms(parseDir.d), n)
	r.set("parse_dir.ns_per_line", float64(parseDir.d)/lines, n)
	r.set("parse_dir.allocs_per_line", parseDir.allocs/lines, n)
	r.set("parse_dir.bytes_per_line", parseDir.bytes/lines, n)
	parseMem := get(func(p *pass) cost { return p.parseMem })
	r.set("parse_mem.ns_per_line", float64(parseMem.d)/lines, n)
	r.set("parse_mem.allocs_per_line", parseMem.allocs/lines, n)
	r.set("parse.match_ratio", events/lines, "events mined per line read")
	read := parseDir.d - parseMem.d
	r.set("read.ms", ms(read), "parse_dir − parse_mem")
	r.set("read.us_per_file", float64(read.Microseconds())/files, "parse_dir − parse_mem")

	corr := get(func(p *pass) cost { return p.correlate })
	r.set("correlate.ms", ms(corr.d), n)
	r.set("correlate.ns_per_event", float64(corr.d)/events, n)
	r.set("correlate.allocs_per_event", corr.allocs/events, n)
	dec := get(func(p *pass) cost { return p.decompose })
	r.set("decompose.ms", ms(dec.d), n)
	r.set("decompose.us_per_app", float64(dec.d.Microseconds())/float64(p.apps), n)
	rep := get(func(p *pass) cost { return p.report })
	r.set("report.ms", ms(rep.d), n)
	r.set("render_json.ms", ms(get(func(p *pass) cost { return p.renderJSON }).d), n)
	r.set("render_json.bytes", float64(p.jsonLen), "")
	r.set("render_text.ms", ms(get(func(p *pass) cost { return p.renderText }).d), n)
	agg := get(func(p *pass) cost { return p.aggregate })
	r.set("aggregate.ms", ms(agg.d), n)
	r.set("aggregate.ns_per_obs", float64(agg.d)/float64(p.observations), n)
	r.set("explain.ms", ms(get(func(p *pass) cost { return p.explain }).d), n)

	serial := medianCost(untraced, func(p *pass) cost { return p.mineSerial }).d
	parallel := medianCost(untraced, func(p *pass) cost { return p.mineParallel }).d
	un := fmt.Sprintf("median of %d untraced passes", len(untraced))
	r.set("mine_serial.ms", ms(serial), un)
	r.set("mine_parallel.ms", ms(parallel), un+fmt.Sprintf(", %d workers", runtime.GOMAXPROCS(0)))
	r.set("mine.speedup", float64(serial)/float64(parallel),
		fmt.Sprintf("%.1f ms serial ÷ %.1f ms parallel", ms(serial), ms(parallel)))
	residual := serial - parseDir.d - corr.d - dec.d - rep.d
	r.set("residual.ms", ms(residual), "mine_serial − (parse_dir + correlate + decompose + report)")
	r.set("residual.frac", float64(residual)/float64(serial), "residual ÷ mine_serial")
	r.set("process.ms", ms(mr.wall-parallel-get(func(p *pass) cost { return p.renderJSON }).d),
		fmt.Sprintf("subprocess %.1f ms − (mine_parallel + render_json)", ms(mr.wall)))

	r.set("ingest_serial.ns_per_line", float64(sp.serial.d)/lines, "one pass")
	r.set("ingest_serial.allocs_per_line", sp.serial.allocs/lines, "one pass")
	r.set("ingest_serial.bytes_per_line", sp.serial.bytes/lines, "one pass")
	r.set("ingest_sharded.ns_per_line", float64(sp.sharded.d)/lines,
		fmt.Sprintf("one pass, %d shards, Feed + Quiesce", runtime.NumCPU()))
	r.set("ingest.events_per_line", float64(sp.events)/lines, "")
	r.set("stream_report.ms", ms(sp.report.d), "one pass")

	var tw, uw []float64
	for i := range traced {
		tw = append(tw, float64(traced[i].wall))
		uw = append(uw, float64(untraced[i].wall))
	}
	r.set("trace.overhead_pct", (median(tw)-median(uw))/median(uw)*100,
		fmt.Sprintf("offline pass %.1f ms traced vs %.1f ms untraced", median(tw)/1e6, median(uw)/1e6))
	return nil
}

// printSelfTimes prints each span name's total and self time, and the
// residual of the layers against the untraced serial wall.
func printSelfTimes(w io.Writer, t *tracer, r *result) {
	names, total, self := t.selfTimes()
	sort.SliceStable(names, func(i, j int) bool { return total[names[i]] > total[names[j]] })
	fmt.Fprintf(w, "  %-16s %12s %12s   (summed over every span of the name)\n", "span", "total ms", "self ms")
	for _, n := range names {
		fmt.Fprintf(w, "  %-16s %12.1f %12.1f\n", n, ms(total[n]), ms(self[n]))
	}
	fmt.Fprintf(w, "  residual: %.1f ms (%.1f%%) of the %.1f ms untraced serial wall; tracing overhead %.2f%%\n",
		r.Metrics["residual.ms"], 100*r.Metrics["residual.frac"], r.Metrics["mine_serial.ms"], r.Metrics["trace.overhead_pct"])
}
