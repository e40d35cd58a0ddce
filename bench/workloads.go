package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/log4j"
)

// workload is one set of inputs the benchmark runs. gen makes the input
// from the seed and is timed as set-up; verify computes the expected
// outputs and is not; measure runs the end-to-end measurement; serve, when
// set, is the traced run's server phase.
type workload struct {
	name    string
	gen     func(e *env) (*input, error)
	verify  func(e *env, in *input, r *result) error
	measure func(e *env, in *input, r *result) error
	serve   func(e *env, in *input, r *result) error
}

// input is a workload's generated input and its expected outputs.
type input struct {
	dir    string      // log tree on disk
	lines  int         // lines in the tree
	sink   *log4j.Sink // mine-chatter: kept until verify writes the pristine tree
	refSHA string      // sha256 of what `sdchecker -dir dir -json` must print
	apps   int

	merged []tailLine // serve-tail: every line in append order
	comps  []int      // serve-tail: completing-line index per app, ascending
}

var workloads = []workload{
	{name: "mine-tree", gen: genTree, verify: verifyTree, measure: measureMine},
	{name: "mine-chatter", gen: genChatter, verify: verifyChatter, measure: measureMine},
	{name: "serve-backfill", gen: genTree, verify: verifyTree, measure: measureBackfill, serve: traceBackfill},
	{name: "serve-tail", gen: genTail, measure: measureTail, serve: traceTail},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- set-up -----------------------------------------------------------

func genTree(e *env) (*input, error) {
	sink := simulate(e.sz.treeQueries, e.seed)
	n, err := writeTree(sink, e.treeDir(), false)
	if err != nil {
		return nil, err
	}
	return &input{dir: e.treeDir(), lines: n}, nil
}

// verifyTree computes the serial in-process reference and gates on every
// application being complete.
func verifyTree(e *env, in *input, r *result) error {
	ref, rep, err := referenceJSON(in.dir)
	if err != nil {
		return err
	}
	in.refSHA, in.apps = sha256Hex([]byte(ref)), len(rep.Apps)
	complete := 0
	for _, a := range rep.Apps {
		if a.Decomp != nil && a.Decomp.Complete {
			complete++
		}
	}
	r.check(in.apps == e.sz.treeQueries && complete == in.apps,
		"reference report has %d apps, %d complete; want %d, all complete", in.apps, complete, e.sz.treeQueries)
	return nil
}

func genChatter(e *env) (*input, error) {
	sink := simulate(e.sz.chatterQueries, e.seed)
	n, err := writeTree(sink, e.treeDir(), true)
	if err != nil {
		return nil, err
	}
	return &input{dir: e.treeDir(), lines: n, sink: sink}, nil
}

// verifyChatter makes the reference from the same seed's pristine tree:
// chatter must not change a single decomposition.
func verifyChatter(e *env, in *input, r *result) error {
	pristine := in.dir + "-pristine"
	if _, err := writeTree(in.sink, pristine, false); err != nil {
		return err
	}
	in.sink = nil
	ref, rep, err := referenceJSON(pristine)
	if err != nil {
		return err
	}
	in.refSHA, in.apps = sha256Hex([]byte(ref)), len(rep.Apps)
	r.check(in.apps == e.sz.chatterQueries, "pristine reference has %d apps; want %d", in.apps, e.sz.chatterQueries)
	return nil
}

// tailLinesPerQuery under-estimates the simulator's ~87 lines per query,
// so the generated trace always covers the load with some to spare.
const tailLinesPerQuery = 80

func genTail(e *env) (*input, error) {
	total := e.tailTotal()
	sink := simulate(total/tailLinesPerQuery+3, e.seed)
	merged, err := mergeByStamp(sink)
	if err != nil {
		return nil, err
	}
	if len(merged) < total {
		return nil, fmt.Errorf("serve-tail: generated %d lines, load needs %d", len(merged), total)
	}
	merged = merged[:total]
	return &input{dir: e.treeDir(), lines: total, merged: merged, comps: completingLines(merged)}, nil
}

// --- offline mining -------------------------------------------------------

// measureMine runs `sdchecker -dir T -json` once untimed, then repeatedly
// for the run's seconds, checking every output against the reference.
func measureMine(e *env, in *input, r *result) error {
	run := func() (mineRun, bool) {
		m, err := runMine(e.bin, in.dir)
		if !r.check(err == nil, "%v", err) {
			return m, false
		}
		return m, r.check(m.sha == in.refSHA, "output sha256 %s, reference %s", m.sha, in.refSHA)
	}
	run() // warm-up: page cache and binary loaded
	var walls, rss []float64
	start := time.Now()
	for runs := 0; runs < e.sz.minRuns || time.Since(start) < e.runTime(); runs++ {
		if m, ok := run(); ok {
			walls = append(walls, m.wall.Seconds())
			rss = append(rss, float64(m.maxRSSKB)/1024)
		}
	}
	if len(walls) == 0 {
		return fmt.Errorf("%s: no successful run", r.Workload)
	}
	n := fmt.Sprintf("median of n=%d runs", len(walls))
	r.set("lines_per_s", float64(in.lines)/median(walls), n)
	r.set("latency_p50_ms", median(walls)*1000, n+" (wall of one -dir -json run)")
	r.set("peak_rss_mb", median(rss), n+" (getrusage maxrss)")
	return nil
}

// --- live backfill --------------------------------------------------------

// backfill starts a server over the finished tree and returns it once
// /healthz reports every application ingested, with the time that took.
func backfill(e *env, in *input, r *result) (*server, time.Duration, error) {
	s, err := startServer(e.bin, in.dir)
	if err != nil {
		return nil, 0, err
	}
	deadline := s.started.Add(3 * time.Minute)
	for {
		apps, code, err := s.healthz()
		r.Attempted++
		switch {
		case err != nil || code != 200:
			r.fail("/healthz during backfill: status %d, %v", code, err)
		case apps == uint64(in.apps):
			return s, time.Since(s.started), nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("backfill: %d apps not ingested within 3m", in.apps)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkApps gates on the live report being byte-identical to the offline
// one: the same tree, mined offline or live, gives the same answer.
func checkApps(s *server, in *input, r *result) {
	code, body, _, err := s.get("/apps")
	if r.check(err == nil && code == 200, "/apps: status %d, %v", code, err) {
		r.check(sha256Hex(body) == in.refSHA, "/apps differs from the offline -dir -json report")
	}
}

func measureBackfill(e *env, in *input, r *result) error {
	var walls, rss []float64
	start := time.Now()
	for len(walls) < e.sz.minRuns || time.Since(start) < e.runTime() {
		s, wall, err := backfill(e, in, r)
		if err != nil {
			return err
		}
		checkApps(s, in, r)
		hwm, err := s.vmHWMKB()
		s.stop()
		if err != nil {
			return err
		}
		walls = append(walls, wall.Seconds())
		rss = append(rss, float64(hwm)/1024)
	}
	n := fmt.Sprintf("median of n=%d runs", len(walls))
	r.set("lines_per_s", float64(in.lines)/median(walls), n)
	r.set("latency_p50_ms", median(walls)*1000, n+" (process start to /healthz apps_ingested == apps)")
	r.set("peak_rss_mb", median(rss), n+" (VmHWM)")
	return nil
}

// --- live tail --------------------------------------------------------------

// tailTick is the generator's period: every tick appends all lines due.
const tailTick = 10 * time.Millisecond

// thinkTime is the client's pause after each response.
const thinkTime = 50 * time.Millisecond

// tailCycle is the dashboard client's request cycle.
var tailCycle = []string{"/healthz", "/aggregate", "/healthz", "/explain?component=total&q=0.99"}

// endpoint names a request path for per-endpoint metrics.
func endpoint(path string) string {
	p, _, _ := strings.Cut(strings.TrimPrefix(path, "/"), "?")
	return p
}

// healthSample is one /healthz answer seen by the client.
type healthSample struct {
	at   time.Time
	apps uint64
}

// tailOutcome is everything one serve-tail load observed.
type tailOutcome struct {
	written, expected int
	visible           []float64 // ms from due time of each app's completing line
	resolution        float64   // ms, median gap between /healthz answers
	latency           map[string][]float64
	bytes             map[string][]float64
	lateness          []float64     // ms, per line, write completion after due time
	load              time.Duration // from the first line due to the last line written
	ingested          float64       // core_stream_lines_total at end of load
	backlog           float64       // lines written but not yet ingested at end of load
	metrics           map[string]float64
	hwmKB             int64
}

// client cycles the dashboard requests with think time until stop closes,
// recording every answer. It is the only user of the server's connection
// besides the harness's own /metrics scrapes.
type client struct {
	s        *server
	r        *result
	mu       sync.Mutex
	latency  map[string][]float64
	bytes    map[string][]float64
	health   []healthSample
	lastApps atomic.Uint64
}

func (c *client) loop(stop <-chan struct{}) {
	for i := 0; ; i++ {
		path := tailCycle[i%len(tailCycle)]
		code, body, d, err := c.s.get(path)
		at := time.Now()
		c.mu.Lock()
		c.r.Attempted++
		ep := endpoint(path)
		switch {
		case err != nil || code != 200:
			c.r.fail("%s: status %d, %v", path, code, err)
		default:
			c.latency[ep] = append(c.latency[ep], float64(d.Microseconds())/1000)
			c.bytes[ep] = append(c.bytes[ep], float64(len(body)))
			if ep == "healthz" {
				if apps, err := appsIngested(body); err == nil {
					c.health = append(c.health, healthSample{at, apps})
					c.lastApps.Store(apps)
				} else {
					c.r.fail("%v", err)
				}
			}
		}
		c.mu.Unlock()
		select {
		case <-stop:
			return
		case <-time.After(thinkTime):
		}
	}
}

// startClient starts the dashboard client; stop ends it and waits.
func startClient(s *server, r *result) (c *client, stop func()) {
	c = &client{s: s, r: r, latency: map[string][]float64{}, bytes: map[string][]float64{}}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); c.loop(done) }()
	return c, func() { close(done); wg.Wait() }
}

// runTail appends the merged lines to in.dir at the configured rate for
// the run's seconds while one client polls the server s, then waits up
// to the drain time for every app to become visible.
func runTail(e *env, in *input, s *server, r *result) (*tailOutcome, error) {
	rate := e.sz.tailRate
	out := &tailOutcome{written: len(in.merged), expected: len(in.comps)}
	c, stop := startClient(s, r)
	start := time.Now()
	lateness, err := appendLines(in.merged, in.dir, rate, start)
	out.load = time.Since(start)
	var m map[string]float64
	if err == nil {
		m, err = s.scrape()
	}
	if err != nil {
		stop()
		return nil, err
	}
	out.lateness = lateness
	out.ingested = m["core_stream_lines_total"]
	out.backlog = float64(out.written) - out.ingested
	drainEnd := time.Now().Add(e.sz.tailDrain)
	for c.lastApps.Load() < uint64(out.expected) && time.Now().Before(drainEnd) {
		time.Sleep(tailTick)
	}
	stop()

	if out.metrics, err = s.scrape(); err != nil {
		return nil, err
	}
	if out.hwmKB, err = s.vmHWMKB(); err != nil {
		return nil, err
	}
	out.latency, out.bytes = c.latency, c.bytes
	// The k-th completion is matched to the k-th completing line: the
	// first /healthz answer counting k apps makes that line's app visible.
	h := c.health
	j := 0
	for k := 0; k < out.expected; k++ {
		for j < len(h) && h[j].apps < uint64(k+1) {
			j++
		}
		r.Attempted++
		if j == len(h) {
			r.fail("%d of %d completed apps not visible within the %v drain", out.expected-k, out.expected, e.sz.tailDrain)
			break
		}
		due := start.Add(time.Duration(float64(in.comps[k]) / rate * float64(time.Second)))
		out.visible = append(out.visible, float64(h[j].at.Sub(due).Microseconds())/1000)
	}
	var gaps []float64
	for i := 1; i < len(h); i++ {
		gaps = append(gaps, float64(h[i].at.Sub(h[i-1].at).Microseconds())/1000)
	}
	out.resolution = median(gaps)
	return out, nil
}

// appendLines is the open-loop generator: line i is due at start + i/rate,
// and every tick appends all due lines with one O_APPEND write per touched
// file, creating directories as first reached. It returns each line's
// lateness: write completion minus due time, in ms.
func appendLines(lines []tailLine, dir string, rate float64, start time.Time) ([]float64, error) {
	lateness := make([]float64, 0, len(lines))
	made := map[string]bool{}
	ticker := time.NewTicker(tailTick)
	defer ticker.Stop()
	written := 0
	for written < len(lines) {
		due := int(time.Since(start).Seconds()*rate) + 1
		if due > len(lines) {
			due = len(lines)
		}
		if due > written {
			if err := appendBatch(lines[written:due], dir, made); err != nil {
				return nil, err
			}
			done := time.Now()
			for i := written; i < due; i++ {
				at := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				lateness = append(lateness, float64(done.Sub(at).Microseconds())/1000)
			}
			written = due
		}
		if written < len(lines) {
			<-ticker.C
		}
	}
	return lateness, nil
}

// appendBatch appends one tick's lines, grouped per file in first-seen
// order, each file in a single write.
func appendBatch(batch []tailLine, dir string, made map[string]bool) error {
	var order []string
	chunks := map[string]*strings.Builder{}
	for _, l := range batch {
		b := chunks[l.file]
		if b == nil {
			b = &strings.Builder{}
			chunks[l.file] = b
			order = append(order, l.file)
		}
		b.WriteString(l.text)
		b.WriteByte('\n')
	}
	for _, f := range order {
		path := filepath.Join(dir, filepath.FromSlash(f))
		if d := filepath.Dir(path); !made[d] {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return err
			}
			made[d] = true
		}
		fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		if _, err := fh.WriteString(chunks[f].String()); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
	}
	return nil
}

// startTailServer empties the tree the last tail run grew and starts a
// server over it, returning once /healthz answers. The time from process
// start to that answer is part of set-up.
func startTailServer(e *env, in *input) (*server, time.Duration, error) {
	if err := os.RemoveAll(in.dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return nil, 0, err
	}
	s, err := startServer(e.bin, in.dir)
	if err != nil {
		return nil, 0, err
	}
	_, code, err := s.healthz()
	if err != nil || code != 200 {
		s.stop()
		return nil, 0, fmt.Errorf("serve-tail: /healthz after start: status %d, %v", code, err)
	}
	return s, time.Since(s.started), nil
}

func measureTail(e *env, in *input, r *result) error {
	s, up, err := startTailServer(e, in)
	if err != nil {
		return err
	}
	defer s.stop()
	r.Metrics["setup_s"] += up.Seconds()
	t, err := runTail(e, in, s, r)
	if err != nil {
		return err
	}
	r.set("lines_per_s", t.ingested/t.load.Seconds(),
		fmt.Sprintf("lines ingested by the end of the %.2f s load, %g lines/s offered", t.load.Seconds(), e.sz.tailRate))
	r.set("latency_p50_ms", median(t.visible),
		fmt.Sprintf("median visibility of n=%d apps, resolution %.0f ms", len(t.visible), t.resolution))
	r.set("peak_rss_mb", float64(t.hwmKB)/1024, "VmHWM at end of drain")
	return nil
}

// --- traced server phases ---------------------------------------------------

// traceBackfill runs one backfill, dashboard cycles for a quarter of the
// run's seconds against the caught-up server (about ten cycles, enough for
// the http medians), and scrapes the server's own stage metrics.
func traceBackfill(e *env, in *input, r *result) error {
	s, _, err := backfill(e, in, r)
	if err != nil {
		return err
	}
	defer s.stop()
	checkApps(s, in, r)
	c, stop := startClient(s, r)
	time.Sleep(e.runTime() / 4)
	stop()
	m, err := s.scrape()
	if err != nil {
		return err
	}
	files, err := countFiles(in.dir)
	if err != nil {
		return err
	}
	serveLayers(r, m, files)
	httpLayers(r, c.latency, c.bytes)
	return nil
}

func traceTail(e *env, in *input, r *result) error {
	s, _, err := startTailServer(e, in)
	if err != nil {
		return err
	}
	defer s.stop()
	t, err := runTail(e, in, s, r)
	if err != nil {
		return err
	}
	files, err := countFiles(in.dir)
	if err != nil {
		return err
	}
	serveLayers(r, t.metrics, files)
	httpLayers(r, t.latency, t.bytes)
	tailLayers(r, t)
	return nil
}

// serveLayers records the serve loop's per-stage totals from /metrics.
func serveLayers(r *result, m map[string]float64, files int) {
	stage := func(st string) float64 { return m[fmt.Sprintf("obs_stage_duration_ms_sum{stage=%q}", st)] }
	for _, st := range []string{"read", "parse", "decompose", "aggregate", "scan"} {
		r.set("serve."+st+"_ms", stage(st), "obs_stage_duration_ms_sum")
	}
	r.set("serve.scans", m[`obs_stage_duration_ms_count{stage="scan"}`], "")
	r.set("serve.scan_max_ms", histMax(m, "obs_stage_duration_ms", `stage="scan"`),
		"upper bound of the slowest scan's histogram bucket")
	r.set("serve.files", float64(files), "")
	if lines := m["core_stream_lines_total"]; lines > 0 {
		r.set("serve.dropped_frac", m["core_stream_lines_dropped_total"]/lines, "")
		r.set("serve.lines_per_busy_s", lines/(stage("scan")/1000), "lines ingested ÷ summed scan time: the poll loop's capacity")
	}
	var shards []float64
	for k, v := range m {
		if strings.HasPrefix(k, "core_shard_lines_total{") {
			shards = append(shards, v)
		}
	}
	sort.Float64s(shards)
	if len(shards) > 0 && shards[0] > 0 {
		r.set("serve.shard_skew", shards[len(shards)-1]/shards[0], fmt.Sprintf("max ÷ min over %d shards", len(shards)))
	}
}

// histMax returns the upper bound of the lowest bucket that already
// holds every observation of one histogram series.
func histMax(m map[string]float64, name, label string) float64 {
	prefix := name + `_bucket{le="`
	suffix := `",` + label + "}"
	count := m[name+"_count{"+label+"}"]
	best := 0.0
	found := false
	for k, v := range m {
		if !strings.HasPrefix(k, prefix) || !strings.HasSuffix(k, suffix) || v < count {
			continue
		}
		var le float64
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(k, prefix), suffix), "%g", &le); err != nil {
			continue // +Inf
		}
		if !found || le < best {
			best, found = le, true
		}
	}
	return best
}

// httpLayers records per-endpoint latency and size, plus the pooled
// query latency's median and p90 (the highest percentile the ~170
// queries of a serve-tail run support).
func httpLayers(r *result, lat, size map[string][]float64) {
	var all []float64
	for _, ep := range []string{"healthz", "aggregate", "explain"} {
		r.set("http."+ep+".p50_ms", median(lat[ep]), fmt.Sprintf("n=%d", len(lat[ep])))
		all = append(all, lat[ep]...)
	}
	for _, ep := range []string{"aggregate", "explain"} {
		r.set("http."+ep+".bytes", median(size[ep]), fmt.Sprintf("median of n=%d", len(size[ep])))
	}
	r.set("query.p50_ms", median(all), fmt.Sprintf("n=%d", len(all)))
	r.setPercentile("query.p90_ms", all, 0.90)
}

func tailLayers(r *result, t *tailOutcome) {
	r.setPercentile("visible.p95_ms", t.visible, 0.95)
	r.set("visible.resolution_ms", t.resolution, "median gap between /healthz answers")
	third := len(t.visible) / 3
	if third > 0 {
		r.set("tail.visible_drift_ms", median(t.visible[len(t.visible)-third:])-median(t.visible[:third]),
			fmt.Sprintf("median of last %d − first %d", third, third))
	}
	r.set("tail.backlog_lines", t.backlog, "written − core_stream_lines_total at end of load")
	r.setPercentile("gen.late_p99_ms", t.lateness, 0.99)
}
