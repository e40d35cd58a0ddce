package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/digest"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/slo"
)

// healthFailThreshold is how many consecutive failed scans flip /healthz
// to 503: one failure is usually a file caught mid-rotation or a skipped
// over-long line, a sustained run means the tree or a file in it stays
// unreadable.
const healthFailThreshold = 5

// Self-observability defaults: the watchdog declares a stall after
// defaultStallAfterMS without scan or shard progress (well above the
// one-second poll cadence), checking every defaultWatchdogTickMS; the
// shipped self-SLO objective is a scan p99 under defaultScanP99MS.
const (
	defaultStallAfterMS   = 30_000
	defaultWatchdogTickMS = 1_000
	defaultScanP99MS      = 10_000
)

// warnBurstThreshold is how many newly dropped (unmatched) lines between
// two scans count as a warning burst worth a flight-recorder event.
const warnBurstThreshold = 64

// defaultSelfRules builds the shipped self-SLO: the serve loop's own
// scan latency, fed back through the same engine that evaluates mined
// delays — the checker dogfooding its SLO machinery.
func defaultSelfRules(thresholdMS int64) []slo.Rule {
	r, err := slo.ParseRuleFor(
		fmt.Sprintf("pipeline-scan-p99: p99(scan) < %dms over 5m", thresholdMS), obs.Stages)
	if err != nil {
		panic("sdchecker: default self-SLO rule: " + err.Error())
	}
	return []slo.Rule{r}
}

// serveOptions configures a liveServer. The zero value is not useful;
// start from defaultServeOptions.
type serveOptions struct {
	workers int
	retain  int
	maxApps int
	rules   []slo.Rule // mined-delay SLOs (-slo)
	// selfRules are the pipeline self-SLOs; nil ships the default
	// scan-p99 rule.
	selfRules []slo.Rule
	// debug exposes net/http/pprof under /debug/pprof/ (the -debug flag).
	debug bool
	// stallAfterMS / watchdogTickMS tune the stall detector (0 = defaults).
	stallAfterMS   int64
	watchdogTickMS int64
	// clock, when set, replaces the pipeline's wall clock (tests; makes
	// flight dumps deterministic).
	clock func() int64
	// scanGate, when set, runs at the top of every pollOnce before any
	// lock is taken — the stall-injection point for watchdog tests.
	scanGate func()
}

func defaultServeOptions(workers int) serveOptions {
	return serveOptions{
		workers:        workers,
		retain:         4096,
		maxApps:        16384,
		stallAfterMS:   defaultStallAfterMS,
		watchdogTickMS: defaultWatchdogTickMS,
	}
}

// liveServer runs the -follow tailer behind an HTTP endpoint: the log
// tree is polled in the background while /metrics, /apps, /trace/<seq>,
// /trace/pipeline, /aggregate, /slo, /debug/flight and /healthz expose
// the stream's current picture. Completed applications beyond the
// retention limit are evicted so the server can tail a cluster
// indefinitely; the SLO engine keeps its own (bounded) aggregate state,
// so evicting an app does not lose its delay observations.
//
// The server also observes itself: a pipeline (internal/obs) carries
// stage spans, the flight recorder, and self-observations; a watchdog
// goroutine checks for stalls and flips /healthz to degraded.
type liveServer struct {
	mu     sync.Mutex // guards st and sc; taken before obsMu when both are needed
	st     *core.ShardedStream
	sc     *dirScanner
	reg    *metrics.Registry
	retain int
	// maxApps hard-caps tracked applications, complete or not: degraded
	// logs can mint unbounded app IDs whose traces never complete, which
	// EvictCompleted alone would hold forever.
	maxApps int
	done    chan struct{}

	// Goroutine lifecycle: start() accounts every goroutine it launches
	// (ingest, watchdog, HTTP acceptor) here, and close() joins them
	// after closing done and the HTTP server, so no goroutine outlives
	// the server — tests that start and close servers in sequence never
	// accumulate stray acceptors or per-connection handlers.
	wg sync.WaitGroup
	hs *http.Server // built by start(); Close()d to stop the acceptor and live conns

	// obsMu guards eng and pinned. The completion hook runs on shard
	// worker goroutines while HTTP handlers read the engine, so the
	// engine needs its own lock — and one the hook can take without
	// touching mu (pollOnce holds mu across Quiesce, which waits for
	// those very hooks to finish).
	obsMu sync.Mutex
	eng   *slo.Engine
	// pinned maps exemplar-referenced app IDs to their minimal summaries
	// so /explain keeps resolving decompositions and trace links after
	// -retain eviction drops the full trace. Synced to exactly the apps
	// the exemplar reservoirs reference, after every poll that ingested
	// an app, so it is bounded by the (bounded) reservoir population.
	// unpinned holds the referenced apps the stream did not hold at the
	// last sync, retried at every poll; syncedApps is the engine's
	// AppsIngested at the last sync.
	pinned     map[string]*core.AppSummary
	unpinned   []string
	syncedApps uint64

	// selfMu guards selfEng, the engine evaluating the pipeline's own
	// stage latencies. Never nested inside obsMu or vice versa; pollOnce
	// takes it inside mu, after releasing obsMu.
	selfMu  sync.Mutex
	selfEng *slo.Engine

	// Self-observability: pipeline, watchdog, runtime collector.
	pl       *obs.Pipeline
	wd       *obs.Watchdog
	rt       *obs.RuntimeCollector
	debug    bool
	wdTickMS int64
	scanGate func()

	// Poll health, for /healthz (guarded by mu): the last clean full
	// walk, and the failed polls since.
	lastScanUnixMS int64
	lastErr        string
	consecFails    int
	lastDropped    int64

	compHist   map[string]*metrics.Histogram
	scanDur    *metrics.Histogram
	wakePolls  *metrics.Counter
	watchDirs  *metrics.Gauge
	noWatch    *metrics.Counter
	firing     *metrics.Gauge
	ingested   *metrics.Gauge
	selfFiring *metrics.Gauge
	dropped    *metrics.Counter

	// Attribution-layer metrics: offered exemplar observations, current
	// reservoir/top-k footprint, pinned summaries.
	exOffered   *metrics.Counter // attr_exemplars_total
	exTracked   *metrics.Gauge   // attr_exemplars_tracked
	topkEntries *metrics.Gauge   // attr_topk_entries
	pinnedApps  *metrics.Gauge   // attr_pinned_apps
}

func newLiveServer(dir string, o serveOptions) *liveServer {
	if o.stallAfterMS <= 0 {
		o.stallAfterMS = defaultStallAfterMS
	}
	if o.watchdogTickMS <= 0 {
		o.watchdogTickMS = defaultWatchdogTickMS
	}
	if o.selfRules == nil {
		o.selfRules = defaultSelfRules(defaultScanP99MS)
	}
	reg := metrics.NewRegistry()
	st := core.NewShardedStream(o.workers)
	st.Instrument(reg)
	var plOpts []obs.Option
	if o.clock != nil {
		plOpts = append(plOpts, obs.WithClock(o.clock))
	}
	pl := obs.New(reg, plOpts...)
	st.ObservePipeline(pl)
	s := &liveServer{
		st:       st,
		eng:      slo.NewEngine(o.rules),
		selfEng:  slo.NewEngine(o.selfRules),
		sc:       newDirScanner(dir, st),
		reg:      reg,
		retain:   o.retain,
		maxApps:  o.maxApps,
		done:     make(chan struct{}),
		pl:       pl,
		wd:       obs.NewWatchdog(pl, reg, o.stallAfterMS),
		rt:       obs.NewRuntimeCollector(reg),
		debug:    o.debug,
		wdTickMS: o.watchdogTickMS,
		scanGate: o.scanGate,
		compHist: map[string]*metrics.Histogram{},
		scanDur: reg.Histogram("serve_scan_duration_ms",
			metrics.ExpBuckets(1, 2, 16)),
		wakePolls:   reg.Counter("serve_wake_polls_total"),
		watchDirs:   reg.Gauge("serve_watch_dirs"),
		noWatch:     reg.Counter("serve_watch_fallbacks_total", "reason", "unavailable"),
		firing:      reg.Gauge("slo_rules_firing"),
		ingested:    reg.Gauge("slo_apps_ingested"),
		selfFiring:  reg.Gauge("slo_self_rules_firing"),
		dropped:     reg.Counter("core_stream_lines_dropped_total"),
		pinned:      map[string]*core.AppSummary{},
		exOffered:   reg.Counter("attr_exemplars_total"),
		exTracked:   reg.Gauge("attr_exemplars_tracked"),
		topkEntries: reg.Gauge("attr_topk_entries"),
		pinnedApps:  reg.Gauge("attr_pinned_apps"),
	}
	s.sc.pl = pl
	s.sc.overflows = reg.Counter("serve_watch_fallbacks_total", "reason", "overflow")
	s.sc.limits = reg.Counter("serve_watch_fallbacks_total", "reason", "limit")
	// SLO alert edges land in the flight recorder so stall snapshots show
	// fire/resolve transitions in context. The engines invoke the hook
	// under the locks that already serialize them (obsMu / selfMu);
	// RecordSLOTransition only touches the thread-safe recorder.
	s.eng.OnTransition(func(tr slo.Transition) {
		s.pl.RecordSLOTransition(tr.Rule, tr.State == slo.StateFiring.String(), len(tr.Exemplars))
	})
	s.selfEng.OnTransition(func(tr slo.Transition) {
		s.pl.RecordSLOTransition(tr.Rule, tr.State == slo.StateFiring.String(), len(tr.Exemplars))
	})
	// The automatic snapshot is kept by the watchdog (served at
	// /debug/flight?snapshot=last); the hook just announces it.
	s.wd.OnSnapshot(func(dump []byte) {
		fmt.Printf("sdchecker: watchdog stall: flight recorder snapshot taken (%d bytes)\n", len(dump))
	})
	// Component-delay histograms: exponential buckets from 1ms to ~9min
	// cover the paper's sub-second tail and the worst degraded runs.
	for _, c := range core.Components {
		s.compHist[c] = reg.Histogram("core_component_delay_ms",
			metrics.ExpBuckets(1, 2, 20), "component", c)
	}
	// Completed decompositions flow into the SLO engine and the
	// component histograms. With a sharded stream the hook runs on
	// worker goroutines: histograms are thread-safe, the engine is
	// guarded by obsMu. The whole fold is the pipeline's aggregate
	// stage, timed per application (a batch, not a line).
	st.OnComplete(func(a *core.AppTrace) {
		t := s.pl.Begin()
		observations := core.Observations(a)
		for _, o := range observations {
			s.compHist[o.Component].Observe(float64(o.MS))
		}
		s.obsMu.Lock()
		s.eng.ObserveApp(a)
		s.obsMu.Unlock()
		s.exOffered.Add(int64(len(observations)))
		s.pl.StageBatch(obs.StageAggregate, -1, t, len(observations))
	})
	return s
}

// pollOnce runs one ingestion pass over the whole tree: the full walk.
func (s *liveServer) pollOnce() error { return s.poll(false) }

// poll runs one ingestion pass: scan the tree (or, on a wake, what the
// watch named), wait for the workers to absorb everything, advance the
// SLO engine's event clock to the newest log timestamp (so rules
// resolve when their windows drain even with no new completions), evict
// completed apps beyond the retention limit, then enforce the hard
// memory bound. The pass is bracketed for the watchdog and recorded as
// the pipeline's scan stage; buffered stage latencies drain into the
// self-SLO engine at the end. All of it happens under mu, so a /healthz
// that counts the pass's apps comes after the self-SLO has seen the
// pass's latency. A wake runs it hundreds of times a second, so what it
// does besides the scan costs what changed, not what is held: the
// attribution state is read only after a pass that ingested an app.
func (s *liveServer) poll(wake bool) error {
	if gate := s.scanGate; gate != nil {
		gate()
	}
	t := s.pl.Begin()
	s.wd.ScanBegin(t.MS)
	s.mu.Lock()
	start := time.Now()
	var err error
	if wake {
		_, err = s.sc.scanNamed()
	} else {
		_, err = s.sc.scan()
	}
	s.st.Quiesce()
	s.scanDur.Observe(float64(time.Since(start).Milliseconds()))
	clock := s.st.LastEventMS()
	s.obsMu.Lock()
	s.eng.Advance(clock)
	s.firing.Set(int64(s.eng.FiringCount()))
	// Pin exemplar-referenced app summaries BEFORE eviction below, while
	// the full traces are still live in the stream. ObserveApp is the
	// only writer of the reservoirs, and it counts every app it ingests.
	if n := s.eng.AppsIngested(); n != s.syncedApps {
		s.syncedApps = n
		s.ingested.Set(int64(n))
		s.syncPinned()
		ex, tk := s.eng.Breakdown().AttrStats()
		s.exTracked.Set(int64(ex))
		s.topkEntries.Set(int64(tk))
	} else if len(s.unpinned) > 0 {
		s.pinUnpinned()
	}
	s.pinnedApps.Set(int64(len(s.pinned)))
	s.obsMu.Unlock()
	if s.retain >= 0 {
		s.st.EvictCompleted(s.retain)
	}
	if s.maxApps >= 0 {
		s.st.EvictOldest(s.maxApps)
	}
	d := s.dropped.Value()
	if d-s.lastDropped >= warnBurstThreshold {
		s.pl.RecordWarnBurst(d - s.lastDropped)
	}
	s.lastDropped = d
	// Only a clean full walk vouches for the whole tree: a wake's error
	// counts, but its success leaves the health fields as they were.
	switch {
	case err != nil:
		s.consecFails++
		s.lastErr = err.Error()
	case !wake:
		s.consecFails = 0
		s.lastErr = ""
		s.lastScanUnixMS = time.Now().UnixMilli()
	}
	s.pl.StageBatch(obs.StageScan, -1, t, 1)
	s.wd.ScanEnd(s.pl.Begin().MS)
	s.feedSelfSLO()
	s.mu.Unlock()
	return err
}

// syncPinned reconciles the pinned-summary map with the set of apps the
// exemplar reservoirs currently reference: newly referenced live apps
// are summarized, no-longer-referenced ones dropped. The caller must
// hold BOTH mu (stream lookups) and obsMu (engine breakdown + pinned).
func (s *liveServer) syncPinned() {
	refs := s.eng.Breakdown().ExemplarApps()
	for app := range s.pinned {
		if !refs[app] {
			delete(s.pinned, app)
		}
	}
	s.unpinned = s.unpinned[:0]
	for app := range refs {
		if _, ok := s.pinned[app]; !ok {
			s.unpinned = append(s.unpinned, app)
		}
	}
	s.pinUnpinned()
}

// pinUnpinned summarizes the referenced apps not pinned yet, keeping in
// unpinned those the stream does not hold, for the next poll to retry.
// It holds the same locks syncPinned does.
func (s *liveServer) pinUnpinned() {
	kept := s.unpinned[:0]
	for _, app := range s.unpinned {
		id, err := ids.ParseAppID(app)
		if err != nil {
			continue
		}
		if a := s.st.App(id); a != nil {
			s.pinned[app] = core.SummarizeApp(a)
		} else {
			kept = append(kept, app)
		}
	}
	s.unpinned = kept
}

// feedSelfSLO drains the pipeline's buffered stage latencies into the
// self-SLO engine, each at its own event time (sub-millisecond stage
// batches round up to 1ms so they register against the windows).
func (s *liveServer) feedSelfSLO() {
	samples := s.pl.DrainSelf()
	if len(samples) == 0 {
		return
	}
	s.selfMu.Lock()
	for _, sm := range samples {
		s.selfEng.ObserveAt([]core.Observation{{Component: sm.Stage, MS: (sm.DurUS + 999) / 1000}}, sm.AtMS)
	}
	s.selfFiring.Set(int64(s.selfEng.FiringCount()))
	s.selfMu.Unlock()
}

// wakeGap is the least time from the end of one poll to the start of a
// wake's poll. A lone write is drained at once; under a steady stream
// of writes, one poll drains what a few bursts wrote. Without the gap a
// burst split into several polls, each started by the first event the
// last one missed: on a 2-CPU VM, sdbench's serve-tail ran 7,763 polls
// in a 10 s load, summing to 2,831 ms against 419 ms for the 1 s walk
// alone; with the gap, 441 polls summed to 1,041 ms.
const wakeGap = 20 * time.Millisecond

// ingest polls until the server is closed. The full walk runs once a
// second, as it always has; between two walks each wake of the watch
// runs a poll over the files it named, at once. After a poll, the
// directories the walk listed without a watch are watched, outside mu.
// A scan error never stops the walk (see dirScanner.scan), so it is
// reported and the loop keeps going.
func (s *liveServer) ingest() {
	var wake <-chan struct{}
	if s.sc.w != nil {
		wake = s.sc.w.wake
	}
	report := func(err error) {
		if err != nil {
			fmt.Printf("sdchecker: scan: %v\n", err)
		}
		s.sc.watchEntered()
		if s.sc.w != nil {
			s.watchDirs.Set(int64(s.sc.w.watched()))
		}
	}
	for {
		report(s.pollOnce())
		last := time.Now()
		walk := time.After(time.Second)
	wait:
		for {
			select {
			case <-s.done:
				return
			case <-walk:
				break wait
			case <-wake:
				if d := wakeGap - time.Since(last); d > 0 {
					select {
					case <-s.done:
						return
					case <-time.After(d):
					}
				}
				s.wakePolls.Inc()
				report(s.poll(true))
				last = time.Now()
			}
		}
	}
}

// watchdogLoop is the independent checker: it runs on its own ticker so
// a scan loop stuck inside pollOnce is still detected. Each tick
// samples shard progress, evaluates the stall conditions, and refreshes
// the runtime self-metrics.
func (s *liveServer) watchdogLoop() {
	tick := time.Duration(s.wdTickMS) * time.Millisecond
	for {
		select {
		case <-s.done:
			return
		case <-time.After(tick):
		}
		now := s.pl.Begin().MS
		if stats := s.st.ShardStats(); len(stats) > 0 {
			queued := make([]int, len(stats))
			processed := make([]int64, len(stats))
			for i, st := range stats {
				queued[i] = st.Queued
				processed[i] = st.Processed
			}
			s.wd.ObserveShards(queued, processed, now)
		}
		s.wd.Check(now)
		s.rt.Collect()
	}
}

func (s *liveServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/apps", s.handleApps)
	mux.HandleFunc("/trace/", s.handleTrace)
	mux.HandleFunc("/trace/pipeline", s.handleTracePipeline)
	mux.HandleFunc("/aggregate", s.handleAggregate)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/slo", s.handleSLO)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/flight", s.handleFlight)
	if s.debug {
		// Off by default: profiles expose call stacks and flag values.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleMetrics renders under s.mu and writes after it, so a client
// that reads slowly cannot hold up the poll that needs mu.
func (s *liveServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.rt.Collect() // runtime gauges are as fresh as the scrape
	var buf bytes.Buffer
	s.mu.Lock()
	s.reg.WriteText(&buf) // fails only when its writer does, and a Buffer does not
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

// handleApps encodes outside s.mu: the traces are immutable, decomposed
// snapshots, so scans and other handlers do not wait on the encoder or
// the client. It writes from the traces alone; a full report would copy
// every event and compute every sample the body never shows.
func (s *liveServer) handleApps(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	apps := s.st.Apps()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	// A write fails only once the client has gone and the status line
	// is sent, so its error has no one left to go to.
	bw := bufio.NewWriter(w)
	if core.WriteAppsJSON(bw, apps) == nil {
		bw.WriteByte('\n')
		bw.Flush()
	}
}

func (s *liveServer) handleTrace(w http.ResponseWriter, r *http.Request) {
	seqStr := strings.TrimPrefix(r.URL.Path, "/trace/")
	seq, err := strconv.Atoi(seqStr)
	if err != nil || seq <= 0 {
		http.Error(w, "usage: /trace/<application sequence number> or /trace/pipeline", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	apps := s.st.Apps()
	s.mu.Unlock()
	i := slices.IndexFunc(apps, func(a *core.AppTrace) bool { return a.ID.Seq == seq })
	if i < 0 {
		http.Error(w, fmt.Sprintf("no application with sequence %d", seq), http.StatusNotFound)
		return
	}
	out, err := core.ChromeTrace(apps[i])
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}

// handleTracePipeline renders the pipeline's own stage spans as a
// Perfetto track group next to every mined application timeline: shard
// imbalance and scan cadence are visible in the same trace UI as the
// scheduling delays they produced.
func (s *liveServer) handleTracePipeline(w http.ResponseWriter, _ *http.Request) {
	spans := s.pl.Spans()
	s.mu.Lock()
	apps := s.st.Apps()
	s.mu.Unlock()
	for _, a := range apps {
		spans = append(spans, core.AppSpans(a)...)
	}
	out, err := sim.ChromeTrace(spans, 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}

// handleFlight dumps the flight recorder. ?snapshot=last returns the
// automatic dump the watchdog took when it last declared a stall.
func (s *liveServer) handleFlight(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("snapshot") == "last" {
		d := s.wd.LastDump()
		if d == nil {
			http.Error(w, "no automatic snapshot taken", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(d)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.pl.Flight().Dump().JSON())
}

// aggregateDoc is the /aggregate response: cumulative percentile tables
// over everything the server has ingested, at fleet granularity
// (components), full (component, queue, node, instance) granularity
// (rows), and worst-group callouts per component.
type aggregateDoc struct {
	Alpha       float64              `json:"alpha"`
	Apps        uint64               `json:"apps_ingested"`
	OverflowObs uint64               `json:"overflow_observations,omitempty"`
	Components  []core.BreakdownRow  `json:"components"`
	Rows        []core.BreakdownRow  `json:"rows"`
	WorstNodes  map[string]worstSpot `json:"worst_nodes,omitempty"`
	WorstQueues map[string]worstSpot `json:"worst_queues,omitempty"`
}

type worstSpot struct {
	Name  string  `json:"name"`
	P99MS float64 `json:"p99_ms"`
}

// handleAggregate serves the cumulative cluster breakdown. An optional
// ?component=alloc query narrows both tables to one component.
//
// Under obsMu it only copies the breakdown's sketches, the part the
// tables read (Clone is an exact copy); the rows and worst spots are
// built from the copy after the lock is released, so the completion
// hook, which waits on obsMu, is held up for the copy and not for every
// quantile.
func (s *liveServer) handleAggregate(w http.ResponseWriter, r *http.Request) {
	comp := r.URL.Query().Get("component")
	s.obsMu.Lock()
	live := s.eng.Breakdown().Sketches
	cb := &core.ClusterBreakdown{Sketches: make(map[core.BreakdownKey]*digest.Sketch, len(live))}
	for k, sk := range live {
		cb.Sketches[k] = sk.Clone()
	}
	doc := aggregateDoc{
		Alpha:       digest.DefaultAlpha,
		Apps:        s.eng.AppsIngested(),
		OverflowObs: s.eng.OverflowObservations(),
	}
	s.obsMu.Unlock()
	doc.Components = cb.ComponentRows()
	doc.Rows = cb.Rows()
	doc.WorstNodes = make(map[string]worstSpot)
	doc.WorstQueues = make(map[string]worstSpot)
	for _, c := range core.Components {
		if comp != "" && c != comp {
			continue
		}
		if n, p99, ok := core.Worst(cb.ByNode(c), 1); ok {
			doc.WorstNodes[c] = worstSpot{Name: n, P99MS: p99}
		}
		if q, p99, ok := core.Worst(cb.ByQueue(c), 1); ok {
			doc.WorstQueues[c] = worstSpot{Name: q, P99MS: p99}
		}
	}
	if comp != "" {
		doc.Components = filterRows(doc.Components, comp)
		doc.Rows = filterRows(doc.Rows, comp)
	}
	writeJSON(w, http.StatusOK, doc)
}

func filterRows(rows []core.BreakdownRow, component string) []core.BreakdownRow {
	out := rows[:0]
	for _, r := range rows {
		if r.Component == component {
			out = append(out, r)
		}
	}
	return out
}

// explainFlightContext is how many flight sequence numbers either side
// of an exemplar's completion-hook event the /explain response includes.
const explainFlightContext = 4

// handleExplain serves the ranked tail-attribution report: which cells
// dominate ?component='s tail at ?q= (default total, 0.99), their
// heavy-hitter apps, and every exemplar resolved to its decomposition,
// /trace/<seq> deep link, and the flight-recorder slice around its
// completion. Exemplars of evicted apps resolve through the pinned
// summaries.
func (s *liveServer) handleExplain(w http.ResponseWriter, r *http.Request) {
	comp := r.URL.Query().Get("component")
	if comp == "" {
		comp = "total"
	}
	if !slices.Contains(core.Components, comp) {
		http.Error(w, "unknown component (one of "+strings.Join(core.Components, "|")+")", http.StatusBadRequest)
		return
	}
	q := 0.99
	if qs := r.URL.Query().Get("q"); qs != "" {
		v, err := strconv.ParseFloat(qs, 64)
		if err != nil || !(v > 0 && v <= 1) {
			http.Error(w, "q must be a quantile in (0, 1]", http.StatusBadRequest)
			return
		}
		q = v
	}
	// Lock order: mu before obsMu, as everywhere else.
	s.mu.Lock()
	s.obsMu.Lock()
	doc := s.eng.Breakdown().Explain(comp, q, core.DefaultExplainCells, func(app string) (*core.AppSummary, bool) {
		if id, err := ids.ParseAppID(app); err == nil {
			if a := s.st.App(id); a != nil {
				return core.SummarizeApp(a), false
			}
		}
		if sum := s.pinned[app]; sum != nil {
			return sum, true
		}
		return nil, false
	})
	s.obsMu.Unlock()
	s.mu.Unlock()
	attachFlightSlices(doc, s.pl.Flight())
	writeJSON(w, http.StatusOK, doc)
}

// attachFlightSlices fills each exemplar's Flight field with the records
// around its app's hook_fired event — what the pipeline was doing when
// that app completed — when the flight recorder still holds it.
func attachFlightSlices(doc *core.ExplainDoc, f *obs.Flight) {
	var apps []string
	for _, c := range doc.Cells {
		for _, ex := range c.Exemplars {
			apps = append(apps, ex.App)
		}
	}
	around := f.HookContext(apps, explainFlightContext)
	for _, c := range doc.Cells {
		for i, ex := range c.Exemplars {
			c.Exemplars[i].Flight = around[ex.App]
		}
	}
}

// sloDoc is the /slo response: every rule's current evaluation plus the
// recorded firing/resolved transitions, all on the event clock — and
// the self-applied rules over the pipeline's own stage latencies.
type sloDoc struct {
	NowMS       int64            `json:"now_ms"`
	Firing      int              `json:"firing"`
	Rules       []slo.RuleStatus `json:"rules"`
	History     []slo.Transition `json:"history"`
	SelfFiring  int              `json:"self_firing"`
	SelfRules   []slo.RuleStatus `json:"self_rules"`
	SelfHistory []slo.Transition `json:"self_history,omitempty"`
}

func (s *liveServer) handleSLO(w http.ResponseWriter, _ *http.Request) {
	s.obsMu.Lock()
	doc := sloDoc{
		NowMS:   s.eng.Now(),
		Firing:  s.eng.FiringCount(),
		Rules:   s.eng.Status(),
		History: s.eng.History(),
	}
	s.obsMu.Unlock()
	s.selfMu.Lock()
	doc.SelfFiring = s.selfEng.FiringCount()
	doc.SelfRules = s.selfEng.Status()
	doc.SelfHistory = s.selfEng.History()
	s.selfMu.Unlock()
	writeJSON(w, http.StatusOK, doc)
}

// healthDoc is the /healthz body. Status is "ok" until either
// healthFailThreshold consecutive scans fail ("unhealthy", 503) or the
// pipeline watchdog declares a stall ("degraded", 503 with the reason
// and the automatic flight-snapshot count).
type healthDoc struct {
	Status         string `json:"status"`
	Events         int    `json:"events"`
	Apps           int    `json:"apps"`
	AppsIngested   uint64 `json:"apps_ingested"`
	LastScanUnixMS int64  `json:"last_scan_unix_ms,omitempty"`
	LastError      string `json:"last_error,omitempty"`
	ConsecFails    int    `json:"consecutive_failures,omitempty"`
	Watchdog       string `json:"watchdog,omitempty"`
	// WatchdogEpisodes counts distinct stall episodes ever declared;
	// LastSnapshotSeq is the flight seq of the latest automatic snapshot
	// event, so operators can line /healthz up against /debug/flight.
	WatchdogEpisodes int64  `json:"watchdog_episodes"`
	LastSnapshotSeq  uint64 `json:"last_flight_snapshot_seq,omitempty"`
	SelfSLOFiring    int    `json:"self_slo_firing"`
	FlightRecorded   uint64 `json:"flight_events_recorded"`
	FlightSnapshots  int64  `json:"flight_snapshots"`
}

func (s *liveServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	doc := healthDoc{
		Status:         "ok",
		Events:         s.st.EventCount(),
		Apps:           s.st.AppCount(),
		LastScanUnixMS: s.lastScanUnixMS,
		LastError:      s.lastErr,
		ConsecFails:    s.consecFails,
	}
	s.mu.Unlock()
	s.obsMu.Lock()
	doc.AppsIngested = s.eng.AppsIngested()
	s.obsMu.Unlock()
	s.selfMu.Lock()
	doc.SelfSLOFiring = s.selfEng.FiringCount()
	s.selfMu.Unlock()
	// The verdict is read before the counters: the watchdog counts a
	// stall episode and its snapshot under the lock it sets the verdict
	// under, so a degraded answer always carries both.
	stalled, reason := s.wd.Stalled()
	doc.FlightRecorded = s.pl.Flight().Recorded()
	doc.FlightSnapshots = s.wd.Snapshots()
	doc.WatchdogEpisodes = s.wd.Episodes()
	doc.LastSnapshotSeq = s.wd.LastSnapshotSeq()
	code := http.StatusOK
	switch {
	case doc.ConsecFails >= healthFailThreshold:
		doc.Status = "unhealthy"
		code = http.StatusServiceUnavailable
	case stalled:
		doc.Status = "degraded"
		doc.Watchdog = reason
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, doc)
}

// writeJSON sends doc, indented, with status code.
func writeJSON(w http.ResponseWriter, code int, doc any) {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

// startWatch makes the directory watch a started server ingests by;
// tests replace it to run a server without one.
var startWatch = newWatcher

// start listens on addr, launches the background ingestion loop and the
// watchdog checker, and serves HTTP. It returns the bound listener so
// callers (and tests) can learn the actual address when addr is ":0".
func (s *liveServer) start(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: s.handler()}
	// The watch starts before the first walk, which notes every
	// directory it lists for it. Without one the walk is the only path.
	if w, err := startWatch(s.sc.dir); err != nil {
		s.noWatch.Inc()
	} else {
		s.sc.w = w
		s.wg.Add(1)
		go func() { defer s.wg.Done(); w.run() }()
	}
	s.wg.Add(3)
	go func() { defer s.wg.Done(); s.ingest() }()
	go func() { defer s.wg.Done(); s.watchdogLoop() }()
	go func() {
		defer s.wg.Done()
		// Serve returns once close() closes the server; the
		// ErrServerClosed it reports then is the normal shutdown path,
		// not a failure.
		_ = s.hs.Serve(ln)
	}()
	return ln, nil
}

// close stops the ingestion loop, the HTTP server (listener and live
// connections both), and the stream's worker goroutines, and joins
// every goroutine start launched before returning.
func (s *liveServer) close() {
	close(s.done)
	if s.hs != nil {
		s.hs.Close()
	}
	if s.sc.w != nil {
		s.sc.w.close()
	}
	s.mu.Lock()
	s.st.Close()
	s.mu.Unlock()
	s.wg.Wait()
}

// serveDir is the -serve entry point: tail dir forever, serving the live
// endpoints on addr.
func serveDir(addr, dir string, o serveOptions) error {
	srv := newLiveServer(dir, o)
	ln, err := srv.start(addr)
	if err != nil {
		return err
	}
	defer srv.close()
	extra := ""
	if o.debug {
		extra = " /debug/pprof/*"
	}
	fmt.Printf("sdchecker: serving %s on http://%s (endpoints: /metrics /apps /trace/<seq> /trace/pipeline /aggregate /explain /slo /healthz /debug/flight%s; %d SLO rules, %d self rules)\n",
		dir, ln.Addr(), extra, len(o.rules), len(srv.selfEng.Rules()))
	select {} // run until interrupted
}
