package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/log4j"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/spark"
	"repro/internal/workload"
)

// writeScenarioLogs simulates a small cluster run and materializes its
// log tree, returning the directory.
func writeScenarioLogs(t *testing.T) string {
	t.Helper()
	s := experiments.NewScenario(experiments.DefaultOptions())
	tables := workload.CreateTPCHTables(s.FS, 2048)
	for i := 0; i < 2; i++ {
		cfg := spark.DefaultConfig(workload.TPCHQuery(i+1, 2048, tables))
		s.Eng.At(sim.Time(int64(i)*4000+1000), func() { spark.Submit(s.RM, s.FS, cfg) })
	}
	s.Run(sim.Time(1800 * sim.Second))
	dir := t.TempDir()
	if err := s.Sink.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// testServeOptions is the standard test configuration: small retention,
// the given workers and rules, everything else at defaults.
func testServeOptions(workers int, rules []slo.Rule) serveOptions {
	o := defaultServeOptions(workers)
	o.retain = 1024
	o.rules = rules
	return o
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServeEndpoints starts the real -serve server (listener, background
// ingestion loop and all) on a simulated log tree and exercises every
// endpoint while ingestion is live.
func TestServeEndpoints(t *testing.T) {
	dir := writeScenarioLogs(t)
	srv := newLiveServer(dir, testServeOptions(4, nil))
	ln, err := srv.start(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	defer ln.Close()
	base := "http://" + ln.Addr().String()

	// The ingestion loop polls in the background; wait until the first
	// scan has absorbed the tree.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := get(t, base+"/healthz")
		if code != http.StatusOK {
			t.Fatalf("/healthz status %d", code)
		}
		var h healthDoc
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatalf("/healthz is not valid JSON: %v\n%s", err, body)
		}
		if h.Status == "ok" && h.Apps > 0 && h.LastScanUnixMS > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingestion never caught up: %q", body)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// /metrics: Prometheus text format with the stream's series.
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE core_stream_lines_total counter",
		"core_stream_apps_completed",
		"core_parser_hits_total{regex=\"rm_container\"}",
		"# TYPE core_component_delay_ms histogram",
		`component="total"`,
		"slo_rules_firing 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	for _, ln := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(ln, "#") || ln == "" {
			continue
		}
		if !strings.Contains(ln, " ") {
			t.Errorf("malformed exposition line %q", ln)
		}
	}

	// /apps: JSON array with both applications and full decompositions.
	code, body = get(t, base+"/apps")
	if code != http.StatusOK {
		t.Fatalf("/apps status %d", code)
	}
	var apps []struct {
		App    string `json:"app"`
		Decomp struct {
			Total int64 `json:"total_ms"`
		} `json:"decomposition"`
	}
	if err := json.Unmarshal([]byte(body), &apps); err != nil {
		t.Fatalf("/apps is not valid JSON: %v", err)
	}
	if len(apps) != 2 {
		t.Fatalf("/apps returned %d apps, want 2", len(apps))
	}
	for _, a := range apps {
		if a.Decomp.Total <= 0 {
			t.Errorf("app %s has no total decomposition: %+v", a.App, a.Decomp)
		}
	}

	// /trace/1: Chrome trace-event JSON with the component spans.
	code, body = get(t, base+"/trace/1")
	if code != http.StatusOK {
		t.Fatalf("/trace/1 status %d", code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace/1 is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			names[e.Name] = true
		}
	}
	for _, want := range []string{"am", "driver", "executor", "localization", "launching"} {
		if !names[want] {
			t.Errorf("/trace/1 missing span %q (got %v)", want, names)
		}
	}

	// Error paths.
	if code, _ := get(t, base+"/trace/999"); code != http.StatusNotFound {
		t.Errorf("/trace/999 status %d, want 404", code)
	}
	if code, _ := get(t, base+"/trace/bogus"); code != http.StatusBadRequest {
		t.Errorf("/trace/bogus status %d, want 400", code)
	}
	if code, _ := get(t, fmt.Sprintf("%s/healthz", base)); code != http.StatusOK {
		t.Error("healthz broke mid-test")
	}
}

func sloRules(t *testing.T, src string) []slo.Rule {
	t.Helper()
	rules, err := slo.ParseRules(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// TestServeAggregateAndSLOLifecycle drives the serve stack over a
// simulated 26-node TPC-H run: /aggregate must expose percentile tables
// with per-queue/per-node attribution, and a tight SLO rule must
// demonstrably fire on the run's delays and resolve once the cluster's
// event clock moves past the rule window.
func TestServeAggregateAndSLOLifecycle(t *testing.T) {
	dir := writeScenarioLogs(t)
	rules := sloRules(t, "tight-total: p50(total) < 1ms over 5m\n")
	srv := newLiveServer(dir, testServeOptions(4, rules))
	defer srv.close()
	if err := srv.pollOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// /aggregate: cumulative percentile tables.
	code, body := get(t, ts.URL+"/aggregate")
	if code != http.StatusOK {
		t.Fatalf("/aggregate status %d", code)
	}
	var agg struct {
		Alpha      float64              `json:"alpha"`
		Apps       uint64               `json:"apps_ingested"`
		Components []core.BreakdownRow  `json:"components"`
		Rows       []core.BreakdownRow  `json:"rows"`
		WorstNodes map[string]worstSpot `json:"worst_nodes"`
	}
	if err := json.Unmarshal([]byte(body), &agg); err != nil {
		t.Fatalf("/aggregate is not valid JSON: %v\n%s", err, body)
	}
	if agg.Apps != 2 || agg.Alpha <= 0 {
		t.Fatalf("aggregate header: %+v", agg)
	}
	var sawTotal, sawNodeRow bool
	for _, r := range agg.Components {
		if r.Component == "total" {
			sawTotal = true
			if r.Count != 2 || r.P50MS <= 0 || r.P99MS < r.P50MS {
				t.Errorf("total rollup %+v", r)
			}
		}
	}
	for _, r := range agg.Rows {
		if r.Node != "" {
			sawNodeRow = true
		}
	}
	if !sawTotal {
		t.Error("no total component in /aggregate")
	}
	if !sawNodeRow {
		t.Error("no per-node rows: node attribution did not flow through")
	}
	if _, ok := agg.WorstNodes["localization"]; !ok {
		t.Errorf("no worst-node callout for localization: %+v", agg.WorstNodes)
	}

	// ?component= narrows both tables.
	_, body = get(t, ts.URL+"/aggregate?component=alloc")
	var filtered struct {
		Components []core.BreakdownRow `json:"components"`
		Rows       []core.BreakdownRow `json:"rows"`
	}
	if err := json.Unmarshal([]byte(body), &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Rows) == 0 {
		t.Fatal("component filter returned nothing")
	}
	for _, r := range append(filtered.Components, filtered.Rows...) {
		if r.Component != "alloc" {
			t.Fatalf("filter leaked %+v", r)
		}
	}

	// /slo: the tight rule must be firing on real scheduling delays.
	code, body = get(t, ts.URL+"/slo")
	if code != http.StatusOK {
		t.Fatalf("/slo status %d", code)
	}
	var doc sloDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/slo is not valid JSON: %v\n%s", err, body)
	}
	if doc.Firing != 1 || len(doc.Rules) != 1 || doc.Rules[0].State != "firing" {
		t.Fatalf("rule not firing: %+v", doc)
	}
	if len(doc.History) != 1 || doc.History[0].State != "firing" {
		t.Fatalf("history %+v", doc.History)
	}
	if doc.Rules[0].ValueMS <= 1 {
		t.Fatalf("window value %v should exceed the 1ms threshold", doc.Rules[0].ValueMS)
	}

	// The cluster keeps logging but no new delays arrive: a later RM
	// line advances the event clock past the rule window and the alert
	// resolves.
	late := log4j.Line{
		TimeMS: doc.NowMS + 10*60*1000, Level: log4j.Info, Class: "x.RMAppImpl",
		Message: "application_1499000000000_0099 State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED",
	}.Format()
	if err := os.WriteFile(filepath.Join(dir, "late-rm.log"), []byte(late+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.pollOnce(); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, ts.URL+"/slo")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Firing != 0 || doc.Rules[0].State != "ok" {
		t.Fatalf("rule did not resolve: %+v", doc)
	}
	if len(doc.History) != 2 || doc.History[1].State != "ok" {
		t.Fatalf("history after recovery %+v", doc.History)
	}

	// /metrics reflects the engine state.
	_, body = get(t, ts.URL+"/metrics")
	for _, want := range []string{"slo_rules_firing 0", "slo_apps_ingested 2"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServeHealthzDegraded checks the 503 path: a scan target that
// disappears flips /healthz to unhealthy after enough consecutive
// failures, and reports the last error.
func TestServeHealthzDegraded(t *testing.T) {
	dir := t.TempDir()
	gone := filepath.Join(dir, "gone")
	if err := os.Mkdir(gone, 0o755); err != nil {
		t.Fatal(err)
	}
	srv := newLiveServer(gone, testServeOptions(4, nil))
	defer srv.close()
	if err := srv.pollOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthy tree reported %d: %s", code, body)
	}

	if err := os.RemoveAll(gone); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < healthFailThreshold; i++ {
		if err := srv.pollOnce(); err == nil {
			t.Fatal("scan of a removed tree succeeded")
		}
		code, _ = get(t, ts.URL+"/healthz")
		if i < healthFailThreshold-1 && code != http.StatusOK {
			t.Fatalf("degraded after only %d failures", i+1)
		}
	}
	code, body = get(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d after %d failures, want 503", code, healthFailThreshold)
	}
	var h healthDoc
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "unhealthy" || h.LastError == "" || h.ConsecFails < healthFailThreshold {
		t.Fatalf("health doc %+v", h)
	}

	// Recovery: restore the tree, one good scan resets the counter.
	if err := os.Mkdir(gone, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := srv.pollOnce(); err != nil {
		t.Fatal(err)
	}
	if code, _ = get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz did not recover: %d", code)
	}
}

// TestServeConcurrentScrapes hammers every read endpoint while the
// ingestion path is feeding the stream, under -race in CI. Reported
// ingestion counts must be monotonically non-decreasing across scrapes.
func TestServeConcurrentScrapes(t *testing.T) {
	dir := writeScenarioLogs(t)
	rules := sloRules(t, "tight-total: p50(total) < 1ms over 5m\n")
	o := testServeOptions(4, rules)
	o.watchdogTickMS = 5 // hammer the watchdog/runtime sampler too
	srv := newLiveServer(dir, o)
	defer srv.close()
	go srv.watchdogLoop() // exits when srv.close() closes done
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errc := make(chan error, 12)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := srv.pollOnce(); err != nil {
				errc <- err
				return
			}
		}
	}()
	for _, ep := range []string{"/metrics", "/aggregate", "/slo", "/apps", "/debug/flight", "/trace/pipeline"} {
		wg.Add(1)
		go func(ep string) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				code, _ := get(t, ts.URL+ep)
				if code != http.StatusOK {
					errc <- fmt.Errorf("%s returned %d", ep, code)
					return
				}
			}
		}(ep)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev uint64
		for i := 0; i < 25; i++ {
			_, body := get(t, ts.URL+"/healthz")
			var h healthDoc
			if err := json.Unmarshal([]byte(body), &h); err != nil {
				errc <- fmt.Errorf("healthz JSON: %v", err)
				return
			}
			if h.AppsIngested < prev {
				errc <- fmt.Errorf("apps_ingested went backwards: %d -> %d", prev, h.AppsIngested)
				return
			}
			prev = h.AppsIngested
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// After the dust settles the engine saw both applications.
	_, body := get(t, ts.URL+"/healthz")
	var h healthDoc
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.AppsIngested != 2 {
		t.Fatalf("apps_ingested = %d, want 2", h.AppsIngested)
	}
}

// TestServeWorkersByteIdentical pins the -workers contract end to end on
// the serve scan loop: two servers tailing the same tree, one serial and
// one with four shard workers, must expose byte-identical /apps JSON.
func TestServeWorkersByteIdentical(t *testing.T) {
	dir := writeScenarioLogs(t)
	serial := newLiveServer(dir, testServeOptions(1, nil))
	defer serial.close()
	sharded := newLiveServer(dir, testServeOptions(4, nil))
	defer sharded.close()
	for _, srv := range []*liveServer{serial, sharded} {
		if err := srv.pollOnce(); err != nil {
			t.Fatal(err)
		}
	}

	ts1 := httptest.NewServer(serial.handler())
	defer ts1.Close()
	ts4 := httptest.NewServer(sharded.handler())
	defer ts4.Close()
	_, body1 := get(t, ts1.URL+"/apps")
	_, body4 := get(t, ts4.URL+"/apps")
	if body1 != body4 {
		t.Fatal("/apps diverges between -workers 1 and -workers 4")
	}
	if body1 == "" || body1 == "null\n" {
		t.Fatalf("empty /apps body: %q", body1)
	}
	// The streamed body is the report's JSON and a newline.
	if want, err := serial.st.Report().JSON(); err != nil || body1 != want+"\n" {
		t.Fatalf("/apps body differs from Report().JSON() plus a newline (err %v)", err)
	}

	// The cumulative aggregates (fed through the completion hook on
	// worker goroutines) must agree as well.
	_, agg1 := get(t, ts1.URL+"/aggregate")
	_, agg4 := get(t, ts4.URL+"/aggregate")
	if agg1 != agg4 {
		t.Fatal("/aggregate diverges between -workers 1 and -workers 4")
	}
}

// TestServeCloseStopsServing pins the close() contract: it closes the
// listener and joins every goroutine start() launched (ingest, watchdog,
// HTTP acceptor), so a closed server holds no port and leaks no
// goroutine. Regression for the unaccounted `go http.Serve` flagged by
// flow.goaccount: before the fix, close() left the acceptor serving the
// old listener forever.
func TestServeCloseStopsServing(t *testing.T) {
	dir := writeScenarioLogs(t)
	srv := newLiveServer(dir, testServeOptions(2, nil))
	ln, err := srv.start(":0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	if code, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz status %d before close", code)
	}

	joined := make(chan struct{})
	go func() { srv.close(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(10 * time.Second):
		t.Fatal("close() did not join the server goroutines within 10s")
	}

	// Drop the client's idle keep-alive connection so the probe below
	// dials fresh instead of reusing a socket the server already closed.
	http.DefaultClient.CloseIdleConnections()
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting connections after close()")
	}
}

// stalledClient is a ResponseWriter whose Write blocks until release is
// closed: a /metrics client that has stopped reading.
type stalledClient struct {
	header  http.Header
	once    sync.Once
	writing chan struct{} // closed by the first Write
	release chan struct{}
}

func (c *stalledClient) Header() http.Header { return c.header }
func (c *stalledClient) WriteHeader(int)     {}
func (c *stalledClient) Write(b []byte) (int, error) {
	c.once.Do(func() { close(c.writing) })
	<-c.release
	return len(b), nil
}

// TestServeMetricsSlowClientDoesNotStallPoll: a /metrics client that
// stops reading must not hold the lock the poll needs, or ingestion
// stops and the watchdog declares a stall.
func TestServeMetricsSlowClientDoesNotStallPoll(t *testing.T) {
	dir := writeScenarioLogs(t)
	srv := newLiveServer(dir, testServeOptions(1, nil))
	defer srv.close()
	if err := srv.pollOnce(); err != nil {
		t.Fatal(err)
	}
	c := &stalledClient{header: http.Header{}, writing: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.handleMetrics(c, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	}()
	<-c.writing
	polled := make(chan error, 1)
	go func() { polled <- srv.pollOnce() }()
	select {
	case err := <-polled:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("pollOnce blocked behind a /metrics client that stopped reading")
		close(c.release)
		<-polled
		<-served
		return
	}
	close(c.release)
	<-served
}
