package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/log4j"
)

// waitFor polls cond every 25ms until it returns true or the deadline
// expires.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestServeWatchdogStallInjection is the end-to-end anomaly drill: a
// gated scan loop stalls, the watchdog flips /healthz to degraded and
// snapshots the flight recorder exactly once, the shipped self-SLO is
// firing on the pipeline's own scan latency, and releasing the gate
// recovers the server.
func TestServeWatchdogStallInjection(t *testing.T) {
	dir := writeScenarioLogs(t)
	proceed := make(chan struct{}, 64)
	released := false

	o := testServeOptions(2, nil)
	// A 1ms scan objective: any real scan of the tree violates it, so
	// the default-rule plumbing demonstrably fires end to end.
	o.selfRules = defaultSelfRules(1)
	o.stallAfterMS = 2_000 // above the 1s poll cadence: healthy ops never trip it
	o.watchdogTickMS = 25
	o.scanGate = func() { <-proceed }
	srv := newLiveServer(dir, o)
	ln, err := srv.start(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	defer ln.Close()
	// Deferred last so it runs first: a failing test must open the gate
	// before srv.close waits for the scan loop blocked on it.
	defer func() {
		if !released {
			close(proceed)
		}
	}()
	base := "http://" + ln.Addr().String()

	// Let exactly one scan through and wait for it to absorb the tree.
	proceed <- struct{}{}
	waitFor(t, "first scan", 10*time.Second, func() bool {
		_, body := get(t, base+"/healthz")
		var h healthDoc
		return json.Unmarshal([]byte(body), &h) == nil && h.Apps > 0
	})

	// The self-SLO fired on the scan's own latency.
	_, body := get(t, base+"/slo")
	var sd sloDoc
	if err := json.Unmarshal([]byte(body), &sd); err != nil {
		t.Fatalf("/slo JSON: %v", err)
	}
	if sd.SelfFiring != 1 || len(sd.SelfRules) != 1 || sd.SelfRules[0].State != "firing" {
		t.Fatalf("self-SLO not firing on scan latency: %+v", sd)
	}
	if sd.SelfRules[0].Name != "pipeline-scan-p99" {
		t.Fatalf("unexpected self rule %q", sd.SelfRules[0].Name)
	}

	// No more gate tokens: the scan loop is now stuck. The watchdog
	// must degrade /healthz and take an automatic snapshot.
	var h healthDoc
	waitFor(t, "watchdog degradation", 15*time.Second, func() bool {
		code, body := get(t, base+"/healthz")
		h = healthDoc{}
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			return false
		}
		return code == http.StatusServiceUnavailable && h.Status == "degraded"
	})
	if h.Watchdog == "" || h.FlightSnapshots < 1 || h.SelfSLOFiring != 1 {
		t.Fatalf("degraded health doc incomplete: %+v", h)
	}

	// The automatic snapshot is servable and records the stall itself.
	code, snap := get(t, base+"/debug/flight?snapshot=last")
	if code != http.StatusOK {
		t.Fatalf("snapshot=last status %d", code)
	}
	if !strings.Contains(snap, `"kind": "watchdog_stall"`) {
		t.Fatalf("snapshot missing the stall event:\n%.2000s", snap)
	}
	// The live recorder has moved past the snapshot: it also holds the
	// flight_snapshot marker.
	_, live := get(t, base+"/debug/flight")
	if !strings.Contains(live, `"kind": "flight_snapshot"`) {
		t.Fatal("live flight dump missing the snapshot marker")
	}

	// Stall metrics made it to /metrics.
	_, mtext := get(t, base+"/metrics")
	for _, want := range []string{"obs_watchdog_stalls_total 1", "obs_flight_snapshots_total 1"} {
		if !strings.Contains(mtext, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Release the gate: scans resume, the watchdog recovers.
	released = true
	close(proceed)
	waitFor(t, "recovery", 15*time.Second, func() bool {
		code, _ := get(t, base+"/healthz")
		return code == http.StatusOK
	})
}

// TestServeFlightDumpDeterministic pins the flight recorder's
// reproducibility contract: two one-worker servers with the same injected
// clock tailing the same tree record the same completion-hook and
// eviction history. Hooks fire in absorb order, which one shard makes
// the feed order. Stage batches and timestamps are not compared: how
// many lines the worker grabs per batch depends on goroutine scheduling.
func TestServeFlightDumpDeterministic(t *testing.T) {
	dir := writeScenarioLogs(t)
	type flightEvent struct {
		Kind   string `json:"kind"`
		Detail string `json:"detail"`
	}
	run := func() []flightEvent {
		var now atomic.Int64
		now.Store(1_000_000)
		o := testServeOptions(1, nil)
		o.clock = func() int64 { return now.Add(7) }
		srv := newLiveServer(dir, o)
		defer srv.close()
		for i := 0; i < 3; i++ {
			if err := srv.pollOnce(); err != nil {
				t.Fatal(err)
			}
		}
		ts := httptest.NewServer(srv.handler())
		defer ts.Close()
		code, body := get(t, ts.URL+"/debug/flight")
		if code != http.StatusOK {
			t.Fatalf("/debug/flight status %d", code)
		}
		var d struct {
			Recorded uint64        `json:"recorded"`
			Events   []flightEvent `json:"events"`
		}
		if err := json.Unmarshal([]byte(body), &d); err != nil {
			t.Fatalf("/debug/flight JSON: %v", err)
		}
		if d.Recorded == 0 || len(d.Events) == 0 {
			t.Fatal("empty flight dump")
		}
		kinds := map[string]bool{}
		var history []flightEvent
		for _, e := range d.Events {
			kinds[e.Kind] = true
			if e.Kind == "hook_fired" || e.Kind == "evict" {
				history = append(history, e)
			}
		}
		for _, want := range []string{"stage", "hook_fired"} {
			if !kinds[want] {
				t.Errorf("flight dump missing %q events (got %v)", want, kinds)
			}
		}
		return history
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("hook/evict history diverges across identical fixed-clock runs:\n%v\n%v", a, b)
	}
}

// TestServeStageVisibilityEndToEnd drives a sharded server over a
// simulated tree plus adversarial cross-shard lines and asserts all six
// pipeline stages are visible in every surface: /metrics, the Perfetto
// export, and the flight recorder.
func TestServeStageVisibilityEndToEnd(t *testing.T) {
	dir := writeScenarioLogs(t)
	// Adversarial lines: the first ID in the line (app 0001) routes the
	// line, the state change belongs to another application — with 16
	// candidate peers on 2 shards, some pair crosses shards and the
	// forward stage lights up.
	var sb strings.Builder
	for seq := 2; seq <= 17; seq++ {
		msg := fmt.Sprintf("application_1499000000000_0001 peer update; application_1499000000000_%04d State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED", seq)
		sb.WriteString(log4j.Line{TimeMS: 1499000100000 + int64(seq), Level: log4j.Info,
			Class: "x.RMAppImpl", Message: msg}.Format() + "\n")
	}
	if err := os.WriteFile(filepath.Join(dir, "adversarial-rm.log"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := newLiveServer(dir, testServeOptions(2, nil))
	defer srv.close()
	if err := srv.pollOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	stages := []string{"read", "parse", "forward", "decompose", "aggregate", "scan"}

	// /metrics: every stage has at least one recorded batch.
	_, mtext := get(t, ts.URL+"/metrics")
	for _, st := range stages {
		re := regexp.MustCompile(`obs_stage_batches_total\{stage="` + st + `"\} (\d+)`)
		m := re.FindStringSubmatch(mtext)
		if m == nil {
			t.Fatalf("/metrics missing batches series for stage %q", st)
		}
		if n, _ := strconv.Atoi(m[1]); n == 0 {
			t.Errorf("stage %q recorded no batches", st)
		}
	}
	if !strings.Contains(mtext, "core_shard_queue_depth{shard=") {
		t.Error("/metrics missing per-shard queue depth gauges")
	}

	// /trace/pipeline: stage spans next to mined app timelines.
	code, body := get(t, ts.URL+"/trace/pipeline")
	if code != http.StatusOK {
		t.Fatalf("/trace/pipeline status %d", code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace/pipeline is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
	}
	for _, st := range stages {
		if !names[st] {
			t.Errorf("/trace/pipeline missing stage track %q (got %v)", st, names)
		}
	}
	// The mined application timelines ride in the same trace.
	for _, want := range []string{"am", "driver"} {
		if !names[want] {
			t.Errorf("/trace/pipeline missing app span %q next to pipeline tracks", want)
		}
	}

	// /debug/flight: stage events for all six stages, plus the forward
	// routing decisions themselves.
	_, fbody := get(t, ts.URL+"/debug/flight")
	var dump struct {
		Events []struct {
			Kind  string `json:"kind"`
			Stage string `json:"stage"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(fbody), &dump); err != nil {
		t.Fatalf("/debug/flight JSON: %v", err)
	}
	flightStages := map[string]bool{}
	sawForward := false
	for _, e := range dump.Events {
		if e.Kind == "stage" {
			flightStages[e.Stage] = true
		}
		if e.Kind == "forward" {
			sawForward = true
		}
	}
	for _, st := range stages {
		if !flightStages[st] {
			t.Errorf("flight recorder missing stage %q (got %v)", st, flightStages)
		}
	}
	if !sawForward {
		t.Error("flight recorder saw no cross-shard forward events")
	}
}

// TestServeDebugFlagGatesPprof pins the -debug contract: pprof handlers
// exist only when the flag is set.
func TestServeDebugFlagGatesPprof(t *testing.T) {
	dir := t.TempDir()
	plain := newLiveServer(dir, testServeOptions(1, nil))
	defer plain.close()
	tsPlain := httptest.NewServer(plain.handler())
	defer tsPlain.Close()
	if code, _ := get(t, tsPlain.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof exposed without -debug: %d", code)
	}
	// The flight recorder stays available either way.
	if code, _ := get(t, tsPlain.URL+"/debug/flight"); code != http.StatusOK {
		t.Fatalf("/debug/flight status %d without -debug", code)
	}

	o := testServeOptions(1, nil)
	o.debug = true
	dbg := newLiveServer(dir, o)
	defer dbg.close()
	tsDbg := httptest.NewServer(dbg.handler())
	defer tsDbg.Close()
	code, body := get(t, tsDbg.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index with -debug: %d\n%.500s", code, body)
	}
}

// TestModeConflict pins the flag mutual-exclusion matrix, including the
// new serve-only observability flags.
func TestModeConflict(t *testing.T) {
	cases := []struct {
		name    string
		follow  bool
		serve   string
		modes   int
		slo     string
		selfSLO string
		debug   bool
		explain string
		qSet    bool
		want    string
	}{
		{name: "plain mine", want: ""},
		{name: "serve with everything", serve: ":0", slo: "r.slo", selfSLO: "s.slo", debug: true, want: ""},
		{name: "follow+serve", follow: true, serve: ":0", want: "-follow and -serve are mutually exclusive"},
		{name: "serve+output", serve: ":0", modes: 1, want: "live modes (-follow, -serve) cannot be combined with output flags"},
		{name: "slo without serve", slo: "r.slo", want: "-slo requires -serve"},
		{name: "self-slo without serve", selfSLO: "s.slo", want: "-self-slo requires -serve"},
		{name: "debug without serve", debug: true, want: "-debug requires -serve"},
		{name: "two outputs", modes: 2, want: "choose at most one output mode"},
		{name: "explain alone", modes: 1, explain: "total", want: ""},
		{name: "explain with q", modes: 1, explain: "alloc", qSet: true, want: ""},
		{name: "q without explain", qSet: true, want: "-q requires -explain"},
		{name: "explain with serve", serve: ":0", modes: 1, explain: "total", want: "live modes (-follow, -serve) cannot be combined with output flags"},
		{name: "explain plus json", modes: 2, explain: "total", want: "choose at most one output mode"},
	}
	for _, c := range cases {
		if got := modeConflict(c.follow, c.serve, c.modes, c.slo, c.selfSLO, c.debug, c.explain, c.qSet); got != c.want {
			t.Errorf("%s: modeConflict = %q, want %q", c.name, got, c.want)
		}
	}
}
