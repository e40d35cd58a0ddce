package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/log4j"
	"repro/internal/obs"
)

// writePlantedLogs writes a log tree holding `fast` quick applications
// plus one massive outlier (90s of scheduling delay), returning the
// outlier's application ID. Total delay is first-task minus submission,
// so the outlier's executor sits idle until 90s after submit.
func writePlantedLogs(t *testing.T, dir string, fast int) string {
	t.Helper()
	const base = int64(1499000000000)
	l := func(off int64, class, msg string) string {
		return log4j.Line{TimeMS: base + off, Level: log4j.Info, Class: class, Message: msg}.Format()
	}
	write := func(rel string, lines []string) {
		t.Helper()
		p := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var rmLines []string
	var outlier string
	for n := 1; n <= fast+1; n++ {
		app := fmt.Sprintf("application_1499000000000_%04d", n)
		am := fmt.Sprintf("container_1499000000000_%04d_01_000001", n)
		ex := fmt.Sprintf("container_1499000000000_%04d_01_000002", n)
		sub := int64(n) * 200_000
		task := sub + 1_500 + int64(n) // fast apps: ~1.5s total
		if n == fast+1 {
			task = sub + 90_000 // the planted outlier
			outlier = app
		}
		reg, amLog, exLog := sub+400, sub+200, sub+800
		fin := task + 5_000
		rmLines = append(rmLines,
			l(sub, "x.RMAppImpl", app+" State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
			l(sub+1, "x.RMAppImpl", app+" State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"),
			l(reg, "x.RMAppImpl", app+" State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED"),
			l(fin, "x.RMAppImpl", app+" State change from FINAL_SAVING to FINISHED on event = APP_UPDATE_SAVED"),
		)
		write("userlogs/"+app+"/"+am+"/stderr", []string{
			l(amLog, "org.apache.spark.deploy.yarn.ApplicationMaster", "Preparing Local resources"),
			l(reg, "org.apache.spark.deploy.yarn.ApplicationMaster", "Registered with ResourceManager as x"),
		})
		write("userlogs/"+app+"/"+ex+"/stderr", []string{
			l(exLog, "org.apache.spark.executor.CoarseGrainedExecutorBackend", "Started daemon"),
			l(task, "org.apache.spark.executor.CoarseGrainedExecutorBackend", "Got assigned task 0"),
		})
	}
	write("hadoop/yarn-resourcemanager.log", rmLines)
	return outlier
}

// TestExplainCLIPlantedOutlier is the offline acceptance scenario:
// `sdchecker -explain total` over a tree with one known-worst app must
// rank that app first — first heavy hitter, first exemplar — with its
// decomposition attached.
func TestExplainCLIPlantedOutlier(t *testing.T) {
	dir := t.TempDir()
	outlier := writePlantedLogs(t, dir, 5)
	rep, err := core.MineDir(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := explainReport(rep, "total", 0.99)
	if err != nil {
		t.Fatal(err)
	}
	// The outlier leads the report: the first application named in any
	// heavy-hitter or exemplar line is the planted one.
	first := ""
	firstIdx := len(out)
	for n := 1; n <= 6; n++ {
		app := fmt.Sprintf("application_1499000000000_%04d", n)
		if i := strings.Index(out, app); i >= 0 && i < firstIdx {
			first, firstIdx = app, i
		}
	}
	if first != outlier {
		t.Fatalf("report leads with %q, want planted outlier %q:\n%s", first, outlier, out)
	}
	if !strings.Contains(out, "exemplar "+outlier+" 90000ms") {
		t.Errorf("report lacks the outlier exemplar at 90000ms:\n%s", out)
	}
	if !strings.Contains(out, "trace /trace/6") {
		t.Errorf("report lacks the outlier trace deep link:\n%s", out)
	}

	// Flag validation.
	if _, err := explainReport(rep, "bogus", 0.99); err == nil {
		t.Error("unknown component accepted")
	}
	if _, err := explainReport(rep, "total", 1.5); err == nil {
		t.Error("out-of-range quantile accepted")
	}
}

// TestServeExplainEndpoint drives the live drill-down path: /explain on
// a serving instance resolves the planted outlier to a live summary,
// trace link, and its flight-recorder slice.
func TestServeExplainEndpoint(t *testing.T) {
	dir := t.TempDir()
	outlier := writePlantedLogs(t, dir, 5)
	srv := newLiveServer(dir, testServeOptions(4, nil))
	defer srv.close()
	if err := srv.pollOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	code, body := get(t, ts.URL+"/explain?component=total&q=0.99")
	if code != 200 {
		t.Fatalf("/explain status %d: %s", code, body)
	}
	var doc core.ExplainDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/explain is not valid JSON: %v\n%s", err, body)
	}
	if doc.Component != "total" || doc.Count != 6 {
		t.Fatalf("doc header %+v", doc)
	}
	if len(doc.Cells) == 0 || len(doc.Cells[0].Exemplars) == 0 {
		t.Fatalf("no exemplars: %s", body)
	}
	ex := doc.Cells[0].Exemplars[0]
	if ex.App != outlier {
		t.Fatalf("top exemplar %q, want planted outlier %q", ex.App, outlier)
	}
	if ex.Evicted || ex.Summary == nil || ex.Summary.Decomp.Total != 90_000 {
		t.Errorf("live enrichment wrong: %+v", ex)
	}
	if ex.TracePath == "" {
		t.Error("no trace deep link")
	} else if code, _ := get(t, ts.URL+ex.TracePath); code != 200 {
		t.Errorf("trace deep link %s returned %d", ex.TracePath, code)
	}
	if len(ex.Flight) == 0 {
		t.Error("no flight-recorder slice around the exemplar's completion")
	}

	// Default component and parameter validation.
	if code, _ := get(t, ts.URL+"/explain"); code != 200 {
		t.Errorf("/explain without params returned %d", code)
	}
	if code, _ := get(t, ts.URL+"/explain?q=bogus"); code != 400 {
		t.Errorf("bad q returned %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/explain?q=2"); code != 400 {
		t.Errorf("q=2 returned %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/explain?component=bogus"); code != 400 {
		t.Errorf("unknown component returned %d, want 400", code)
	}

	// The attribution metrics are live.
	_, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{"attr_exemplars_total", "attr_exemplars_tracked", "attr_topk_entries", "attr_pinned_apps"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServeExplainAfterEviction is the eviction-vs-drill-down
// regression: with retain=0 every completed trace is evicted in the same
// poll that observed it, yet /explain must still resolve its exemplars
// through the pinned summaries — marked evicted, decomposition intact.
func TestServeExplainAfterEviction(t *testing.T) {
	dir := t.TempDir()
	outlier := writePlantedLogs(t, dir, 5)
	o := testServeOptions(1, nil)
	o.retain = 0
	srv := newLiveServer(dir, o)
	defer srv.close()
	if err := srv.pollOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	_, body := get(t, ts.URL+"/explain?component=total")
	var doc core.ExplainDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Cells) == 0 || len(doc.Cells[0].Exemplars) == 0 {
		t.Fatalf("no exemplars after eviction: %s", body)
	}
	ex := doc.Cells[0].Exemplars[0]
	if ex.App != outlier {
		t.Fatalf("top exemplar %q, want %q", ex.App, outlier)
	}
	if !ex.Evicted {
		t.Error("exemplar of an evicted app not marked evicted")
	}
	if ex.Summary == nil || ex.Summary.Decomp.Total != 90_000 {
		t.Errorf("pinned summary missing or wrong: %+v", ex.Summary)
	}
	if ex.TracePath == "" {
		t.Error("pinned summary lost the trace seq")
	}
}

// TestHealthzWatchdogFields: /healthz carries the watchdog episode count
// (always) and the last snapshot seq (when one was taken).
func TestHealthzWatchdogFields(t *testing.T) {
	dir := t.TempDir()
	writePlantedLogs(t, dir, 1)
	srv := newLiveServer(dir, testServeOptions(1, nil))
	defer srv.close()
	if err := srv.pollOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	_, body := get(t, ts.URL+"/healthz")
	var raw map[string]any
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["watchdog_episodes"]; !ok {
		t.Errorf("/healthz missing watchdog_episodes: %s", body)
	}
	var h healthDoc
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.WatchdogEpisodes != 0 {
		t.Errorf("healthy server reports %d stall episodes", h.WatchdogEpisodes)
	}
}

// TestServeExplainFlightOutlivesStageTraffic: stage batches several
// flight rings long, recorded after an app completes, must not push the
// app's hook_fired event out of its /explain flight slice.
func TestServeExplainFlightOutlivesStageTraffic(t *testing.T) {
	dir := t.TempDir()
	outlier := writePlantedLogs(t, dir, 5)
	srv := newLiveServer(dir, testServeOptions(2, nil))
	defer srv.close()
	if err := srv.pollOnce(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*4096; i++ {
		srv.pl.StageBatch(obs.StageParse, i%2, srv.pl.Begin(), 1)
	}
	if err := srv.pollOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	_, body := get(t, ts.URL+"/explain?component=total")
	var doc core.ExplainDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Cells) == 0 || len(doc.Cells[0].Exemplars) == 0 || doc.Cells[0].Exemplars[0].App != outlier {
		t.Fatalf("planted outlier is not the top exemplar: %s", body)
	}
	for _, e := range doc.Cells[0].Exemplars[0].Flight {
		if e.Kind == obs.KindHook && e.Detail == outlier {
			return
		}
	}
	t.Errorf("outlier's flight slice lost its hook_fired event: %+v", doc.Cells[0].Exemplars[0].Flight)
}

// TestServeExplainFlightOutlivesIdlePolls: polls that find nothing new,
// more than an event ring's worth of two records each, recorded after an
// app completes, must not push the app's hook_fired event out of its
// /explain flight slice. Each poll's scan is a stage record; the poll
// adds nothing to the event ring.
func TestServeExplainFlightOutlivesIdlePolls(t *testing.T) {
	dir := t.TempDir()
	outlier := writePlantedLogs(t, dir, 5)
	srv := newLiveServer(dir, testServeOptions(2, nil))
	defer srv.close()
	for i := 0; i < 4096/2+64; i++ {
		if err := srv.pollOnce(); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	_, body := get(t, ts.URL+"/explain?component=total")
	var doc core.ExplainDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Cells) == 0 || len(doc.Cells[0].Exemplars) == 0 || doc.Cells[0].Exemplars[0].App != outlier {
		t.Fatalf("planted outlier is not the top exemplar: %s", body)
	}
	for _, e := range doc.Cells[0].Exemplars[0].Flight {
		if e.Kind == obs.KindHook && e.Detail == outlier {
			return
		}
	}
	t.Errorf("outlier's flight slice lost its hook_fired event: %+v", doc.Cells[0].Exemplars[0].Flight)
}
