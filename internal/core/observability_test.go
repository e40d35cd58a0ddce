package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/metrics"
)

// miniAppCorpus builds the smallest corpus that yields a *complete*
// headline decomposition (total, am, driver, executor) for app number seq.
func miniAppCorpus(seq int) corpus {
	cs := corpus{}
	app := fmt.Sprintf("application_1499000000000_%04d", seq)
	am := fmt.Sprintf("container_1499000000000_%04d_01_000001", seq)
	ex := fmt.Sprintf("container_1499000000000_%04d_01_000002", seq)
	off := int64(seq) * 20_000

	rm := "hadoop/yarn-resourcemanager.log"
	cs.add(rm, line(off+100, "x.RMAppImpl", app+" State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"))
	cs.add(rm, line(off+5100, "x.RMAppImpl", app+" State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED"))

	amLog := "userlogs/" + app + "/" + am + "/stderr"
	cs.add(amLog, line(off+1500, "org.apache.spark.deploy.yarn.ApplicationMaster", "Preparing Local resources"))
	cs.add(amLog, line(off+5100, "org.apache.spark.deploy.yarn.ApplicationMaster", "Registered with ResourceManager as x"))

	exLog := "userlogs/" + app + "/" + ex + "/stderr"
	cs.add(exLog, line(off+7100, "org.apache.spark.executor.CoarseGrainedExecutorBackend", "Started daemon"))
	cs.add(exLog, line(off+12000, "org.apache.spark.executor.CoarseGrainedExecutorBackend", "Got assigned task 0"))
	return cs
}

func feedCorpus(s *Stream, cs corpus) {
	for src, lines := range cs {
		for _, l := range lines {
			s.Feed(src, l)
		}
	}
}

// TestStreamEvictionBoundsMemory is the regression test for the unbounded
// firstLogSeen/event growth: a long-running feed of 2,000 completed
// applications must stay at the retention limit once EvictCompleted runs.
func TestStreamEvictionBoundsMemory(t *testing.T) {
	const apps, keep = 2000, 100
	reg := metrics.NewRegistry()
	s := NewStream()
	s.Instrument(reg)
	for i := 1; i <= apps; i++ {
		feedCorpus(s, miniAppCorpus(i))
		if i%50 == 0 && i < apps {
			s.EvictCompleted(keep)
		}
	}
	evicted := s.EvictCompleted(keep)
	if evicted == 0 {
		t.Fatal("final eviction removed nothing")
	}
	if got := len(s.apps); got != keep {
		t.Fatalf("apps retained = %d, want %d", got, keep)
	}
	// Evicted apps' events leave with their traces.
	held := 0
	for _, a := range s.Apps() {
		held += len(a.Events)
	}
	if got := s.EventCount(); got != held {
		t.Fatalf("EventCount = %d, retained traces hold %d events", got, held)
	}
	// 2 containers with stderr per app; all entries of evicted apps pruned.
	if got := len(s.firstLogSeen); got != 2*keep {
		t.Fatalf("firstLogSeen entries = %d, want %d", got, 2*keep)
	}
	// The oldest survivor must be the first kept app.
	survivors := s.Apps()
	if survivors[0].ID.Seq != apps-keep+1 {
		t.Fatalf("oldest survivor seq = %d, want %d", survivors[0].ID.Seq, apps-keep+1)
	}
	// Metric side: every evicted app counted.
	for _, snap := range reg.Snapshot() {
		switch snap.Name {
		case "core_stream_apps_evicted_total":
			if snap.Value != apps-keep {
				t.Errorf("evicted counter = %d, want %d", snap.Value, apps-keep)
			}
		case "core_stream_apps_completed":
			if snap.Value != keep {
				t.Errorf("completed gauge = %d, want %d", snap.Value, keep)
			}
		}
	}
}

func TestStreamForget(t *testing.T) {
	s := NewStream()
	feedCorpus(s, miniAppCorpus(1))
	feedCorpus(s, miniAppCorpus(2))
	id := mustAppID(t, "application_1499000000000_0001")
	if s.App(id) == nil {
		t.Fatal("app 1 missing before Forget")
	}
	before := s.EventCount()
	s.Forget(id)
	if s.App(id) != nil {
		t.Fatal("app survived Forget")
	}
	if s.EventCount() >= before {
		t.Fatalf("event count %d not reduced from %d", s.EventCount(), before)
	}
	for cid := range s.firstLogSeen {
		if cid.App == id {
			t.Fatalf("firstLogSeen leak: %v", cid)
		}
	}
	// Forgetting an unknown app is a no-op.
	s.Forget(mustAppID(t, "application_1499000000000_0099"))
	if len(s.Apps()) != 1 {
		t.Fatal("unrelated app lost")
	}
}

// TestStreamMetricsCounts checks the stream's line/event counters against
// a corpus with known contents.
func TestStreamMetricsCounts(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewStream()
	s.Instrument(reg)
	feedCorpus(s, buildSparkCorpus())
	s.Feed("hadoop/yarn-resourcemanager.log", "java.lang.NullPointerException")

	vals := map[string]int64{}
	for _, snap := range reg.Snapshot() {
		if snap.Type == metrics.TypeCounter && len(snap.Labels) == 0 {
			vals[snap.Name] = snap.Value
		}
	}
	if vals["core_stream_lines_total"] != vals["core_stream_lines_matched_total"]+vals["core_stream_lines_dropped_total"] {
		t.Fatalf("lines %d != matched %d + dropped %d", vals["core_stream_lines_total"],
			vals["core_stream_lines_matched_total"], vals["core_stream_lines_dropped_total"])
	}
	if vals["core_stream_lines_dropped_total"] == 0 {
		t.Fatal("junk line not counted as dropped")
	}
	if vals["core_stream_events_total"] != int64(s.EventCount()) {
		t.Fatalf("events counter %d != EventCount %d", vals["core_stream_events_total"], s.EventCount())
	}
	if vals["core_parser_lines_total"] == 0 {
		t.Fatal("shared parser counters not wired into per-line parsers")
	}
}

// chromeFile mirrors the trace-event JSON for round-trip validation.
type chromeFile struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   int64             `json:"ts"`
		Dur  *int64            `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
}

// TestChromeTraceRoundTrip validates the mined trace export: parseable
// JSON, non-negative durations, and spans on one track either disjoint or
// strictly nested (never partially overlapping).
func TestChromeTraceRoundTrip(t *testing.T) {
	rep := analyze(t, buildSparkCorpus())
	raw, err := rep.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeFile
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	type span struct {
		name       string
		start, end int64
	}
	tracks := map[[2]int][]span{}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Args["name"] == "" {
				t.Fatalf("metadata event without a name: %+v", e)
			}
		case "X":
			if e.Dur == nil || *e.Dur < 0 {
				t.Fatalf("span %q has no/negative duration", e.Name)
			}
			names[e.Name] = true
			k := [2]int{e.PID, e.TID}
			tracks[k] = append(tracks[k], span{e.Name, e.TS, e.TS + *e.Dur})
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	for _, want := range []string{"am", "driver", "allocation", "acquisition", "localization", "launching", "executor"} {
		if !names[want] {
			t.Errorf("trace missing span %q", want)
		}
	}
	for k, spans := range tracks {
		for i := 0; i < len(spans); i++ {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				disjoint := a.end <= b.start || b.end <= a.start
				nested := (a.start <= b.start && b.end <= a.end) || (b.start <= a.start && a.end <= b.end)
				if !disjoint && !nested {
					t.Errorf("track %v: spans %q and %q partially overlap", k, a.name, b.name)
				}
			}
		}
	}
}

// TestStreamTraceMatchesOffline: the stream's report must render the
// byte-identical trace document the offline checker produces.
func TestStreamTraceMatchesOffline(t *testing.T) {
	cs := buildSparkCorpus()
	offline, err := analyze(t, cs).ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := streamFeedCorpus(t, cs).Report().ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(offline, streamed) {
		t.Fatal("stream trace differs from offline trace")
	}
}

func TestChromeTraceApp(t *testing.T) {
	rep := analyze(t, buildSparkCorpus())
	if _, err := rep.ChromeTraceApp(1); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.ChromeTraceApp(42); err == nil {
		t.Fatal("unknown sequence did not error")
	}
}
