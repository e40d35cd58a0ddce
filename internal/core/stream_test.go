package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/log4j"
)

// streamFeedCorpus pumps the synthetic corpus line by line, in global
// timestamp order (as a live collector would see it).
func streamFeedCorpus(t *testing.T, cs corpus) *Stream {
	t.Helper()
	s := NewStream()
	streamFeedInto(t, s, cs)
	return s
}

// streamFeedInto feeds the corpus into an existing stream (so tests can
// register hooks before the first line arrives).
func streamFeedInto(t *testing.T, s *Stream, cs corpus) {
	t.Helper()
	type stamped struct {
		src  string
		line string
		ms   int64
	}
	var all []stamped
	for src, lines := range cs {
		for _, l := range lines {
			parsed, err := log4j.ParseLine(l)
			if err != nil {
				t.Fatalf("corpus line unparseable: %v", err)
			}
			all = append(all, stamped{src, l, parsed.TimeMS})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].ms < all[j].ms })
	for _, e := range all {
		s.Feed(e.src, e.line)
	}
}

func TestStreamMatchesOfflineAnalysis(t *testing.T) {
	cs := buildSparkCorpus()
	offline := analyze(t, cs)
	s := streamFeedCorpus(t, cs)

	if len(s.traces()) != len(offline.Apps) {
		t.Fatalf("stream apps=%d offline=%d", len(s.traces()), len(offline.Apps))
	}
	so, od := s.traces()[0].Decomp, offline.Apps[0].Decomp
	pairs := [][2]int64{
		{so.Total, od.Total}, {so.AM, od.AM}, {so.Driver, od.Driver},
		{so.Executor, od.Executor}, {so.In, od.In}, {so.Out, od.Out},
		{so.Alloc, od.Alloc}, {so.JobRuntime, od.JobRuntime},
	}
	for i, p := range pairs {
		if p[0] != p[1] {
			t.Errorf("component %d: stream %d != offline %d", i, p[0], p[1])
		}
	}
}

func TestStreamIncrementalCompleteness(t *testing.T) {
	cs := buildSparkCorpus()
	s := NewStream()
	app := mustAppID(t, "application_1499000000000_0001")

	// Feed only the RM log: decomposition incomplete.
	for _, l := range cs["hadoop/yarn-resourcemanager.log"] {
		s.Feed("hadoop/yarn-resourcemanager.log", l)
	}
	if s.apps[app].completed {
		t.Fatal("complete without any container logs")
	}
	// Add the remaining files: now complete.
	for src, lines := range cs {
		if src == "hadoop/yarn-resourcemanager.log" {
			continue
		}
		for _, l := range lines {
			s.Feed(src, l)
		}
	}
	if !s.apps[app].completed {
		t.Fatalf("still incomplete after all logs: %+v", s.trace(app).Decomp)
	}
}

func TestStreamFirstLogIsFirstLineOnly(t *testing.T) {
	s := NewStream()
	src := "userlogs/application_1499000000000_0001/container_1499000000000_0001_01_000002/stderr"
	s.Feed(src, line(7000, "org.apache.spark.executor.CoarseGrainedExecutorBackend", "Started daemon"))
	s.Feed(src, line(7500, "org.apache.spark.executor.CoarseGrainedExecutorBackend", "some later line"))
	app := mustAppID(t, "application_1499000000000_0001")
	c := s.trace(app).Containers[0]
	if c.FirstLog != 1499000000000+7000 {
		t.Fatalf("first log %d moved by a later line", c.FirstLog)
	}
}

func TestStreamIgnoresJunk(t *testing.T) {
	s := NewStream()
	if s.Feed("hadoop/rm.log", "java.lang.NullPointerException") {
		t.Fatal("junk counted as an event")
	}
	if s.EventCount() != 0 {
		t.Fatal("junk absorbed")
	}
}

func TestStreamReportAggregates(t *testing.T) {
	s := streamFeedCorpus(t, buildSparkCorpus())
	rep := s.Report()
	if rep.Total.Len() != 1 || rep.Total.Median() != 11900 {
		t.Fatalf("stream report total: n=%d p50=%v", rep.Total.Len(), rep.Total.Median())
	}
	if got := rep.AllocationThroughput(); got <= 0 {
		t.Fatalf("throughput %v", got)
	}
}

func mustAppID(t *testing.T, s string) ids.AppID {
	t.Helper()
	parsed, err := ids.ParseAppID(s)
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}

func TestStreamOnCompleteFiresOnce(t *testing.T) {
	s := NewStream()
	var got []*AppTrace
	s.OnComplete(func(a *AppTrace) { got = append(got, a) })
	streamFeedInto(t, s, buildSparkCorpus())
	if len(got) != 1 {
		t.Fatalf("hook fired %d times, want 1", len(got))
	}
	if d := got[0].Decomp; d == nil || !d.Complete {
		t.Fatal("hook delivered an incomplete trace")
	}
	// Replaying lines rebuilds the app but must not re-deliver it.
	streamFeedInto(t, s, buildSparkCorpus())
	if len(got) != 1 {
		t.Fatalf("hook fired %d times after replay, want 1", len(got))
	}
}

func TestStreamOnCompleteAfterForget(t *testing.T) {
	// Forget drops the delivery record: if the same app is fed again
	// (e.g. a server restarted its scan), it is delivered again — the
	// aggregation layer owns cross-restart dedup, not the stream.
	s := NewStream()
	fired := 0
	s.OnComplete(func(*AppTrace) { fired++ })
	streamFeedInto(t, s, buildSparkCorpus())
	s.forget(mustAppID(t, "application_1499000000000_0001"))
	streamFeedInto(t, s, buildSparkCorpus())
	if fired != 2 {
		t.Fatalf("hook fired %d times across forget, want 2", fired)
	}
}

// traceSnapshot renders everything a published trace exposes — the JSON
// projection, the decomposition, every container and every event — so
// any later write to the trace changes the string.
func traceSnapshot(a *AppTrace) (string, error) {
	js, err := (&Report{Apps: []*AppTrace{a}}).JSON()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(js)
	fmt.Fprintf(&b, "\n%+v\n%v\n", *a.Decomp, a.Events)
	for _, c := range a.Containers {
		fmt.Fprintf(&b, "%+v\n", *c)
	}
	return b.String(), nil
}

func mustSnapshot(t *testing.T, a *AppTrace) string {
	t.Helper()
	s, err := traceSnapshot(a)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cloneTrace deep-copies what a snapshot holds: its header, events,
// containers and decomposition.
func cloneTrace(a *AppTrace) *AppTrace {
	c := *a
	c.Events = slices.Clone(a.Events)
	c.Containers = slices.Clone(a.Containers)
	for i, ct := range c.Containers {
		cc := *ct
		c.Containers[i] = &cc
	}
	if a.Decomp != nil {
		d := *a.Decomp
		d.Acquisitions, d.Localizations = slices.Clone(d.Acquisitions), slices.Clone(d.Localizations)
		d.Launchings, d.Queueings = slices.Clone(d.Launchings), slices.Clone(d.Queueings)
		d.Anomalies = slices.Clone(d.Anomalies)
		c.Decomp = &d
	}
	return &c
}

// TestStreamPublishedTracesImmutable: a trace handed out by trace or by the
// completion hook is a snapshot. The corpus arrives file by file, out of
// time order, so the first snapshot sorts the events in place. More
// events of its app then arrive — in order, at equal timestamps, out of
// order, and a container's two first lines, the second of which
// reclassifies it — and the trace is read after each. Every snapshot
// must deep-equal the copy taken when it was read: later appends land
// past a snapshot's events in the array it shares, and a sort of that
// array must write a fresh one.
func TestStreamPublishedTracesImmutable(t *testing.T) {
	s := NewStream()
	want := make(map[*AppTrace]*AppTrace)
	var hooked *AppTrace
	s.OnComplete(func(a *AppTrace) { hooked, want[a] = a, cloneTrace(a) })
	cs := buildSparkCorpus()
	for _, f := range sortedKeys(cs) {
		for _, l := range cs[f] {
			s.Feed(f, l)
		}
	}
	if hooked == nil {
		t.Fatal("completion hook did not fire")
	}
	id := mustAppID(t, "application_1499000000000_0001")
	captured := s.trace(id)
	// A caller's append to Events must reallocate, never write into the
	// array the stream keeps appending to.
	if len(captured.Events) != cap(captured.Events) {
		t.Fatalf("published Events has spare capacity: len %d cap %d", len(captured.Events), cap(captured.Events))
	}
	want[captured] = cloneTrace(captured)

	rm := "hadoop/yarn-resourcemanager.log"
	nm := "hadoop/yarn-nodemanager-node01.log"
	e1 := "container_1499000000000_0001_01_000002"
	e3 := "container_1499000000000_0001_01_000004"
	e5 := "container_1499000000000_0001_01_000006"
	e5Log := "userlogs/application_1499000000000_0001/" + e5 + "/stderr"
	for _, f := range [][2]string{
		// In order: a new container, then a touched one at an equal stamp.
		{rm, line(31000, "x.RMContainerImpl", e3+" Container Transitioned from NEW to ALLOCATED")},
		{nm, line(31000, "y.ContainerImpl", "Container "+e3+" transitioned from NEW to LOCALIZING")},
		{rm, line(31000, "x.RMContainerImpl", e1+" Container Transitioned from NEW to ALLOCATED")},
		// Out of order: an earlier submission and an earlier container event.
		{rm, line(50, "x.RMAppImpl", "application_1499000000000_0001 State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED")},
		{nm, line(5900, "y.ContainerImpl", "Container "+e3+" transitioned from LOCALIZING to SCHEDULED")},
		{rm, line(200, "x.RMContainerImpl", e1+" Container Transitioned from NEW to ALLOCATED")},
		// A container whose first line names no instance, out of order,
		// and whose second makes it a Spark driver: the kept FIRST_LOG is
		// rewritten.
		{e5Log, line(20000, "org.apache.spark.SparkContext", "Running Spark version 2.2.0")},
		{e5Log, line(31500, "org.apache.spark.deploy.yarn.ApplicationMaster", "Registered with ResourceManager as x")},
		{rm, line(150, "x.RMContainerImpl", e3+" Container Transitioned from ALLOCATED to ACQUIRED")},
	} {
		if !s.Feed(f[0], f[1]) {
			t.Fatalf("line produced no event: %s", f[1])
		}
		for a, c := range want {
			if !reflect.DeepEqual(a, c) {
				t.Fatalf("published trace changed after feeding %q:\nbefore %s\nafter  %s", f[1], mustSnapshot(t, c), mustSnapshot(t, a))
			}
		}
		a := s.trace(id)
		want[a] = cloneTrace(a)
	}
	if len(want) < 10 {
		t.Fatalf("%d distinct snapshots, want one per line and two before", len(want))
	}

	now := s.trace(id)
	if now == captured || now.Submitted != base+50 || now.Container(mustContainerID(t, e3)) == nil {
		t.Fatalf("stream did not publish the new events: submitted=%d containers=%d", now.Submitted, len(now.Containers))
	}
	if c := now.Container(mustContainerID(t, e5)); c == nil || c.Instance != InstSparkDriver {
		t.Fatalf("container %s was not reclassified: %+v", e5, c)
	}
	// The incremental trace equals a batch correlation of its own events.
	batch := Correlate(now.Events)
	if len(batch) != 1 {
		t.Fatalf("batch correlation gave %d apps", len(batch))
	}
	Decompose(batch[0])
	if got, want := mustSnapshot(t, now), mustSnapshot(t, batch[0]); got != want {
		t.Fatalf("incremental trace differs from batch:\n%s\nvs\n%s", got, want)
	}
}

func mustContainerID(t *testing.T, s string) ids.ContainerID {
	t.Helper()
	cid, err := ids.ParseContainerID(s)
	if err != nil {
		t.Fatal(err)
	}
	return cid
}

// contendedEvent draws one event of app from a few timestamps, with
// contended first-wins fields: submission name, container node and
// instance, and AM retries sharing a container number.
func contendedEvent(rng *rand.Rand, app ids.AppID) Event {
	kinds := []Kind{AppSubmitted0, AppSubmitted, AppAccepted, AttemptRegistered, AppFinished,
		ContAllocated, ContAcquired, ContLocalizing, ContScheduled, ContRunning,
		DriverFirstLog, ExecutorFirstLog, FirstTask, ContLost, DriverRegister, StartAllo}
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	e := Event{Kind: kinds[rng.Intn(len(kinds))], Container: ids.ContainerID{App: app}, TimeMS: base + int64(rng.Intn(6))}
	switch e.Kind {
	case AppSubmitted0:
		e.Submission = &Submission{Name: pick("", "q1", "q2"), AppType: pick("SPARK", "MR"), Queue: pick("default", "prod")}
	case AppSubmitted, AppAccepted, AttemptRegistered, AppFinished:
	default:
		e.Container = ids.ContainerID{App: app, Attempt: 1 + rng.Intn(2), Num: 1 + rng.Intn(3)}
		e.Node = pick("", "node01", "node02")
		e.Instance = InstanceCode(rng.Intn(3)) // unknown, spm or spe
	}
	return e
}

// TestStreamOutOfOrderMatchesBatch is the property behind the live absorb
// model: whatever order one application's events arrive in, the stream's
// trace equals a batch correlation of that arrival order. The generator
// packs events into few timestamps and contends for every first-wins
// field — submission name, container node and instance, and AM retries
// sharing a container number — so both the commuting fast path and the
// replay are exercised.
func TestStreamOutOfOrderMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	app := ids.AppID{ClusterTS: 1499000000000, Seq: 1}
	for iter := 0; iter < 3000; iter++ {
		n := 1 + rng.Intn(25)
		arrival := make([]Event, n)
		for i := range arrival {
			arrival[i] = contendedEvent(rng, app)
		}
		s := NewStream()
		for _, e := range arrival {
			s.absorb([]Event{e})
		}
		batch := Correlate(arrival)
		Decompose(batch[0])
		if got, want := mustSnapshot(t, s.trace(app)), mustSnapshot(t, batch[0]); got != want {
			t.Fatalf("iteration %d: arrival order %v\nstream:\n%s\nbatch:\n%s", iter, arrival, got, want)
		}
	}
}

// TestStreamSnapshotsOnRead: traces are snapshotted when read, and the
// working trace then changes in place until the next read. Random
// arrival orders over two apps, absorbed one to three events at a time,
// are interleaved with trace and traces reads at random points. Every
// snapshot captured must be unchanged at the end, and must equal a
// batch correlation and decomposition of its own Events.
func TestStreamSnapshotsOnRead(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	apps := []ids.AppID{{ClusterTS: 1499000000000, Seq: 1}, {ClusterTS: 1499000000000, Seq: 2}}
	for iter := 0; iter < 1000; iter++ {
		s := NewStream()
		snaps := make(map[*AppTrace]string)
		capture := func(a *AppTrace) {
			if _, ok := snaps[a]; !ok {
				snaps[a] = mustSnapshot(t, a)
			}
		}
		for left := 1 + rng.Intn(40); left > 0; {
			batch := make([]Event, 1+rng.Intn(min(3, left)))
			for i := range batch {
				batch[i] = contendedEvent(rng, apps[rng.Intn(len(apps))])
			}
			left -= len(batch)
			s.absorb(batch)
			switch rng.Intn(4) {
			case 0:
				capture(s.trace(batch[0].App()))
			case 1:
				for _, a := range s.traces() {
					capture(a)
				}
			}
		}
		for _, a := range s.traces() {
			capture(a)
		}
		for a, want := range snaps {
			if got := mustSnapshot(t, a); got != want {
				t.Fatalf("iteration %d: snapshot changed after later absorbs:\nbefore %s\nafter  %s", iter, want, got)
			}
			batch := Correlate(a.Events)
			Decompose(batch[0])
			if got := mustSnapshot(t, batch[0]); got != want {
				t.Fatalf("iteration %d: snapshot differs from a batch correlation of its events:\nsnapshot %s\nbatch    %s", iter, want, got)
			}
		}
	}
}

// TestStreamReclassifiesFirstLog: live, as offline, a container's
// instance comes from all of its lines. The AM container's first line
// names no instance; its second, the ApplicationMaster's registration,
// makes it the Spark driver. The kept FIRST_LOG is rewritten to that
// kind and instance, the trace rebuilt, and a snapshot taken between
// the two lines stays as it was.
func TestStreamReclassifiesFirstLog(t *testing.T) {
	src := "userlogs/application_1499000000000_0001/container_1499000000000_0001_01_000001/stderr"
	lines := []string{
		line(1500, "org.apache.spark.SparkContext", "Running Spark version 2.2.0"),
		line(5100, "org.apache.spark.deploy.yarn.ApplicationMaster", "Registered with ResourceManager as x"),
	}
	offline, err := analyze(t, corpus{src: lines}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(offline, `"instance": "spm"`) {
		t.Fatalf("offline report does not classify the AM container:\n%s", offline)
	}

	s := NewStream()
	s.Feed(src, lines[0])
	id := mustAppID(t, "application_1499000000000_0001")
	before := s.trace(id)
	snap := mustSnapshot(t, before)
	s.Feed(src, lines[1])
	if got := mustSnapshot(t, before); got != snap {
		t.Fatalf("snapshot changed by the reclassifying line:\nbefore %s\nafter  %s", snap, got)
	}
	live, err := s.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if live != offline {
		t.Fatalf("live report differs from offline:\nlive:\n%s\noffline:\n%s", live, offline)
	}
	a := s.trace(id)
	if fl := a.Events[0]; fl.Kind != DriverFirstLog || fl.Instance.Type() != InstSparkDriver {
		t.Fatalf("kept FIRST_LOG is %v/%q, want %v/%q", fl.Kind, fl.Instance.Type(), DriverFirstLog, InstSparkDriver)
	}
	if fl := before.Events[0]; fl.Kind != TaskFirstLog || fl.Instance != codeUnknown {
		t.Fatalf("snapshot's FIRST_LOG became %v/%q", fl.Kind, fl.Instance.Type())
	}
}

// TestCompletePredicateMatchesDecompose: the allocation-free Complete
// predicate a stream evaluates after every absorb gives, for every app
// after every line, the verdict of decomposing a copy of the app's
// trace: Decompose's Complete, and the definition it stands for —
// Total, AM, Driver and Executor present and no anomalies. The inputs
// are the golden trees fed file by file, as a backfill feeds them, and
// the FuzzStreamFeed seeds fed as that fuzzer feeds them.
func TestCompletePredicateMatchesDecompose(t *testing.T) {
	inputs := map[string][]shardLine{}
	for _, tree := range []string{"pristine", "faulted"} {
		inputs["golden/"+tree] = goldenTreeLines(t, filepath.Join("testdata", "golden", tree, "input"))
	}
	for i, data := range seedInputs(t) {
		var lines []shardLine
		for j, l := range strings.Split(string(data), "\n") {
			lines = append(lines, shardLine{fuzzSources[j%len(fuzzSources)], l})
		}
		inputs[fmt.Sprintf("seed#%d", i)] = lines
	}
	completed := 0
	for name, lines := range inputs {
		st := NewStream()
		for n, ln := range lines {
			st.Feed(ln.source, ln.raw)
			for _, b := range st.apps {
				c := *b.a
				d := Decompose(&c)
				def := d.Total >= 0 && d.AM >= 0 && d.Driver >= 0 && d.Executor >= 0 && len(d.Anomalies) == 0
				if b.completed != d.Complete || d.Complete != def {
					t.Fatalf("%s line %d: app %v: predicate %v, Decompose %v, definition %v", name, n, b.a.ID, b.completed, d.Complete, def)
				}
			}
		}
		completed += st.nCompleted
	}
	if completed == 0 {
		t.Fatal("no app completed: the inputs never exercise the true verdict")
	}
}
