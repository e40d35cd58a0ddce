package core

import (
	"bufio"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/ids"
	"repro/internal/log4j"
	"repro/internal/metrics"
)

// shardLine is one line of a test feed and the source it is fed from.
type shardLine struct{ source, raw string }

// poisoned makes ss overwrite each arena buffer with 0xFF once its
// lines are retired, as race builds do, so a kept view of a fed line
// reads garbage. Call it before feeding.
func poisoned(ss *ShardedStream) *ShardedStream {
	ss.arena.poison = true
	return ss
}

// corpusLines flattens a corpus into one deterministic feed sequence:
// global timestamp order with file order breaking ties, as a live
// collector tailing all files at once would observe it.
func corpusLines(t *testing.T, cs corpus) []shardLine {
	t.Helper()
	type stamped struct {
		shardLine
		ms int64
	}
	var all []stamped
	for _, f := range sortedKeys(cs) {
		for _, l := range cs[f] {
			parsed, err := log4j.ParseLine(l)
			ms := int64(0)
			if err == nil {
				ms = parsed.TimeMS
			}
			all = append(all, stamped{shardLine{f, l}, ms})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].ms < all[j].ms })
	out := make([]shardLine, len(all))
	for i, s := range all {
		out[i] = s.shardLine
	}
	return out
}

// feedSerial pumps a line sequence through a fresh serial Stream and
// returns it with the traces its completion hook delivered — the
// reference the sharded stream is diffed against.
func feedSerial(lines []shardLine) (*Stream, []*AppTrace) {
	st := NewStream()
	var hooked []*AppTrace
	st.OnComplete(func(a *AppTrace) { hooked = append(hooked, a) })
	for _, ln := range lines {
		st.Feed(ln.source, ln.raw)
	}
	return st, hooked
}

// sketchInAppOrder folds hook-delivered traces into a breakdown in
// application-ID order, so the fold does not depend on which shard's
// hook fired first.
func sketchInAppOrder(hooked []*AppTrace) *ClusterBreakdown {
	sorted := slices.Clone(hooked)
	sortTracesBySeq(sorted)
	bd := NewClusterBreakdown()
	for _, a := range sorted {
		bd.Observe(a)
	}
	return bd
}

// diffShardedSerial feeds the same sequence into a ShardedStream with w
// workers and asserts every observable matches the serial stream: the
// rendered report (byte for byte), event counts, clock, app sets, the
// applications the completion hook delivered, and the breakdown sketch
// folded from them.
func diffShardedSerial(t *testing.T, lines []shardLine, w int) {
	t.Helper()
	st, refHooked := feedSerial(lines)
	refRep, err := st.Report().JSON()
	if err != nil {
		t.Fatalf("serial report: %v", err)
	}

	ss := poisoned(NewShardedStream(w))
	defer ss.Close()
	var hooked []*AppTrace
	ss.OnComplete(func(a *AppTrace) { hooked = append(hooked, a) })
	for _, ln := range lines {
		if !ss.Feed(ln.source, ln.raw) {
			t.Fatalf("workers=%d: Feed rejected before Close", w)
		}
	}
	ss.Quiesce()

	if got, want := ss.EventCount(), st.EventCount(); got != want {
		t.Errorf("workers=%d: EventCount=%d serial=%d", w, got, want)
	}
	if got, want := ss.LastEventMS(), st.lastMS; got != want {
		t.Errorf("workers=%d: LastEventMS=%d serial=%d", w, got, want)
	}
	gotRep, err := ss.Report().JSON()
	if err != nil {
		t.Fatalf("workers=%d: sharded report: %v", w, err)
	}
	if gotRep != refRep {
		t.Errorf("workers=%d: report JSON diverges from serial stream", w)
	}

	sApps, pApps := st.traces(), ss.Apps()
	if len(sApps) != len(pApps) {
		t.Fatalf("workers=%d: apps=%d serial=%d", w, len(pApps), len(sApps))
	}
	for i := range sApps {
		id := sApps[i].ID
		if pApps[i].ID != id {
			t.Fatalf("workers=%d: app %d = %v, serial %v", w, i, pApps[i].ID, id)
		}
		if got, want := ss.Complete(id), st.apps[id].completed; got != want {
			t.Errorf("workers=%d: Complete(%v)=%v serial=%v", w, id, got, want)
		}
		if ss.App(id) == nil {
			t.Errorf("workers=%d: App(%v) = nil", w, id)
		}
	}

	if got, want := appIDs(hooked), appIDs(refHooked); !reflect.DeepEqual(got, want) {
		t.Errorf("workers=%d: hook delivered apps %v, serial hook %v", w, got, want)
	}
	bd, refBD := sketchInAppOrder(hooked), sketchInAppOrder(refHooked)
	if got, want := bd.Rows(), refBD.Rows(); !reflect.DeepEqual(got, want) {
		t.Errorf("workers=%d: hook sketch rows diverge from serial completion hook", w)
	}
	if got, want := bd.ComponentRows(), refBD.ComponentRows(); !reflect.DeepEqual(got, want) {
		t.Errorf("workers=%d: hook sketch component rows diverge", w)
	}
}

func TestShardedStreamMatchesSerial(t *testing.T) {
	lines := corpusLines(t, buildMultiAppCorpus(7))
	for _, w := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			diffShardedSerial(t, lines, w)
		})
	}
}

// goldenTreeLines reads a checked-in golden log tree into a feed
// sequence (file walk order, then line order — the shape a tailing
// collector replaying a finished run would produce).
func goldenTreeLines(t *testing.T, dir string) []shardLine {
	t.Helper()
	var out []shardLine
	for _, f := range goldenTreeFiles(t, dir) {
		sc := bufio.NewScanner(strings.NewReader(f.raw))
		sc.Buffer(make([]byte, 0, 256*1024), 1024*1024)
		for sc.Scan() {
			out = append(out, shardLine{f.source, sc.Text()})
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("reading %s: %v", f.source, err)
		}
	}
	return out
}

// TestShardedStreamGoldenTrees runs the serial-vs-sharded differential
// over the real simulator-generated golden trees, including the faulted
// one (lost containers, partial decompositions).
func TestShardedStreamGoldenTrees(t *testing.T) {
	for _, c := range []string{"pristine", "faulted"} {
		lines := goldenTreeLines(t, filepath.Join("testdata", "golden", c, "input"))
		if len(lines) == 0 {
			t.Fatalf("%s: empty golden tree", c)
		}
		for _, w := range []int{2, 5} {
			t.Run(fmt.Sprintf("%s/workers=%d", c, w), func(t *testing.T) {
				diffShardedSerial(t, lines, w)
			})
		}
	}
}

// forwardContainerLine rewrites an RM "Container Transitioned" line to
// name, ahead of its container ID, the lowest-sequence application of
// the container's cluster that owner puts on another shard, as
// FuzzShardedFeed's forwarding seed does: the line then routes to that
// shard, and the event it yields is forwarded to the container's. Other
// lines come back unchanged. owner must map onto two or more shards.
func forwardContainerLine(raw string, owner func(ids.AppID) int) string {
	i := strings.Index(raw, ": container_")
	if i < 0 || !strings.Contains(raw, " Container Transitioned ") {
		return raw
	}
	cid, err := ids.ParseContainerID(strings.Fields(raw[i+2:])[0])
	if err != nil {
		return raw
	}
	other := ids.AppID{ClusterTS: cid.App.ClusterTS, Seq: 1}
	for owner(other) == owner(cid.App) {
		other.Seq++
	}
	return raw[:i+2] + other.String() + " " + raw[i+2:]
}

// TestShardedForwardingMatchesSerial drives whole applications through
// cross-shard forwarding: every RM container transition of the golden
// trees names another shard's application first, so it is parsed on
// that shard and its event absorbed into the container's shard by the
// worker that parsed it. The sharded stream must absorb and report what
// a serial stream fed the same lines does (forwarded kinds commute),
// fire the hook at most once per application and once for each that
// ends complete, and leave every queue empty.
func TestShardedForwardingMatchesSerial(t *testing.T) {
	for _, c := range []string{"pristine", "faulted"} {
		golden := goldenTreeLines(t, filepath.Join("testdata", "golden", c, "input"))
		goldenSerial, _ := feedSerial(golden)
		goldenRep, err := goldenSerial.Report().JSON()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", c, w), func(t *testing.T) {
				reg := metrics.NewRegistry()
				ss := poisoned(NewShardedStream(w))
				defer ss.Close()
				ss.Instrument(reg)
				fired := map[ids.AppID]int{}
				// The hook is serialized across shards, so a plain map is safe.
				ss.OnComplete(func(a *AppTrace) { fired[a.ID]++ })
				lines := slices.Clone(golden)
				for i := range lines {
					lines[i].raw = forwardContainerLine(lines[i].raw, ss.shardOf)
				}
				for _, ln := range lines {
					ss.Feed(ln.source, ln.raw)
				}
				ss.Quiesce()

				st, refHooked := feedSerial(lines)
				refRep, err := st.Report().JSON()
				if err != nil {
					t.Fatal(err)
				}
				if refRep != goldenRep {
					t.Fatal("the rewritten lines mine differently from the golden tree")
				}
				if n := reg.Counter("core_shard_forwarded_events_total").Value(); n == 0 {
					t.Fatal("no event was forwarded")
				}
				if got, want := ss.EventCount(), st.EventCount(); got != want {
					t.Errorf("EventCount=%d serial=%d", got, want)
				}
				gotRep, err := ss.Report().JSON()
				if err != nil {
					t.Fatal(err)
				}
				if gotRep != refRep {
					t.Error("report JSON diverges from serial stream")
				}
				// Which apps the hook delivers is not compared with the
				// serial stream: a forwarded event reaches its shard
				// out of line order, so an app may look complete before
				// a forwarded transition (a lost container) undoes it.
				for _, a := range ss.Apps() {
					n := fired[a.ID]
					if n > 1 || (n == 0 && ss.Complete(a.ID)) {
						t.Errorf("%v (complete: %v): hook fired %d times", a.ID, ss.Complete(a.ID), n)
					}
				}
				if len(refHooked) == 0 || len(fired) == 0 {
					t.Fatalf("hook fired for %d apps, serial for %d", len(fired), len(refHooked))
				}
				for i := range w {
					if d := reg.Gauge("core_shard_queue_depth", "shard", strconv.Itoa(i)).Value(); d != 0 {
						t.Errorf("shard %d queue depth %d after Quiesce", i, d)
					}
				}
			})
		}
	}
}

// forwardingSeed is a FuzzShardedFeed input that forwards an application
// all the way to completion: the pristine golden tree's application 0001
// (its RM and NM lines, its AM's stderr and one executor's), laid out
// so each line reaches its own source in fuzzSources, with its RM
// container transitions rewritten to route to the other shard of the
// two the returned worker value selects.
func forwardingSeed(tb testing.TB) ([]byte, uint8) {
	const workers = 2
	ss := NewShardedStream(workers)
	defer ss.Close()
	dir := filepath.Join("testdata", "golden", "pristine", "input")
	bySource := make([][]string, len(fuzzSources))
	for _, f := range goldenTreeFiles(tb, dir) {
		k := slices.Index(fuzzSources, f.source)
		switch {
		case strings.Contains(f.source, "resourcemanager"):
			k = 0
		case strings.Contains(f.source, "nodemanager"):
			k = 1
		}
		if k < 0 {
			continue
		}
		for _, l := range strings.Split(strings.TrimSuffix(f.raw, "\n"), "\n") {
			if strings.Contains(l, "1499000000000_0001") || k >= 2 {
				bySource[k] = append(bySource[k], forwardContainerLine(l, ss.shardOf))
			}
		}
	}
	rounds := 0
	for _, ls := range bySource {
		rounds = max(rounds, len(ls))
	}
	var out []string
	for r := range rounds {
		for _, ls := range bySource {
			l := ""
			if r < len(ls) {
				l = ls[r]
			}
			out = append(out, l)
		}
	}
	return []byte(strings.Join(out, "\n")), workers - 1
}

// TestForwardingSeedCompletesForwardedApp pins that forwardingSeed,
// fed as FuzzShardedFeed feeds it, forwards events, completes
// application 0001, and absorbs and reports what a serial stream does.
func TestForwardingSeedCompletesForwardedApp(t *testing.T) {
	data, workers := forwardingSeed(t)
	var lines []shardLine
	for i, l := range strings.Split(string(data), "\n") {
		lines = append(lines, shardLine{fuzzSources[i%len(fuzzSources)], l})
	}
	reg := metrics.NewRegistry()
	ss := NewShardedStream(int(workers%8) + 1)
	defer ss.Close()
	ss.Instrument(reg)
	for _, ln := range lines {
		ss.Feed(ln.source, ln.raw)
	}
	ss.Quiesce()
	if n := reg.Counter("core_shard_forwarded_events_total").Value(); n == 0 {
		t.Fatal("the seed forwards no event")
	}
	if id := mustAppID(t, "application_1499000000000_0001"); !ss.Complete(id) {
		t.Fatalf("%v is not complete", id)
	}
	st, _ := feedSerial(lines)
	if got, want := ss.EventCount(), st.EventCount(); got != want {
		t.Errorf("EventCount=%d serial=%d", got, want)
	}
	if ss.Report().Format() != st.Report().Format() {
		t.Error("report diverges from serial stream")
	}
}

// TestShardedOnCompleteFiresOnce pins the exactly-once completion
// contract across shards: every application's hook fires exactly once
// even though absorption is spread over four workers.
func TestShardedOnCompleteFiresOnce(t *testing.T) {
	lines := corpusLines(t, buildMultiAppCorpus(9))
	ss := NewShardedStream(4)
	defer ss.Close()
	fired := map[ids.AppID]int{}
	// The hook is serialized across shards, so a plain map is safe.
	ss.OnComplete(func(a *AppTrace) { fired[a.ID]++ })
	for _, ln := range lines {
		ss.Feed(ln.source, ln.raw)
	}
	ss.Quiesce()
	if len(fired) != 9 {
		t.Fatalf("completions for %d apps, want 9", len(fired))
	}
	for id, n := range fired {
		if n != 1 {
			t.Errorf("%v: hook fired %d times", id, n)
		}
	}
}

// TestShardedEvictionMatchesSerial pins that the cross-shard eviction
// policies pick the same victims, in the same order, as a one-worker
// stream's.
func TestShardedEvictionMatchesSerial(t *testing.T) {
	lines := corpusLines(t, buildMultiAppCorpus(8))
	st, ss := NewShardedStream(1), NewShardedStream(3)
	defer st.Close()
	defer ss.Close()
	for _, ln := range lines {
		st.Feed(ln.source, ln.raw)
		ss.Feed(ln.source, ln.raw)
	}
	st.Quiesce()
	ss.Quiesce()

	if got, want := ss.EvictCompleted(5), st.EvictCompleted(5); got != want {
		t.Fatalf("EvictCompleted: sharded evicted %d, serial %d", got, want)
	}
	if got, want := appIDs(ss.Apps()), appIDs(st.Apps()); !reflect.DeepEqual(got, want) {
		t.Fatalf("after EvictCompleted: sharded apps %v, serial %v", got, want)
	}
	if got, want := ss.EvictOldest(2), st.EvictOldest(2); got != want {
		t.Fatalf("EvictOldest: sharded evicted %d, serial %d", got, want)
	}
	if got, want := appIDs(ss.Apps()), appIDs(st.Apps()); !reflect.DeepEqual(got, want) {
		t.Fatalf("after EvictOldest: sharded apps %v, serial %v", got, want)
	}

	// Forget the remaining apps one by one; both must drain to empty.
	for _, id := range appIDs(st.Apps()) {
		ss.Forget(id)
		st.Forget(id)
	}
	if n := len(ss.Apps()); n != 0 {
		t.Fatalf("after Forget all: %d apps remain", n)
	}
	if n := ss.EventCount(); n != 0 {
		t.Fatalf("after Forget all: %d events remain", n)
	}
}

// appIDs lists the traces' application IDs in submission order.
func appIDs(apps []*AppTrace) []ids.AppID {
	out := make([]ids.AppID, len(apps))
	for i, a := range apps {
		out[i] = a.ID
	}
	sortAppIDsBySeq(out)
	return out
}

// TestShardedFeedAfterClose pins Close semantics: feeds are rejected,
// the read side stays usable, and Close is idempotent.
func TestShardedFeedAfterClose(t *testing.T) {
	lines := corpusLines(t, buildMultiAppCorpus(2))
	ss := NewShardedStream(2)
	for _, ln := range lines {
		ss.Feed(ln.source, ln.raw)
	}
	ss.Close()
	if ss.Feed("hadoop/yarn-resourcemanager.log", lines[0].raw) {
		t.Fatal("Feed accepted after Close")
	}
	if n := len(ss.Apps()); n != 2 {
		t.Fatalf("after Close: %d apps, want 2", n)
	}
	if _, err := ss.Report().JSON(); err != nil {
		t.Fatalf("Report after Close: %v", err)
	}
	ss.Close() // idempotent
}

// TestShardedStreamInstrumented pins the metric families the sharded
// stream registers: the serial stream's counter names (so dashboards
// work unchanged), per-shard line counters, and the forwarding counter.
func TestShardedStreamInstrumented(t *testing.T) {
	reg := metrics.NewRegistry()
	ss := NewShardedStream(2)
	defer ss.Close()
	ss.Instrument(reg)
	lines := corpusLines(t, buildMultiAppCorpus(3))
	for _, ln := range lines {
		ss.Feed(ln.source, ln.raw)
	}
	ss.Quiesce()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	dump := b.String()
	for _, want := range []string{
		"core_stream_lines_total",
		"core_stream_events_total",
		"core_stream_apps_completed",
		"core_shard_forwarded_events_total",
		"core_stream_inflight_bytes",
		"core_stream_feed_stall_ms_total",
		`core_shard_lines_total{shard="0"}`,
		`core_shard_lines_total{shard="1"}`,
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

// TestShardedStreamConcurrentHammer is the -race stress test: several
// goroutines feed disjoint slices of the corpus, half of them line by
// line and half in blocks of a source's consecutive lines, while others
// hammer the read and eviction surface. It asserts freedom from data races (via the
// race detector) and that the stream survives to a consistent final
// state once feeders finish and evictions stop.
func TestShardedStreamConcurrentHammer(t *testing.T) {
	lines := corpusLines(t, buildMultiAppCorpus(12))
	ss := NewShardedStream(4)
	defer ss.Close()
	ss.OnComplete(func(a *AppTrace) { _ = a.ID })

	const feeders = 4
	var feedWG, churnWG sync.WaitGroup
	stop := make(chan struct{})

	for f := 0; f < feeders; f++ {
		feedWG.Add(1)
		go func(f int) {
			defer feedWG.Done()
			if f%2 == 0 {
				for i := f; i < len(lines); i += feeders {
					ss.Feed(lines[i].source, lines[i].raw)
				}
				return
			}
			var block strings.Builder
			for i := f; i < len(lines); i += feeders {
				block.WriteString(lines[i].raw + "\n")
				if next := i + feeders; next >= len(lines) || lines[next].source != lines[i].source || block.Len() > 1<<10 {
					ss.FeedBlock(lines[i].source, block.String())
					block.Reset()
				}
			}
		}(f)
	}
	// Readers: every public read path, continuously.
	probe := mustAppID(t, "application_1499000000000_0003")
	victim := mustAppID(t, "application_1499000000000_0001")
	for r := 0; r < 2; r++ {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			id := probe
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = ss.EventCount()
				_ = ss.LastEventMS()
				_ = ss.Apps()
				_ = ss.Complete(id)
				_ = ss.App(id)
				_ = ss.Report()
			}
		}()
	}
	// Evicter: churns all three eviction paths against live feeds.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ss.EvictCompleted(6)
			ss.EvictOldest(10)
			if i%4 == 0 {
				ss.Forget(victim)
			}
			ss.Quiesce()
		}
	}()

	feedWG.Wait() // all lines fed (absorption may still be in flight)
	close(stop)
	churnWG.Wait()

	ss.Quiesce()
	rep := ss.Report()
	if len(rep.Apps) > 12 {
		t.Fatalf("more apps than fed: %d", len(rep.Apps))
	}
	if _, err := rep.JSON(); err != nil {
		t.Fatalf("final report: %v", err)
	}
}

// TestShardedPublishedTracesImmutable runs readers against a sharded
// stream while it absorbs lines fed file by file, as a restarted -serve
// scan feeds them, so most events arrive before an earlier one of their
// app. The feeder reads every app after each line as well: a trace's
// first snapshot sorts its events in place, and later ones share an
// array that appends keep growing. Each app also gains a container
// whose first line names no instance and whose second makes it a Spark
// driver, rewriting the kept FIRST_LOG between two reads. Every trace
// read must deep-equal the copy taken when it was read, and under -race
// no absorb may write memory a reader holds.
func TestShardedPublishedTracesImmutable(t *testing.T) {
	const apps = 12
	cs := buildMultiAppCorpus(apps)
	for i := 1; i <= apps; i++ {
		tag := fmt.Sprintf("1499000000000_%04d", i)
		f := "userlogs/application_" + tag + "/container_" + tag + "_01_000006/stderr"
		cs.add(f, line(1600, "org.apache.spark.SparkContext", "Running Spark version 2.2.0"))
		cs.add(f, line(29000, "org.apache.spark.deploy.yarn.ApplicationMaster", "Registered with ResourceManager as x"))
	}
	var lines []shardLine
	for _, f := range sortedKeys(cs) {
		for _, l := range cs[f] {
			lines = append(lines, shardLine{f, l})
		}
	}
	ss := NewShardedStream(3)
	defer ss.Close()

	var (
		mu       sync.Mutex
		captured = make(map[*AppTrace]*AppTrace)
		readErr  error
		wg       sync.WaitGroup
	)
	// take records a copy of each trace read the first time it is seen.
	take := func(traces []*AppTrace) {
		mu.Lock()
		defer mu.Unlock()
		for _, a := range traces {
			if _, seen := captured[a]; !seen {
				captured[a] = cloneTrace(a)
			}
		}
	}
	stop := make(chan struct{})
	// first is closed once a reader holds a trace.
	first := make(chan struct{})
	var once sync.Once
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if traces := ss.Apps(); len(traces) > 0 {
					take(traces)
					once.Do(func() { close(first) })
				}
				if _, err := ss.Report().JSON(); err != nil {
					mu.Lock()
					readErr = err
					mu.Unlock()
				}
			}
		}()
	}
	// Start the second half only once a reader holds traces from the
	// first, so some of the readers' captures always predate absorbs
	// that change their apps, however the goroutines are scheduled.
	half := len(lines) / 2
	for i, ln := range lines {
		if i == half {
			<-first
		}
		ss.Feed(ln.source, ln.raw)
		ss.Quiesce()
		take(ss.Apps())
	}
	close(stop)
	wg.Wait()

	if readErr != nil {
		t.Fatal(readErr)
	}
	if len(captured) < len(lines)/2 {
		t.Fatalf("%d distinct traces read over %d lines", len(captured), len(lines))
	}
	for a, c := range captured {
		if !reflect.DeepEqual(a, c) {
			t.Fatalf("%v: trace changed after it was read:\nbefore %s\nafter  %s", a.ID, mustSnapshot(t, c), mustSnapshot(t, a))
		}
	}
	for _, a := range ss.Apps() {
		cid := ids.ContainerID{App: a.ID, Attempt: 1, Num: 6}
		if c := a.Container(cid); c == nil || c.Instance != InstSparkDriver {
			t.Fatalf("%v was not reclassified: %+v", cid, c)
		}
	}
}

// goldenTreeFiles returns every file of a golden tree whole, in lexical
// order, as one shardLine per file.
func goldenTreeFiles(t testing.TB, dir string) []shardLine {
	t.Helper()
	var out []shardLine
	err := WalkTree(dir, 1, func(_ int, f TreeFile) error {
		r, err := f.Open()
		if err != nil {
			return err
		}
		defer r.Close()
		data, err := io.ReadAll(r)
		out = append(out, shardLine{f.Name, string(data)})
		return err
	})
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	return out
}

// TestFeedBlockEventsDoNotAliasBlock: no string an event or a trace
// holds after FeedBlock and Quiesce points into a fed block, so the
// caller may reuse a block once FeedBlock returns. That events keep no
// view of the arena's copy either, the poisoned tests check.
func TestFeedBlockEventsDoNotAliasBlock(t *testing.T) {
	files := goldenTreeFiles(t, filepath.Join("testdata", "golden", "pristine", "input"))
	ss := NewShardedStream(2)
	defer ss.Close()
	for _, f := range files {
		ss.FeedBlock(f.source, f.raw)
	}
	ss.Quiesce()
	check := func(what, s string) {
		if s == "" {
			return
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for _, f := range files {
			lo := uintptr(unsafe.Pointer(unsafe.StringData(f.raw)))
			if p >= lo && p < lo+uintptr(len(f.raw)) {
				t.Fatalf("%s %q aliases the block fed for %s", what, s, f.source)
			}
		}
	}
	apps := ss.Apps()
	if len(apps) == 0 {
		t.Fatal("no apps absorbed")
	}
	summaries := 0
	for _, a := range apps {
		check("app name", a.Name)
		check("app type", a.AppType)
		check("queue", a.Queue)
		for _, c := range a.Containers {
			check("container node", c.Node)
		}
		for _, e := range a.Events {
			check(e.Kind.String()+" event node", e.Node)
			if sub := e.Submission; sub != nil {
				summaries++
				for _, s := range []string{sub.Name, sub.AppType, sub.Queue} {
					check(e.Kind.String()+" submission string", s)
				}
			}
		}
	}
	if summaries == 0 {
		t.Fatal("no APP_SUMMARY event carries a submission summary")
	}
}

// TestSegmentIterSplitsTailedBlocks: the lines FeedBlock's splitter
// takes from the blocks a tailer hands it are the log lines themselves.
// A block of CRLF-terminated lines yields each line without its CR, and
// a line completed by a later append, handed whole in a block of its
// own, yields that line untorn.
func TestSegmentIterSplitsTailedBlocks(t *testing.T) {
	l1 := line(100, "x.RMAppImpl", "application_1499000000000_0001 State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED")
	l2 := line(5000, "x.RMAppImpl", "application_1499000000000_0001 State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED")
	for _, tc := range []struct {
		block string
		want  []string
	}{
		{"bcd\r\nefg\r\n", []string{"bcd", "efg"}},
		{l1 + "\r\n" + l2 + "\r\n", []string{l1, l2}},
		{l2 + "\n", []string{l2}},
	} {
		var got []string
		it := segmentIter{raw: tc.block}
		for seg, ok := it.next(); ok; seg, ok = it.next() {
			got = append(got, seg)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("block %q split into %q, want %q", tc.block, got, tc.want)
		}
	}
}

// TestFeedBlockTightBudgetMatchesSerial feeds both golden trees one
// FeedBlock per file through arenas of a few hundred bytes, whose
// buffers are reused and poisoned many times over and whose feeds stall
// on the budget, and requires the serial stream's report. Files longer
// than a chunk take buffers of their own.
func TestFeedBlockTightBudgetMatchesSerial(t *testing.T) {
	for _, tree := range []string{"pristine", "faulted"} {
		dir := filepath.Join("testdata", "golden", tree, "input")
		st, _ := feedSerial(goldenTreeLines(t, dir))
		want, err := st.Report().JSON()
		if err != nil {
			t.Fatal(err)
		}
		files := goldenTreeFiles(t, dir)
		for _, w := range []int{1, 3} {
			for _, chunk := range []int{256, 4 << 10} {
				reg := metrics.NewRegistry()
				ss := poisoned(newShardedStream(w, chunk, 2))
				ss.Instrument(reg)
				fed := 0
				for _, f := range files {
					fed += ss.FeedBlock(f.source, f.raw)
				}
				ss.Quiesce()
				if got, _ := ss.Report().JSON(); got != want {
					t.Errorf("%s workers=%d chunk=%d: report diverges from the serial stream's", tree, w, chunk)
				}
				if fed != len(goldenTreeLines(t, dir)) {
					t.Errorf("%s workers=%d chunk=%d: fed %d lines", tree, w, chunk, fed)
				}
				if held := reg.Gauge("core_stream_inflight_bytes").Value(); held > int64(chunk) {
					t.Errorf("%s workers=%d chunk=%d: %d bytes held after Quiesce, want at most the current chunk", tree, w, chunk, held)
				}
				ss.Close()
				if held := reg.Gauge("core_stream_inflight_bytes").Value(); held != 0 {
					t.Errorf("%s workers=%d chunk=%d: %d bytes held after Close", tree, w, chunk, held)
				}
			}
		}
	}
}

// TestFeedStallsOnBudget: with the worker held up, feeds fill the
// budget and the next one waits until the worker retires lines; the
// wait is counted, and no more than the budget is ever held.
func TestFeedStallsOnBudget(t *testing.T) {
	reg := metrics.NewRegistry()
	ss := newShardedStream(1, 256, 2)
	defer ss.Close()
	ss.Instrument(reg)
	sh := ss.shards[0]
	sh.stMu.Lock()
	done := make(chan int)
	go func() {
		fed := 0
		for i := range 8 {
			fed += ss.FeedBlock("hadoop/yarn-resourcemanager.log", budgetLine(i)+"\n")
		}
		done <- fed
	}()
	waitFeedWaiting(t, ss)
	ss.arena.poolMu.Lock()
	held := ss.arena.held
	ss.arena.poolMu.Unlock()
	if held > ss.arena.budget {
		t.Errorf("%d bytes held, budget %d", held, ss.arena.budget)
	}
	time.Sleep(5 * time.Millisecond)
	sh.stMu.Unlock()
	if fed := <-done; fed != 8 {
		t.Fatalf("fed %d of 8 lines", fed)
	}
	ss.Quiesce()
	if n := ss.EventCount(); n != 8 {
		t.Fatalf("%d events, want 8", n)
	}
	if ms := reg.Counter("core_stream_feed_stall_ms_total").Value(); ms < 5 {
		t.Errorf("core_stream_feed_stall_ms_total = %d, want the 5 ms the feed waited at least", ms)
	}
}

// TestCloseWakesStalledFeed: Close racing a FeedBlock that waits on a
// spent budget returns, the waiting FeedBlock returns 0 while the
// worker is still held up, and once Close is done no buffer is counted.
func TestCloseWakesStalledFeed(t *testing.T) {
	reg := metrics.NewRegistry()
	ss := newShardedStream(1, 256, 2)
	ss.Instrument(reg)
	sh := ss.shards[0]
	sh.stMu.Lock()
	last := make(chan int)
	go func() {
		for i := 0; ; i++ {
			if n := ss.FeedBlock("hadoop/yarn-resourcemanager.log", budgetLine(i)+"\n"); n == 0 {
				last <- n
				return
			}
		}
	}()
	waitFeedWaiting(t, ss)
	closed := make(chan struct{})
	go func() {
		ss.Close()
		close(closed)
	}()
	select {
	case <-last:
	case <-time.After(10 * time.Second):
		t.Fatal("the waiting FeedBlock did not return after Close")
	}
	select {
	case <-closed:
		t.Fatal("Close returned with a line still unabsorbed")
	default:
	}
	sh.stMu.Unlock()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	ss.arena.poolMu.Lock()
	held, nheld := ss.arena.held, ss.arena.nheld
	ss.arena.poolMu.Unlock()
	if held != 0 || nheld != 0 {
		t.Errorf("after Close %d buffers (%d bytes) are still counted", nheld, held)
	}
	if g := reg.Gauge("core_stream_inflight_bytes").Value(); g != 0 {
		t.Errorf("core_stream_inflight_bytes = %d after Close", g)
	}
	if ss.FeedBlock("hadoop/yarn-resourcemanager.log", budgetLine(0)+"\n") != 0 {
		t.Error("FeedBlock accepted a line after Close")
	}
}

// budgetLine is an RM line of its own application, shorter than the
// budget tests' 256-byte chunks.
func budgetLine(i int) string {
	return line(int64(i), "x.RMAppImpl", fmt.Sprintf("application_1499000000000_%04d State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED", i+1))
}

// waitFeedWaiting waits until a feed of ss waits for room in its arena.
func waitFeedWaiting(t *testing.T, ss *ShardedStream) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ss.arena.poolMu.Lock()
		waiting := ss.arena.waiting
		ss.arena.poolMu.Unlock()
		if waiting {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no feed waited on the budget")
		}
		time.Sleep(time.Millisecond)
	}
}
