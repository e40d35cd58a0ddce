package core

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/ids"
	"repro/internal/log4j"
	"repro/internal/metrics"
)

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

// feedSerial pumps a line sequence through a fresh serial Stream, with a
// completion-hook breakdown sketch attached — the reference the sharded
// stream is diffed against.
func feedSerial(lines []shardLine) (*Stream, *ClusterBreakdown) {
	st := NewStream()
	bd := NewClusterBreakdown()
	st.OnComplete(func(a *AppTrace) { bd.Observe(a) })
	for _, ln := range lines {
		st.Feed(ln.source, ln.raw)
	}
	return st, bd
}

// diffShardedSerial feeds the same sequence into a ShardedStream with w
// workers and asserts every observable matches the serial stream: the
// rendered report (byte for byte), event counts, clock, app sets, and
// the completed-app breakdown sketch.
func diffShardedSerial(t *testing.T, lines []shardLine, w int) {
	t.Helper()
	st, refBD := feedSerial(lines)
	refRep, err := st.Report().JSON()
	if err != nil {
		t.Fatalf("serial report: %v", err)
	}

	ss := NewShardedStream(w)
	defer ss.Close()
	for _, ln := range lines {
		if !ss.Feed(ln.source, ln.raw) {
			t.Fatalf("workers=%d: Feed rejected before Close", w)
		}
	}
	ss.Quiesce()

	if got, want := ss.EventCount(), st.EventCount(); got != want {
		t.Errorf("workers=%d: EventCount=%d serial=%d", w, got, want)
	}
	if got, want := ss.LastEventMS(), st.LastEventMS(); got != want {
		t.Errorf("workers=%d: LastEventMS=%d serial=%d", w, got, want)
	}
	gotRep, err := ss.Report().JSON()
	if err != nil {
		t.Fatalf("workers=%d: sharded report: %v", w, err)
	}
	if gotRep != refRep {
		t.Errorf("workers=%d: report JSON diverges from serial stream", w)
	}

	sApps, pApps := st.Apps(), ss.Apps()
	if len(sApps) != len(pApps) {
		t.Fatalf("workers=%d: apps=%d serial=%d", w, len(pApps), len(sApps))
	}
	for i := range sApps {
		id := sApps[i].ID
		if pApps[i].ID != id {
			t.Fatalf("workers=%d: app %d = %v, serial %v", w, i, pApps[i].ID, id)
		}
		if got, want := ss.Complete(id), st.Complete(id); got != want {
			t.Errorf("workers=%d: Complete(%v)=%v serial=%v", w, id, got, want)
		}
		if ss.App(id) == nil {
			t.Errorf("workers=%d: App(%v) = nil", w, id)
		}
	}

	if got, want := ss.Breakdown().Rows(), refBD.Rows(); !reflect.DeepEqual(got, want) {
		t.Errorf("workers=%d: breakdown rows diverge from serial completion hook", w)
	}
	if got, want := ss.Breakdown().ComponentRows(), refBD.ComponentRows(); !reflect.DeepEqual(got, want) {
		t.Errorf("workers=%d: breakdown component rows diverge", w)
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
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 256*1024), 1024*1024)
		for sc.Scan() {
			out = append(out, shardLine{filepath.ToSlash(rel), sc.Text()})
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
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
// policies pick the same victims, in the same order, as a single
// stream's.
func TestShardedEvictionMatchesSerial(t *testing.T) {
	lines := corpusLines(t, buildMultiAppCorpus(8))
	st, _ := feedSerial(lines)
	ss := NewShardedStream(3)
	defer ss.Close()
	for _, ln := range lines {
		ss.Feed(ln.source, ln.raw)
	}
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

func appIDs(apps []*AppTrace) []ids.AppID {
	out := make([]ids.AppID, len(apps))
	for i, a := range apps {
		out[i] = a.ID
	}
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
		`core_shard_lines_total{shard="0"}`,
		`core_shard_lines_total{shard="1"}`,
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

// TestShardedStreamConcurrentHammer is the -race stress test: several
// goroutines feed disjoint slices of the corpus while others hammer the
// read and eviction surface. It asserts freedom from data races (via the
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
			for i := f; i < len(lines); i += feeders {
				ss.Feed(lines[i].source, lines[i].raw)
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
				_ = ss.Breakdown().Rows()
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
// stream while it absorbs lines fed partly out of time order: every trace
// a reader captured from Apps must be unchanged once feeding ends, and
// under -race no absorb may write memory a reader holds.
func TestShardedPublishedTracesImmutable(t *testing.T) {
	lines := corpusLines(t, buildMultiAppCorpus(12))
	// Swap neighbours so many events arrive before an earlier one.
	for i := 0; i+1 < len(lines); i += 2 {
		lines[i], lines[i+1] = lines[i+1], lines[i]
	}
	ss := NewShardedStream(3)
	defer ss.Close()

	type capture struct {
		a    *AppTrace
		snap string
	}
	var (
		mu       sync.Mutex
		captured []capture
		readErr  error
		wg       sync.WaitGroup
	)
	stop := make(chan struct{})
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
				for _, a := range ss.Apps() {
					snap, err := traceSnapshot(a)
					mu.Lock()
					if err != nil && readErr == nil {
						readErr = err
					}
					if len(captured) < 5000 {
						captured = append(captured, capture{a, snap})
					}
					mu.Unlock()
				}
				if _, err := ss.Report().JSON(); err != nil {
					mu.Lock()
					readErr = err
					mu.Unlock()
				}
			}
		}()
	}
	for _, ln := range lines {
		ss.Feed(ln.source, ln.raw)
	}
	ss.Quiesce()
	close(stop)
	wg.Wait()

	if readErr != nil {
		t.Fatal(readErr)
	}
	if len(captured) == 0 {
		t.Fatal("readers captured no traces")
	}
	for _, c := range captured {
		if got := mustSnapshot(t, c.a); got != c.snap {
			t.Fatalf("%v: captured trace changed after capture", c.a.ID)
		}
	}
}
