package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// seedCorpus adds every checked-in testdata/corpus file — real simulator
// output, including degraded (torn/truncated/skewed) variants regenerated
// by cmd/gencorpus — as a fuzz seed.
func seedCorpus(f *testing.F) {
	dir := filepath.Join("testdata", "corpus")
	ents, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("reading seed corpus: %v", err)
	}
	n := 0
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatalf("reading seed %s: %v", e.Name(), err)
		}
		f.Add(data)
		n++
	}
	if n == 0 {
		f.Fatal("empty seed corpus; run `go run ./cmd/gencorpus`")
	}
	// Hand-picked adversarial shapes on top of the real logs.
	f.Add([]byte("2017-07-02 12:53:22,505 INFO org.apache.x.Y: Container container_1499000000000_0001_01_000002 transitioned from NEW to LOCALIZING"))
	f.Add([]byte("garbage\n\x00\xff\n2017-07-02 99:99:99,999 INFO x: y"))
	f.Add([]byte("2017-07-02 12:53:22,505 INFO a: application_1_2 submitted: name= type= queue="))
	f.Add([]byte(strings.Repeat("no timestamp here\n", 40)))
}

// seedCorpusWorkers is seedCorpus for the two-argument stream fuzz
// target, cycling the fuzzed worker count over the same seed inputs.
func seedCorpusWorkers(f *testing.F) {
	dir := filepath.Join("testdata", "corpus")
	ents, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("reading seed corpus: %v", err)
	}
	n := 0
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatalf("reading seed %s: %v", e.Name(), err)
		}
		f.Add(data, uint8(n))
		n++
	}
	if n == 0 {
		f.Fatal("empty seed corpus; run `go run ./cmd/gencorpus`")
	}
	f.Add([]byte("2017-07-02 12:53:22,505 INFO org.apache.x.Y: Container container_1499000000000_0001_01_000002 transitioned from NEW to LOCALIZING"), uint8(3))
	// A line whose first ID differs from the mined subject ID forces the
	// cross-shard forwarding path.
	f.Add([]byte("2017-07-02 12:53:22,505 INFO x.RMContainerImpl: application_1499000000000_0009 container_1499000000000_0001_01_000002 Container Transitioned from NEW to ALLOCATED"), uint8(7))
	f.Add([]byte("garbage\n\x00\xff\n2017-07-02 99:99:99,999 INFO x: y"), uint8(0))
	f.Add([]byte(strings.Repeat("no timestamp here\n", 40)), uint8(255))
}

// FuzzParseReader feeds arbitrary bytes through the whole offline
// pipeline: parse, correlate, decompose, report, JSON. The contract under
// garbage input is no panic, bounded warnings, and a well-formed (possibly
// empty or partial) report — never an error for mere log damage.
func FuzzParseReader(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := NewParser()
		if err := p.ParseReader("hadoop/yarn-resourcemanager.log", bytes.NewReader(data)); err != nil {
			t.Fatalf("ParseReader must tolerate arbitrary input, got %v", err)
		}
		if n := len(p.Warnings()); n > maxDistinctWarnings+1 {
			t.Fatalf("%d warnings retained; cap is %d", n, maxDistinctWarnings)
		}
		apps := Correlate(p.Events())
		for _, a := range apps {
			d := Decompose(a)
			if d == nil {
				t.Fatal("Decompose returned nil")
			}
			_ = ValidateTrace(a)
			_ = CriticalPath(a)
		}
		rep := ReportFrom(apps, p.Events())
		_ = rep.Format()
		if _, err := rep.JSON(); err != nil {
			t.Fatalf("JSON: %v", err)
		}
	})
}

// fuzzSources are the sources the stream fuzz targets interleave lines
// across: an RM log, an NM log, and a container stderr (exercising
// container attribution).
var fuzzSources = []string{
	"hadoop/yarn-resourcemanager.log",
	"hadoop/yarn-nodemanager-node01.log",
	"userlogs/application_1499000000000_0001/container_1499000000000_0001_01_000001/stderr",
}

// FuzzStreamFeed pushes arbitrary line streams through the incremental
// checker, interleaved across fuzzSources. The stream's incrementally
// built report must equal a batch correlation of the events it holds:
// incremental == batch on arbitrary, out-of-order and equal-timestamp
// input.
func FuzzStreamFeed(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewStream()
		for i, line := range strings.Split(string(data), "\n") {
			st.Feed(fuzzSources[i%len(fuzzSources)], line)
		}
		var held []Event
		for _, a := range st.traces() {
			held = append(held, a.Events...)
		}
		inc, err := st.Report().JSON()
		if err != nil {
			t.Fatalf("stream JSON: %v", err)
		}
		batch, err := ReportFrom(Correlate(held), held).JSON()
		if err != nil {
			t.Fatalf("batch JSON: %v", err)
		}
		if inc != batch {
			t.Fatalf("incremental report differs from batch correlation of the same events:\n%s\nvs\n%s", inc, batch)
		}
		_ = st.Report().Format()
	})
}

// FuzzShardedFeed runs arbitrary line streams, interleaved across
// fuzzSources, through a ShardedStream with a fuzzed worker count and
// through a one-worker stream, the serial side: the absorbed event
// multiset must match no matter how lines shard, even on adversarial
// input that triggers cross-shard event forwarding. It also checks the
// memory bound.
func FuzzShardedFeed(f *testing.F) {
	seedCorpusWorkers(f)
	f.Fuzz(func(t *testing.T, data []byte, workers uint8) {
		lines := strings.Split(string(data), "\n")
		w := int(workers%8) + 1
		reg := metrics.NewRegistry()
		st, ss := NewShardedStream(1), NewShardedStream(w)
		defer st.Close()
		defer ss.Close()
		ss.Instrument(reg)
		for i, line := range lines {
			st.Feed(fuzzSources[i%len(fuzzSources)], line)
			ss.Feed(fuzzSources[i%len(fuzzSources)], line)
		}
		st.Quiesce()
		ss.Quiesce()

		// Order-independent invariants that hold even when adversarial
		// lines force cross-shard forwarding: same events absorbed, same
		// applications tracked, same per-application event counts.
		if got, want := ss.EventCount(), st.EventCount(); got != want {
			t.Fatalf("workers=%d: EventCount=%d serial=%d", w, got, want)
		}
		if got, want := ss.LastEventMS(), st.LastEventMS(); got != want {
			t.Fatalf("workers=%d: LastEventMS=%d serial=%d", w, got, want)
		}
		sApps, pApps := st.Apps(), ss.Apps()
		if len(sApps) != len(pApps) {
			t.Fatalf("workers=%d: apps=%d serial=%d", w, len(pApps), len(sApps))
		}
		for i := range sApps {
			if pApps[i].ID != sApps[i].ID {
				t.Fatalf("workers=%d: app %d = %v, serial %v", w, i, pApps[i].ID, sApps[i].ID)
			}
			if len(pApps[i].Events) != len(sApps[i].Events) {
				t.Fatalf("workers=%d: app %v has %d events, serial %d",
					w, sApps[i].ID, len(pApps[i].Events), len(sApps[i].Events))
			}
		}
		// With no cross-shard forwarding (the case for all well-formed
		// logs), the sharded report must render byte-identically.
		if reg.Counter("core_shard_forwarded_events_total").Value() == 0 {
			if ss.Report().Format() != st.Report().Format() {
				t.Fatalf("workers=%d: report diverges from serial with no forwarded events", w)
			}
		}

		st.EvictOldest(8)
		if n := len(st.Apps()); n > 8 {
			t.Fatalf("%d apps tracked after EvictOldest(8)", n)
		}
		ss.EvictOldest(8)
		if n := len(ss.Apps()); n > 8 {
			t.Fatalf("workers=%d: %d apps tracked after EvictOldest(8)", w, n)
		}
		_ = st.Report().Format()
		for _, a := range st.Apps() {
			_ = st.Complete(a.ID)
		}
	})
}
