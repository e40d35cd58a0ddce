package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/log4j"
)

// buildMultiAppCorpus clones the hand-built Spark corpus into n distinct
// applications (distinct submission sequence numbers), so sharding
// actually spreads work across workers.
func buildMultiAppCorpus(n int) corpus {
	out := corpus{}
	one := buildSparkCorpus()
	for i := 1; i <= n; i++ {
		tag := fmt.Sprintf("1499000000000_%04d", i)
		for f, lines := range one {
			nf := strings.ReplaceAll(f, "1499000000000_0001", tag)
			for _, l := range lines {
				out.add(nf, strings.ReplaceAll(l, "1499000000000_0001", tag))
			}
		}
	}
	return out
}

func corpusSink(t *testing.T, cs corpus) *log4j.Sink {
	t.Helper()
	s := log4j.NewSink(nil, log4j.Clock{})
	for _, f := range sortedKeys(cs) {
		for _, l := range cs[f] {
			s.Append(f, l)
		}
	}
	return s
}

func sortedKeys(cs corpus) []string {
	out := make([]string, 0, len(cs))
	for f := range cs {
		out = append(out, f)
	}
	// Deterministic file order; the miners must not depend on it, but
	// the test fixture should be stable.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestMineSinkMatchesChecker pins the parallel miner byte for byte
// against the serial checker over the same sink, at several worker
// counts, including warning lists and file/line statistics. The corpus
// includes a warning-producing file so the occurrence-replayed warning
// merge is exercised, not just the happy path.
func TestMineSinkMatchesChecker(t *testing.T) {
	cs := buildMultiAppCorpus(6)
	// A container log with no parseable lines warns; give it three
	// junk lines so per-file line counts must sum correctly too.
	junk := "userlogs/application_1499000000000_0002/container_1499000000000_0002_01_000009/stderr"
	cs.add(junk, "not a log4j line")
	cs.add(junk, "still not one")
	cs.add(junk, "")

	sink := corpusSink(t, cs)

	ck := New()
	if err := ck.AddSink(sink); err != nil {
		t.Fatalf("AddSink: %v", err)
	}
	ref := ck.Analyze()
	refJSON, err := ref.JSON()
	if err != nil {
		t.Fatalf("ref JSON: %v", err)
	}
	if len(ref.Warnings) == 0 {
		t.Fatal("fixture produced no warnings; warning merge untested")
	}

	for _, w := range []int{0, 1, 2, 3, 8} {
		rep, err := MineSink(sink, w)
		if err != nil {
			t.Fatalf("MineSink(workers=%d): %v", w, err)
		}
		got, err := rep.JSON()
		if err != nil {
			t.Fatalf("JSON(workers=%d): %v", w, err)
		}
		if got != refJSON {
			t.Errorf("workers=%d: JSON diverges from serial checker", w)
		}
		if len(rep.Warnings) != len(ref.Warnings) {
			t.Errorf("workers=%d: %d warnings, serial has %d", w, len(rep.Warnings), len(ref.Warnings))
		} else {
			for i := range rep.Warnings {
				if rep.Warnings[i] != ref.Warnings[i] {
					t.Errorf("workers=%d: warning %d = %q, serial %q", w, i, rep.Warnings[i], ref.Warnings[i])
				}
			}
		}
		if rep.FilesParsed != ref.FilesParsed || rep.LinesParsed != ref.LinesParsed {
			t.Errorf("workers=%d: stats files=%d lines=%d, serial files=%d lines=%d",
				w, rep.FilesParsed, rep.LinesParsed, ref.FilesParsed, ref.LinesParsed)
		}
		if rep.Format() != ref.Format() {
			t.Errorf("workers=%d: text report diverges from serial checker", w)
		}
	}
}

// TestMineDirMissing pins the error path: a missing directory fails the
// same way the serial walk does.
func TestMineDirMissing(t *testing.T) {
	if _, err := MineDir("testdata/does-not-exist", 4); err == nil {
		t.Fatal("MineDir on missing dir: want error, got nil")
	}
}

// TestMinedStringsOutliveReadBlock: a read block is a view of the
// BlockReader's buffer, which the next read overwrites, so the strings
// an event keeps of its line must be copies. A ResourceManager log of
// more than one read chunk puts APP_SUMMARY and ASSIGNED lines in the
// first block and chatter after them, which the second read copies over
// the first block's bytes; the mined name, type, queue and node must
// still read as they were logged, through ParseReader and MineDir.
func TestMinedStringsOutliveReadBlock(t *testing.T) {
	const (
		app  = "application_1499000000000_0001"
		cont = "container_1499000000000_0001_01_000001"
		rm   = "hadoop/yarn-resourcemanager.log"
	)
	var b strings.Builder
	for i, msg := range []string{
		"Application " + app + " submitted: name=query-07 type=SPARK queue=interactive",
		app + " State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED",
		"Assigned container " + cont + " of capacity <memory:1024, vCores:1> on host node07",
	} {
		b.WriteString(line(int64(i), "org.apache.hadoop.yarn.server.resourcemanager.RMAppManager", msg) + "\n")
	}
	for i := 0; b.Len() < readChunk*3/2; i++ {
		b.WriteString(line(10+int64(i%1000), "org.apache.hadoop.ipc.Server", fmt.Sprintf("IPC Server handler %d on 8030, call heartbeat from 10.0.0.%d", i%64, i%250)) + "\n")
	}
	check := func(how string, evs []Event) {
		t.Helper()
		var sum, assigned int
		for _, e := range evs {
			switch e.Kind {
			case AppSubmitted0:
				sum++
				if sub := e.summary(); sub != (Submission{Name: "query-07", AppType: "SPARK", Queue: "interactive"}) {
					t.Errorf("%s: APP_SUMMARY mined %+v, want query-07, SPARK, interactive", how, sub)
				}
			case ContAssigned:
				assigned++
				if e.Node != "node07" {
					t.Errorf("%s: ASSIGNED mined node %q, want node07", how, e.Node)
				}
			}
		}
		if sum != 1 || assigned != 1 {
			t.Errorf("%s: mined %d APP_SUMMARY and %d ASSIGNED events, want 1 each", how, sum, assigned)
		}
	}

	p := NewParser()
	if err := p.ParseReader(rm, strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	check("ParseReader", p.Events())

	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "hadoop"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, filepath.FromSlash(rm)), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := MineDir(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("MineDir", rep.Events)
	if len(rep.Apps) != 1 || rep.Apps[0].Name != "query-07" || rep.Apps[0].Queue != "interactive" {
		t.Errorf("MineDir: apps %+v, want one, named query-07 in queue interactive", rep.Apps)
	}
}
