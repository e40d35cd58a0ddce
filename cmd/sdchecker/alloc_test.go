//go:build !race

package main

import (
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestServeExplainAlloc budgets one /explain request once both flight
// rings are full: the exemplars' flight slices are read in place, not
// from a copy of the recorder. Excluded under -race, whose
// instrumentation perturbs allocation counts.
func TestServeExplainAlloc(t *testing.T) {
	dir := t.TempDir()
	writePlantedLogs(t, dir, 5)
	srv := newLiveServer(dir, testServeOptions(2, nil))
	defer srv.close()
	for i := 0; i < 4096; i++ {
		srv.pl.StageBatch(obs.StageParse, i%2, srv.pl.Begin(), 1)
		srv.pl.RecordForward(0, 1, 1)
	}
	if err := srv.pollOnce(); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/explain?component=total", nil)
	explain := func() { srv.handleExplain(httptest.NewRecorder(), req) }
	explain()

	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		explain()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	// Measured over 150 runs on Linux/amd64: 80–81 allocs and 76–82 kB.
	// Copying the whole ring to find the hook events cost 76–80 allocs
	// and 443–445 kB.
	if allocs > 81 || bytes > 84_000 {
		t.Errorf("one /explain: %d allocs, %d bytes; budget 81 allocs, 84000 bytes", allocs, bytes)
	}
}

// TestIdleScanAlloc budgets an idle full walk of the tailer: a scan of a
// tree that has not changed since the last one, which -follow, and
// -serve without a watch, repeat every second. The tree is laid out as a
// cluster's, one directory per container.
func TestIdleScanAlloc(t *testing.T) {
	dir := t.TempDir()
	writePlantedLogs(t, dir, 200)
	st := core.NewShardedStream(2)
	defer st.Close()
	sc := newDirScanner(dir, st)
	for i := 0; i < 2; i++ { // the first scan feeds the tree; the second warms up
		if _, err := sc.scan(); err != nil {
			t.Fatal(err)
		}
	}
	st.Quiesce()
	files := len(sc.files)

	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if changed, err := sc.scan(); changed || err != nil {
			t.Fatalf("idle scan: changed=%v err=%v", changed, err)
		}
	}
	runtime.ReadMemStats(&after)
	allocsPer := float64(after.Mallocs-before.Mallocs) / float64(runs*files)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*files)
	t.Logf("%d files: %.1f allocs/file, %.0f B/file", files, allocsPer, bytesPer)
	// Measured on Linux/amd64: 8.0 allocs and 429–437 B per file, four
	// allocations per directory (its name, its entries and their names,
	// and its handle) and two per file (its name and its reader). With
	// an os.File per file and directory it was 25.1 allocs and 1,625 B.
	const allocBudget, bytesBudget = 9, 600
	if allocsPer > allocBudget || bytesPer > bytesBudget {
		t.Errorf("idle scan: %.1f allocs and %.0f B per file; budget %d allocs, %d B", allocsPer, bytesPer, allocBudget, bytesBudget)
	}
}
