//go:build !race

package main

import (
	"net/http/httptest"
	"runtime"
	"testing"

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
