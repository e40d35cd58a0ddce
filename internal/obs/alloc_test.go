//go:build !race

package obs

import "testing"

// TestStageBatchAlloc pins the recorder's steady state: stage batches,
// and the drain the serve loop runs after each poll's batches, allocate
// nothing once the drain's buffer has grown. Excluded under -race,
// whose instrumentation perturbs allocation counts.
func TestStageBatchAlloc(t *testing.T) {
	p, _, clk := newTestPipeline()
	drained := 0
	cycle := func() {
		for i := 0; i < 100; i++ {
			t0 := p.Begin()
			clk.now++
			p.StageBatch(StageParse, 1, t0, 64)
		}
		drained = len(p.DrainSelf())
	}
	if got := testing.AllocsPerRun(50, cycle); got != 0 {
		t.Errorf("100 stage batches and a drain: %v allocs/op, want 0", got)
	}
	if drained != 100 {
		t.Fatalf("drain returned %d batches, want 100", drained)
	}
}
