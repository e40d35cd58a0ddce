package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/log4j"
	"repro/internal/yarn"
)

// sinkDigest hashes every file name of a sink, in first-write order, and
// every line of that file. Two sinks with equal digests write the same
// log tree byte for byte.
func sinkDigest(s *log4j.Sink) string {
	h := sha256.New()
	for _, f := range s.Files() {
		h.Write([]byte(f))
		h.Write([]byte{0})
		for _, line := range s.Lines(f) {
			h.Write([]byte(line))
			h.Write([]byte{'\n'})
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSimulatedSinkGolden pins the simulator's output: the resource
// model, the event engine and the log writer may change how they work,
// never what they write. Each digest covers every file name and line of
// a small default trace run. A change that moves one timestamp or
// reorders two same-instant lines fails here; if the change is meant to
// alter the simulated cluster, recompute the digests and say why. The
// degraded case damages the seed=97 run after simulating, so it also
// pins DegradeConfig.Damage and Sink.Damaged.
func TestSimulatedSinkGolden(t *testing.T) {
	cases := []struct {
		name   string
		seed   uint64
		opts   func(*Options)
		damage log4j.DegradeConfig
		want   string
	}{
		{name: "seed=97", seed: 97,
			want: "23d836870327c17a1ed8f8874676bf95a33a3477d1cf2cf7228dc509645bc4e8"},
		{name: "seed=131", seed: 131,
			want: "69703b6658a8e2d1de21b8aff385a1674dcb86d2db08aa7e94f3ad53028edc9c"},
		{name: "degraded", seed: 97,
			damage: log4j.DegradeConfig{DropProb: 0.03, TearProb: 0.03, SkewMaxMs: 1500, Seed: 0x5eed},
			want:   "a9fbac07c23b650702a87c8a0a8f9c82398f6c440a715c0888b9a113eb62e8dc"},
		{name: "crash", seed: 131, opts: func(o *Options) {
			o.Faults = yarn.FaultSchedule{Crashes: []yarn.NodeCrash{{Node: 2, AtMs: 30_000, DownForMs: 25_000}}}
		}, want: "515ccc2abede7fda0d9ac89e2b5413e3d4cf92e3559fd339c2b6dde0858e1c7e"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := DefaultTraceRun(80)
			tr.Seed = tc.seed
			if tc.opts != nil {
				tc.opts(&tr.Opts)
			}
			s, _ := tr.Run()
			sink := s.Sink
			if tc.damage != (log4j.DegradeConfig{}) {
				sink = sink.Damaged(tc.damage)
			}
			if got := sinkDigest(sink); got != tc.want {
				t.Errorf("sink digest %s, want %s (%d files, %d lines)",
					got, tc.want, len(sink.Files()), sink.TotalLines())
			}
		})
	}
}

// TestDamagedZeroConfigKeepsDigest pins that damage with a zero config
// copies a simulated sink exactly, and that the copy is its own: lines
// appended to the source afterwards, to its files and to a new one, do
// not reach it.
func TestDamagedZeroConfigKeepsDigest(t *testing.T) {
	tr := DefaultTraceRun(10)
	s, _ := tr.Run()
	want := sinkDigest(s.Sink)
	d := s.Sink.Damaged(log4j.DegradeConfig{})
	if got := sinkDigest(d); got != want {
		t.Fatalf("zero-config damage digest %s, source %s", got, want)
	}
	for _, f := range s.Sink.Files() {
		s.Sink.Append(f, "appended to the source")
	}
	s.Sink.Append("new.log", "appended to the source")
	if got := sinkDigest(d); got != want {
		t.Fatalf("appending to the source moved the damaged digest from %s to %s", want, got)
	}
}

// BenchmarkTraceRun times the simulated testbed at the size the
// benchmark trees use: 2,000 queries of the default trace, simulated
// and mined, at the two seeds the trees are built from.
func BenchmarkTraceRun(b *testing.B) {
	for _, seed := range []uint64{97, 131} {
		b.Run(fmt.Sprintf("seed=%d", seed), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := DefaultTraceRun(2000)
				tr.Seed = seed
				tr.Run()
			}
		})
	}
}
