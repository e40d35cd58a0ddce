package digest

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the nearest-rank quantile of a sorted slice.
func exactQuantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// checkBound asserts the sketch's documented bound: the reported
// quantile is within alpha (relative) of the exact nearest-rank value.
func checkBound(t *testing.T, s *Sketch, sorted []float64, p float64) {
	t.Helper()
	got := s.Quantile(p)
	want := exactQuantile(sorted, p)
	if want < 1 {
		// Sub-millisecond values collapse into the zero bucket; the
		// guarantee there is absolute: the report is also < 1.
		if got >= 1 {
			t.Errorf("p%.0f: got %v for exact %v (< 1 must stay < 1)", p*100, got, want)
		}
		return
	}
	if rel := math.Abs(got-want) / want; rel > s.Alpha()+1e-9 {
		t.Errorf("p%.0f: got %v, exact %v, relative error %.4f > alpha %v",
			p*100, got, want, rel, s.Alpha())
	}
}

func TestQuantileAccuracy(t *testing.T) {
	for _, dist := range []struct {
		name string
		gen  func(r *rand.Rand) float64
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() * 10_000 }},
		{"lognormal", func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()*2 + 5) }},
		{"heavy-tail", func(r *rand.Rand) float64 { return math.Pow(1/(1-r.Float64()), 1.5) }},
	} {
		t.Run(dist.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			s := New(DefaultAlpha)
			vals := make([]float64, 0, 20_000)
			for i := 0; i < 20_000; i++ {
				v := dist.gen(r)
				s.Add(v)
				vals = append(vals, v)
			}
			sort.Float64s(vals)
			for _, p := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
				checkBound(t, s, vals, p)
			}
			if s.Count() != 20_000 {
				t.Errorf("count=%d", s.Count())
			}
			if got, want := s.Min(), vals[0]; got != want {
				t.Errorf("min=%v want %v", got, want)
			}
			if got, want := s.Max(), vals[len(vals)-1]; got != want {
				t.Errorf("max=%v want %v", got, want)
			}
			wantSum := 0.0
			for _, v := range vals {
				wantSum += v
			}
			if math.Abs(s.Sum()-wantSum)/wantSum > 1e-9 {
				t.Errorf("sum=%v want %v", s.Sum(), wantSum)
			}
		})
	}
}

// TestMergeEquivalence is the sharding guarantee: merging per-shard
// sketches must be byte-identical to sketching the whole stream, so the
// merged quantiles carry the same error bound as whole-run ones.
func TestMergeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	whole := New(DefaultAlpha)
	shards := make([]*Sketch, 4)
	for i := range shards {
		shards[i] = New(DefaultAlpha)
	}
	var vals []float64
	for i := 0; i < 10_000; i++ {
		v := math.Exp(r.NormFloat64() + 4)
		whole.Add(v)
		shards[i%len(shards)].Add(v)
		vals = append(vals, v)
	}
	merged := New(DefaultAlpha)
	for _, sh := range shards {
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Count() != whole.Count() ||
		merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merged scalar state differs from whole-run state")
	}
	// Sums accumulate in different orders across shards; only the float
	// rounding may differ.
	if math.Abs(merged.Sum()-whole.Sum())/whole.Sum() > 1e-12 {
		t.Fatalf("merged sum %v vs whole %v", merged.Sum(), whole.Sum())
	}
	sort.Float64s(vals)
	for _, p := range []float64{0.5, 0.95, 0.99} {
		if m, w := merged.Quantile(p), whole.Quantile(p); m != w {
			t.Errorf("p%.0f: merged %v != whole %v (merge must be exact)", p*100, m, w)
		}
		checkBound(t, merged, vals, p)
	}
}

func TestMergeAlphaMismatch(t *testing.T) {
	a, b := New(0.01), New(0.02)
	b.Add(5)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging different alphas must fail")
	}
	if err := a.Merge(New(0.02)); err != nil {
		t.Fatalf("merging an EMPTY mismatched sketch is harmless, got %v", err)
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
}

func TestZeroAndNegative(t *testing.T) {
	s := New(DefaultAlpha)
	s.Add(-5) // degraded input: clamped, not panicking
	s.Add(0)
	s.Add(0.4)
	s.Add(100)
	if s.Count() != 4 {
		t.Fatalf("count=%d", s.Count())
	}
	if q := s.Quantile(0.5); q >= 1 {
		t.Errorf("p50=%v, want sub-millisecond", q)
	}
	if q := s.Quantile(1); q != 100 {
		t.Errorf("p100=%v, want exactly max=100", q)
	}
	if s.Min() != 0 {
		t.Errorf("min=%v, want 0 (clamped)", s.Min())
	}
}

func TestEmptySketch(t *testing.T) {
	s := New(DefaultAlpha)
	if s.Quantile(0.5) != 0 || s.Count() != 0 || s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 {
		t.Errorf("empty sketch must read as zeros")
	}
}

func TestSerializationRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s := New(DefaultAlpha)
	for i := 0; i < 5_000; i++ {
		s.Add(math.Exp(r.NormFloat64()*1.5 + 3))
	}
	s.Add(0) // exercise the zero bucket
	raw, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Compactness: delta-encoded buckets should stay near 2-3 bytes each.
	if len(raw) > 32+6*1000 {
		t.Errorf("encoding is %d bytes for ~%d buckets — not compact", len(raw), len(s.buckets))
	}
	var back Sketch
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if back.Count() != s.Count() || back.Sum() != s.Sum() ||
		back.Min() != s.Min() || back.Max() != s.Max() || back.Alpha() != s.Alpha() {
		t.Fatalf("scalar state did not survive the roundtrip")
	}
	for _, p := range []float64{0.01, 0.5, 0.95, 0.99} {
		if a, b := s.Quantile(p), back.Quantile(p); a != b {
			t.Errorf("p%.0f: %v != %v after roundtrip", p*100, a, b)
		}
	}
	// A decoded sketch must merge back into a live one.
	if err := s.Merge(&back); err != nil {
		t.Fatal(err)
	}

	roundtripEmpty := New(0.05)
	raw, err = roundtripEmpty.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var e Sketch
	if err := e.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if e.Count() != 0 || e.Alpha() != 0.05 {
		t.Errorf("empty roundtrip: count=%d alpha=%v", e.Count(), e.Alpha())
	}
}

// bucket is one (key, count) pair for handFrame.
type bucket struct {
	key int32
	n   uint64
}

// handFrame assembles a frame with the given zero and total counts and
// buckets, written in the order given, and an empty exemplar section:
// the frames MarshalBinary never writes.
func handFrame(zero, count uint64, buckets ...bucket) []byte {
	b := append([]byte(nil), magic...)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(DefaultAlpha))
	b = binary.AppendUvarint(b, zero)
	b = binary.AppendUvarint(b, count)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(100)) // sum
	if count > 0 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0))   // min
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(100)) // max
	}
	b = binary.AppendUvarint(b, uint64(len(buckets)))
	prev := int64(0)
	for _, bk := range buckets {
		b = binary.AppendVarint(b, int64(bk.key)-prev)
		b = binary.AppendUvarint(b, bk.n)
		prev = int64(bk.key)
	}
	return binary.AppendUvarint(b, 0)
}

func TestUnmarshalCorrupt(t *testing.T) {
	s := New(DefaultAlpha)
	s.Add(12)
	s.Add(7000)
	raw, _ := s.MarshalBinary()
	var back Sketch
	// The hand-built frames are well formed apart from their defect:
	// the same layout with ascending keys decodes.
	if err := back.UnmarshalBinary(handFrame(1, 3, bucket{5, 1}, bucket{9, 1})); err != nil {
		t.Fatalf("well-formed hand frame rejected: %v", err)
	}
	for _, bad := range [][]byte{
		nil,
		[]byte("x"),
		[]byte("bad frame entirely"),
		raw[:len(raw)-1],
		raw[:5],
		append([]byte("zz1"), raw[3:]...),
		append([]byte("dg1"), raw[3:]...), // the previous layout
		handFrame(0, 2, bucket{5, 1}, bucket{5, 1}), // repeated key
		handFrame(0, 2, bucket{9, 1}, bucket{5, 1}), // descending keys
		handFrame(3, 2), // zero count above total
		handFrame(0, 1, bucket{5, math.MaxUint64}, bucket{9, 2}), // counts wrap to total
	} {
		if err := back.UnmarshalBinary(bad); err == nil {
			t.Errorf("corrupt frame %q decoded without error", bad)
		}
	}
}

func TestCloneAndReset(t *testing.T) {
	s := New(DefaultAlpha)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	c := s.Clone()
	s.Add(1e6) // must not leak into the clone
	if c.Max() == s.Max() {
		t.Error("clone shares state with original")
	}
	s.Reset()
	if s.Count() != 0 || s.Quantile(0.5) != 0 {
		t.Error("reset did not empty the sketch")
	}
	if c.Count() != 100 {
		t.Error("reset leaked into clone")
	}
}

func TestAddN(t *testing.T) {
	a, b := New(DefaultAlpha), New(DefaultAlpha)
	for i := 0; i < 10; i++ {
		a.Add(250)
	}
	b.AddN(250, 10)
	b.AddN(99, 0) // no-op
	if a.Quantile(0.5) != b.Quantile(0.5) || a.Count() != b.Count() || a.Sum() != b.Sum() {
		t.Errorf("AddN(v,10) differs from 10x Add(v)")
	}
}
