package digest

import (
	"math"
	"testing"
)

// FuzzSketchUnmarshal feeds arbitrary bytes to the frame decoder. A
// rejected frame must leave no panic behind; an accepted one must hold
// the invariants every sketch built by Add, AddExemplar and Merge holds,
// and survive a Marshal/Unmarshal round trip unchanged.
func FuzzSketchUnmarshal(f *testing.F) {
	seed := func(s *Sketch) {
		b, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(New(DefaultAlpha))
	seed(New(0.05))
	plain := New(DefaultAlpha)
	for _, v := range []float64{0, 0.5, 1, 12, 7000, 7000, 1e6} {
		plain.Add(v)
	}
	seed(plain)
	seed(feed(genExemplars(7, 20)))
	seed(feed(genExemplars(3, 3)))
	f.Add(handFrame(1, 3, bucket{5, 1}, bucket{9, 1}))
	f.Add(handFrame(0, 2, bucket{5, 1}, bucket{5, 1}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Sketch
		if err := s.UnmarshalBinary(data); err != nil {
			return
		}
		total := s.zero
		for _, n := range s.buckets {
			total += n
		}
		if total != s.count {
			t.Fatalf("buckets plus zero = %d, count = %d", total, s.count)
		}
		if len(s.ex) > MaxExemplars {
			t.Fatalf("%d exemplars, at most %d allowed", len(s.ex), MaxExemplars)
		}
		for i := 1; i < len(s.ex); i++ {
			if exemplarLess(s.ex[i], s.ex[i-1]) {
				t.Fatalf("exemplars out of order at %d: %v", i, s.ex)
			}
		}
		b, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Sketch
		if err := back.UnmarshalBinary(b); err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !sameSketch(&s, &back) {
			t.Fatalf("round trip changed the sketch:\n%+v\n%+v", s, back)
		}
	})
}

// sameSketch compares every field of two sketches, floats by their bits
// so a NaN sum still compares equal to itself.
func sameSketch(a, b *Sketch) bool {
	bits := math.Float64bits
	if bits(a.alpha) != bits(b.alpha) || a.zero != b.zero || a.count != b.count ||
		bits(a.sum) != bits(b.sum) || bits(a.min) != bits(b.min) || bits(a.max) != bits(b.max) ||
		len(a.buckets) != len(b.buckets) || len(a.ex) != len(b.ex) {
		return false
	}
	for k, n := range a.buckets {
		if b.buckets[k] != n {
			return false
		}
	}
	for i := range a.ex {
		if a.ex[i] != b.ex[i] {
			return false
		}
	}
	return true
}
