package digest

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
)

// lcg is a tiny deterministic generator for the property tests (no
// math/rand: determinism is part of the package contract).
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

// float returns an integral value in [0, max): delay observations are
// whole milliseconds, which keeps float summation exact in any order —
// the property the byte-identity contract rests on.
func (r *lcg) float(max float64) float64 {
	return float64(r.next() % uint64(max))
}

// genExemplars builds n deterministic (value, app, atMS) triples.
func genExemplars(seed uint64, n int) []Exemplar {
	r := lcg(seed)
	out := make([]Exemplar, n)
	for i := range out {
		out[i] = Exemplar{
			App:     fmt.Sprintf("application_1499000000000_%04d", r.next()%40),
			ValueMS: r.float(50_000),
			AtMS:    1_499_000_000_000 + int64(r.next()%3_600_000),
		}
	}
	return out
}

// bruteTopK is the reference: sort the full multiset by exemplarLess and
// keep the first k.
func bruteTopK(all []Exemplar, k int) []Exemplar {
	s := append([]Exemplar(nil), all...)
	sort.Slice(s, func(i, j int) bool { return exemplarLess(s[i], s[j]) })
	if len(s) > k {
		s = s[:k]
	}
	return s
}

func feed(exs []Exemplar) *Sketch {
	s := New(0.01)
	for _, e := range exs {
		s.AddExemplar(e.ValueMS, e.App, e.AtMS)
	}
	return s
}

// TestExemplarReservoirExact pins the reservoir to the brute-force top-k
// of the input multiset: tail-biased, bounded, deterministic.
func TestExemplarReservoirExact(t *testing.T) {
	for _, n := range []int{0, 1, MaxExemplars - 1, MaxExemplars, MaxExemplars + 1, 200} {
		exs := genExemplars(uint64(n)+1, n)
		s := feed(exs)
		got := s.Exemplars()
		want := bruteTopK(exs, MaxExemplars)
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: reservoir %v, want %v", n, got, want)
		}
		if len(got) > MaxExemplars {
			t.Errorf("n=%d: reservoir exceeded cap: %d", n, len(got))
		}
		if s.Count() != uint64(n) {
			t.Errorf("n=%d: sketch count %d (AddExemplar must feed the sketch too)", n, s.Count())
		}
	}
}

// TestExemplarMergeOrderInsensitive splits one multiset into chunks,
// feeds each chunk to its own sketch, and merges in several different
// orders and groupings. Every merge order must produce byte-identical
// frames — the property the worker-count invariance rests on.
func TestExemplarMergeOrderInsensitive(t *testing.T) {
	all := genExemplars(42, 120)
	chunk := func(i, parts int) []Exemplar {
		var out []Exemplar
		for j, e := range all {
			if j%parts == i {
				out = append(out, e)
			}
		}
		return out
	}
	ref := feed(all)
	refBytes, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	for _, parts := range []int{2, 3, 4, 8} {
		// Left-to-right, right-to-left, and pairwise-tree merges.
		orders := [][]int{make([]int, parts), make([]int, parts)}
		for i := 0; i < parts; i++ {
			orders[0][i] = i
			orders[1][i] = parts - 1 - i
		}
		for oi, order := range orders {
			m := New(0.01)
			for _, i := range order {
				if err := m.Merge(feed(chunk(i, parts))); err != nil {
					t.Fatal(err)
				}
			}
			got, err := m.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, refBytes) {
				t.Errorf("parts=%d order=%d: merged frame diverges from serial feed", parts, oi)
			}
		}
	}
}

// TestExemplarMergeAssociative checks (a⊔b)⊔c == a⊔(b⊔c) byte for byte.
func TestExemplarMergeAssociative(t *testing.T) {
	a, b, c := genExemplars(1, 30), genExemplars(2, 30), genExemplars(3, 30)
	left := feed(a)
	if err := left.Merge(feed(b)); err != nil {
		t.Fatal(err)
	}
	if err := left.Merge(feed(c)); err != nil {
		t.Fatal(err)
	}
	bc := feed(b)
	if err := bc.Merge(feed(c)); err != nil {
		t.Fatal(err)
	}
	right := feed(a)
	if err := right.Merge(bc); err != nil {
		t.Fatal(err)
	}
	lb, err := left.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := right.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lb, rb) {
		t.Error("exemplar merge is not associative")
	}
}

// TestExemplarBinaryRoundTrip pins the exemplar section: a full
// reservoir and an empty one both round-trip exactly.
func TestExemplarBinaryRoundTrip(t *testing.T) {
	s := feed(genExemplars(7, 20))
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Sketch
	if err := d.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if len(d.Exemplars()) != MaxExemplars || !reflect.DeepEqual(d.Exemplars(), s.Exemplars()) {
		t.Errorf("round trip lost exemplars: got %v want %v", d.Exemplars(), s.Exemplars())
	}

	// A sketch fed only through Add round-trips with an empty reservoir.
	p := New(0.01)
	p.Add(3)
	pb, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var pd Sketch
	if err := pd.UnmarshalBinary(pb); err != nil {
		t.Fatal(err)
	}
	if pd.Count() != 1 || len(pd.Exemplars()) != 0 {
		t.Errorf("plain frame decoded as count=%d exemplars=%v", pd.Count(), pd.Exemplars())
	}
}

// TestExemplarDecodeRejectsUnsorted corrupts the section ordering and
// expects ErrCorrupt, not silent acceptance.
func TestExemplarDecodeRejectsUnsorted(t *testing.T) {
	a := New(0.01)
	a.AddExemplar(10, "app-b", 5)
	a.AddExemplar(20, "app-a", 6)
	b, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The two exemplars serialize largest-first (20 then 10). Swapping
	// the float payloads breaks the ordering invariant.
	i := bytes.Index(b, []byte("app-a"))
	j := bytes.Index(b, []byte("app-b"))
	if i < 0 || j < 0 {
		t.Fatal("exemplar apps not found in frame")
	}
	for k := 0; k < 8; k++ {
		b[i+5+k], b[j+5+k] = b[j+5+k], b[i+5+k]
	}
	var d Sketch
	if err := d.UnmarshalBinary(b); err == nil {
		t.Error("unsorted exemplar section decoded without error")
	}
}

// TestExemplarEdgeValues: NaN is dropped entirely, negative values clamp
// to zero (consistent with Sketch.Add), empty app still counts.
func TestExemplarEdgeValues(t *testing.T) {
	s := New(0.01)
	s.AddExemplar(math.NaN(), "nan-app", 1)
	if s.Count() != 0 || len(s.Exemplars()) != 0 {
		t.Errorf("NaN was recorded: count=%d exemplars=%v", s.Count(), s.Exemplars())
	}
	s.AddExemplar(-5, "neg-app", 2)
	if s.Count() != 1 {
		t.Fatalf("negative value dropped: count=%d", s.Count())
	}
	if ex := s.Exemplars(); len(ex) != 1 || ex[0].ValueMS != 0 {
		t.Errorf("negative value not clamped: %v", ex)
	}
}

// TestExemplarResetClears pins the ring-slot recycling contract: Reset
// empties the reservoir, and the sketch keeps collecting afterwards.
func TestExemplarResetClears(t *testing.T) {
	s := feed(genExemplars(9, 10))
	s.Reset()
	if len(s.Exemplars()) != 0 {
		t.Fatalf("Reset kept exemplars: %v", s.Exemplars())
	}
	s.AddExemplar(7, "after-reset", 1)
	if ex := s.Exemplars(); len(ex) != 1 || ex[0].App != "after-reset" {
		t.Errorf("tracking dead after Reset: %v", ex)
	}
}

// TestCountAbove checks the tail-mass counter the explain ranking uses.
func TestCountAbove(t *testing.T) {
	s := New(0.01)
	for _, v := range []float64{1, 10, 100, 1000, 10000} {
		s.Add(v)
	}
	if got := s.CountAbove(0); got != 5 {
		t.Errorf("CountAbove(0) = %d, want 5", got)
	}
	if got := s.CountAbove(999); got != 2 {
		t.Errorf("CountAbove(999) = %d, want 2", got)
	}
	if got := s.CountAbove(1e9); got != 0 {
		t.Errorf("CountAbove(1e9) = %d, want 0", got)
	}
}
