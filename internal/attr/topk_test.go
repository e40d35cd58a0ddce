package attr

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestTopKExactBelowCapacity: under capacity the summary is exact — every
// key's true contribution, zero error, sorted by contribution.
func TestTopKExactBelowCapacity(t *testing.T) {
	k := NewTopK(4)
	k.Offer("b", 10)
	k.Offer("a", 5)
	k.Offer("b", 7)
	k.Offer("c", 30)
	got := k.Entries()
	want := []Entry{{Key: "c", SumMS: 30}, {Key: "b", SumMS: 17}, {Key: "a", SumMS: 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Entries() = %+v, want %+v", got, want)
	}
	for _, e := range got {
		if e.ErrMS != 0 {
			t.Errorf("exact regime has error bound %+v", e)
		}
	}
}

// TestTopKEviction: over capacity the space-saving rule applies — the
// minimum entry is evicted, the newcomer inherits its sum as both floor
// and error bound, and the structure never exceeds its capacity.
func TestTopKEviction(t *testing.T) {
	k := NewTopK(2)
	k.Offer("a", 100)
	k.Offer("b", 10)
	k.Offer("c", 5) // evicts b(10): c enters at 10+5 with err 10
	if k.Len() != 2 {
		t.Fatalf("Len = %d, want 2", k.Len())
	}
	got := k.Entries()
	want := []Entry{{Key: "a", SumMS: 100}, {Key: "c", SumMS: 15, ErrMS: 10}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Entries() = %+v, want %+v", got, want)
	}
}

// TestTopKOfferEdgeCases: empty keys are dropped, negative amounts clamp
// to zero (an app cannot remove delay mass).
func TestTopKOfferEdgeCases(t *testing.T) {
	k := NewTopK(4)
	k.Offer("", 50)
	if k.Len() != 0 {
		t.Fatal("empty key was admitted")
	}
	k.Offer("a", -5)
	if got := k.Entries(); len(got) != 1 || got[0].SumMS != 0 {
		t.Errorf("negative amount not clamped: %+v", got)
	}
}

// TestTopKMergeOrderInsensitive: in the exact regime (distinct keys ≤
// capacity) any partition of the offers into shards, merged in any
// order, yields identical entries — the worker-count invariant.
func TestTopKMergeOrderInsensitive(t *testing.T) {
	type offer struct {
		key string
		amt float64
	}
	var offers []offer
	seed := uint64(99)
	for i := 0; i < 100; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		offers = append(offers, offer{
			key: fmt.Sprintf("app_%02d", seed%20),
			amt: float64(seed % 10_000),
		})
	}
	ref := NewTopK(32)
	for _, o := range offers {
		ref.Offer(o.key, o.amt)
	}
	for _, parts := range []int{2, 3, 5} {
		shards := make([]*TopK, parts)
		for i := range shards {
			shards[i] = NewTopK(32)
		}
		for i, o := range offers {
			shards[i%parts].Offer(o.key, o.amt)
		}
		for _, reversed := range []bool{false, true} {
			m := NewTopK(32)
			for i := range shards {
				j := i
				if reversed {
					j = parts - 1 - i
				}
				m.Merge(shards[j].Clone())
			}
			if !reflect.DeepEqual(m.Entries(), ref.Entries()) {
				t.Errorf("parts=%d reversed=%v: merged entries diverge from serial\n got %+v\nwant %+v",
					parts, reversed, m.Entries(), ref.Entries())
			}
		}
	}
}

// TestTopKMergeBounded: merging two full summaries stays within the
// larger capacity and keeps the heaviest keys.
func TestTopKMergeBounded(t *testing.T) {
	a, b := NewTopK(2), NewTopK(2)
	a.Offer("x", 100)
	a.Offer("y", 50)
	b.Offer("z", 200)
	b.Offer("x", 30)
	a.Merge(b)
	if a.Len() > 2 {
		t.Fatalf("merge exceeded capacity: %d", a.Len())
	}
	got := a.Entries()
	want := []Entry{{Key: "z", SumMS: 200}, {Key: "x", SumMS: 130}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Entries() = %+v, want %+v", got, want)
	}
}

// TestTopKCloneIndependent: mutating a clone must not leak back.
func TestTopKCloneIndependent(t *testing.T) {
	a := NewTopK(4)
	a.Offer("x", 10)
	c := a.Clone()
	c.Offer("x", 90)
	if got := a.Entries()[0].SumMS; got != 10 {
		t.Errorf("clone mutation leaked into original: %v", got)
	}
}

// TestTopKEmptyIsLazy: a new summary allocates only its header, and
// an empty one clones, merges and is merged into like a filled one.
func TestTopKEmptyIsLazy(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = NewTopK(0) }); n > 1 {
		t.Errorf("NewTopK allocates %.0f times, want 1 (the header)", n)
	}
	full := NewTopK(4)
	full.Offer("x", 10)
	full.Offer("y", 5)
	want := full.Entries()

	into := NewTopK(2)
	into.Merge(full)
	if got := into.Entries(); !reflect.DeepEqual(got, want) || into.Cap() != 4 {
		t.Errorf("empty.Merge(full) = %+v cap %d, want %+v cap 4", got, into.Cap(), want)
	}
	full.Merge(NewTopK(8))
	if got := full.Entries(); !reflect.DeepEqual(got, want) || full.Cap() != 8 {
		t.Errorf("full.Merge(empty) = %+v cap %d, want %+v cap 8", got, full.Cap(), want)
	}
	c := NewTopK(4).Clone()
	c.Offer("z", 1)
	c.Merge(c.Clone())
	if got := c.Entries(); !reflect.DeepEqual(got, []Entry{{Key: "z", SumMS: 2}}) {
		t.Errorf("offers to a clone of an empty summary = %+v", got)
	}
}

// TestTopKTop truncates without mutating.
func TestTopKTop(t *testing.T) {
	k := NewTopK(8)
	for i, key := range []string{"a", "b", "c", "d"} {
		k.Offer(key, float64(10*(i+1)))
	}
	top := k.Top(2)
	want := []Entry{{Key: "d", SumMS: 40}, {Key: "c", SumMS: 30}}
	if !reflect.DeepEqual(top, want) {
		t.Errorf("Top(2) = %+v, want %+v", top, want)
	}
	if k.Len() != 4 {
		t.Errorf("Top mutated the summary: %d", k.Len())
	}
}

// TestTopKDefaultCap: non-positive capacities fall back to DefaultTopK.
func TestTopKDefaultCap(t *testing.T) {
	if got := NewTopK(0).Cap(); got != DefaultTopK {
		t.Errorf("NewTopK(0).Cap() = %d, want %d", got, DefaultTopK)
	}
}

// mapTopK is the map-backed summary TopK's heap replaced: each offer at
// capacity scans every entry for the minimum. It is the reference for
// TestTopKHeapMatchesMapScan.
type mapTopK struct {
	cap int
	m   map[string]*Entry
}

func (t *mapTopK) offer(key string, amount float64) {
	if key == "" {
		return
	}
	if amount < 0 {
		amount = 0
	}
	if e := t.m[key]; e != nil {
		e.SumMS += amount
		return
	}
	if len(t.m) < t.cap {
		t.m[key] = &Entry{Key: key, SumMS: amount}
		return
	}
	var min *Entry
	for _, e := range t.m {
		if min == nil || e.SumMS < min.SumMS || (e.SumMS == min.SumMS && e.Key > min.Key) {
			min = e
		}
	}
	delete(t.m, min.Key)
	t.m[key] = &Entry{Key: key, SumMS: min.SumMS + amount, ErrMS: min.SumMS}
}

func (t *mapTopK) merge(o *mapTopK) {
	if o.cap > t.cap {
		t.cap = o.cap
	}
	for k, oe := range o.m {
		if e := t.m[k]; e != nil {
			e.SumMS += oe.SumMS
			e.ErrMS += oe.ErrMS
		} else {
			t.m[k] = &Entry{Key: k, SumMS: oe.SumMS, ErrMS: oe.ErrMS}
		}
	}
	if len(t.m) > t.cap {
		es := t.entries()
		for _, e := range es[t.cap:] {
			delete(t.m, e.Key)
		}
	}
}

func (t *mapTopK) entries() []Entry {
	out := make([]Entry, 0, len(t.m))
	for _, e := range t.m {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SumMS != out[j].SumMS {
			return out[i].SumMS > out[j].SumMS
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// TestTopKHeapMatchesMapScan is the differential test for the heap:
// random offers, many times the capacity in distinct keys, with small
// integer amounts so sums tie and the Key tie-break decides evictions,
// and occasional merges of a second summary, must leave exactly the
// entries the map-scanning summary leaves, after every operation.
func TestTopKHeapMatchesMapScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 100; iter++ {
		capacity := 1 + rng.Intn(8)
		if iter%4 == 0 {
			capacity = DefaultTopK
		}
		keys := capacity * (2 + rng.Intn(6))
		got, want := NewTopK(capacity), &mapTopK{cap: capacity, m: map[string]*Entry{}}
		for op := 0; op < 20*capacity; op++ {
			if rng.Intn(50) == 0 {
				oc := 1 + rng.Intn(2*capacity)
				o, ow := NewTopK(oc), &mapTopK{cap: oc, m: map[string]*Entry{}}
				for i := rng.Intn(3 * oc); i > 0; i-- {
					k, amt := fmt.Sprintf("k%03d", rng.Intn(keys)), float64(rng.Intn(5))
					o.Offer(k, amt)
					ow.offer(k, amt)
				}
				got.Merge(o)
				want.merge(ow)
			} else {
				k, amt := fmt.Sprintf("k%03d", rng.Intn(keys)), float64(rng.Intn(5)-1)
				got.Offer(k, amt)
				want.offer(k, amt)
			}
			if g, w := got.Entries(), want.entries(); !reflect.DeepEqual(g, w) {
				t.Fatalf("iteration %d, cap %d, op %d: heap %+v\nmap  %+v", iter, capacity, op, g, w)
			}
		}
	}
}

// BenchmarkTopKOfferAtCapacity offers mostly new keys to a full default
// summary: the eviction path the completion hook's breakdown runs.
func BenchmarkTopKOfferAtCapacity(b *testing.B) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("application_1499000000000_%04d", i)
	}
	t := NewTopK(DefaultTopK)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		t.Offer(keys[i%len(keys)], float64(i%97))
	}
}
