// Package attr provides the bounded heavy-hitter summaries behind the
// tail-attribution layer: space-saving top-k counters keyed by
// application or node, weighted by contributed delay. Like the digest
// sketches they sit next to, summaries are mergeable — a fleet of
// sharded ingesters can each keep its own and the aggregator combines
// them — and deterministic: contents are a function of the offered
// multiset, never of offer or merge order, as long as the number of
// distinct keys stays within capacity (the exact regime; see DESIGN.md
// for the bounded-error regime beyond it).
package attr

import (
	"slices"
	"sort"
)

// DefaultTopK is the heavy-hitter capacity used across the repo: large
// enough that test and scenario workloads stay in the exact regime,
// small enough that a fleet-wide merge stays trivially cheap.
const DefaultTopK = 32

// Entry is one heavy hitter: a key (app ID or node name) with the total
// delay milliseconds attributed to it. Err is the maximum undercount
// introduced by space-saving evictions or merge truncation; it is 0 in
// the exact regime.
type Entry struct {
	Key   string  `json:"key"`
	SumMS float64 `json:"sum_ms"`
	ErrMS float64 `json:"err_ms,omitempty"`
}

// TopK is a space-saving (Metwally et al.) heavy-hitter summary over a
// weighted key stream. Not safe for concurrent use.
//
// Entries live in a binary min-heap under entryLess, indexed by key, so
// an offer at capacity finds and replaces the minimum in O(log cap)
// instead of scanning every entry. Both grow as keys arrive: a summary
// nothing was offered to holds neither.
type TopK struct {
	cap  int
	heap []Entry
	idx  map[string]int // key -> position in heap; nil until the first key
}

// NewTopK returns an empty summary holding at most cap keys (cap <= 0
// uses DefaultTopK).
func NewTopK(cap int) *TopK {
	if cap <= 0 {
		cap = DefaultTopK
	}
	return &TopK{cap: cap}
}

// Cap returns the summary's key capacity.
func (t *TopK) Cap() int { return t.cap }

// Len returns the number of keys currently tracked.
func (t *TopK) Len() int { return len(t.heap) }

// Offer attributes amount (delay ms, clamped at 0) to key. While
// distinct keys fit within capacity this is an exact per-key sum; at
// capacity the minimum entry is evicted space-saving style — the new
// key inherits the evicted sum as its error bound — so the true top
// keys by weight are retained within a bounded undercount.
func (t *TopK) Offer(key string, amount float64) {
	if key == "" {
		return
	}
	if amount < 0 {
		amount = 0
	}
	if i, ok := t.idx[key]; ok {
		t.heap[i].SumMS += amount
		t.down(i)
		return
	}
	if t.idx == nil {
		t.idx = make(map[string]int)
	}
	if len(t.heap) < t.cap {
		t.heap = append(t.heap, Entry{Key: key, SumMS: amount})
		t.up(len(t.heap) - 1)
		return
	}
	// Evict the heap's root, the minimum under entryLess — the mirror of
	// the reporting order, so eviction choice is deterministic too.
	min := t.heap[0]
	delete(t.idx, min.Key)
	t.heap[0] = Entry{Key: key, SumMS: min.SumMS + amount, ErrMS: min.SumMS}
	t.down(0)
}

// entryLess orders entries lightest first (SumMS asc, Key desc on ties):
// the reverse of the reporting order, so the heap's root is the entry
// reported last.
func entryLess(a, b Entry) bool {
	if a.SumMS != b.SumMS {
		return a.SumMS < b.SumMS
	}
	return a.Key > b.Key
}

// The sifts move a hole rather than swapping entries, so each entry
// they pass is written, with its index, once, and the sifted entry once,
// where the hole stops: Offer runs in the completion hook, which
// serializes every shard.

// up restores the heap order after an entry was appended at i, and
// indexes it.
func (t *TopK) up(i int) {
	h := t.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		t.idx[h[i].Key] = i
		i = p
	}
	h[i] = e
	t.idx[e.Key] = i
}

// down restores the heap order after the entry at i got heavier or was
// replaced, and indexes it.
func (t *TopK) down(i int) {
	h := t.heap
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && entryLess(h[r], h[c]) {
			c = r
		}
		if !entryLess(h[c], e) {
			break
		}
		h[i] = h[c]
		t.idx[h[i].Key] = i
		i = c
	}
	h[i] = e
	t.idx[e.Key] = i
}

// Merge folds other into t: per-key sums and error bounds add, then the
// union is truncated back to capacity keeping the largest entries. The
// receiving capacity grows to the larger of the two. Below capacity the
// merge is exact and order-insensitive; beyond it, truncation keeps the
// deterministic top entries.
func (t *TopK) Merge(other *TopK) {
	if other == nil {
		return
	}
	if other.cap > t.cap {
		t.cap = other.cap
	}
	if t.idx == nil && len(other.heap) > 0 {
		t.idx = make(map[string]int, len(other.heap))
	}
	for _, oe := range other.heap {
		if i, ok := t.idx[oe.Key]; ok {
			t.heap[i].SumMS += oe.SumMS
			t.heap[i].ErrMS += oe.ErrMS
		} else {
			t.idx[oe.Key] = len(t.heap)
			t.heap = append(t.heap, oe)
		}
	}
	es := t.Entries()
	if len(es) > t.cap {
		es = es[:t.cap]
	}
	// Rebuild the heap from es, sorted heaviest first. Read in reverse,
	// that order is a valid min-heap: each entry is lighter than every
	// entry after it, its children among them.
	clear(t.idx)
	t.heap = t.heap[:0]
	for i := len(es) - 1; i >= 0; i-- {
		t.idx[es[i].Key] = len(t.heap)
		t.heap = append(t.heap, es[i])
	}
}

// Clone returns an independent deep copy.
func (t *TopK) Clone() *TopK {
	c := NewTopK(t.cap)
	if len(t.heap) == 0 {
		return c
	}
	c.heap = slices.Clone(t.heap)
	c.idx = make(map[string]int, len(c.heap))
	for i, e := range c.heap {
		c.idx[e.Key] = i
	}
	return c
}

// Entries returns the tracked keys sorted heaviest first (SumMS desc,
// Key asc on ties).
func (t *TopK) Entries() []Entry {
	out := slices.Clone(t.heap)
	sort.Slice(out, func(i, j int) bool {
		if out[i].SumMS != out[j].SumMS {
			return out[i].SumMS > out[j].SumMS
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Top returns up to n heaviest entries.
func (t *TopK) Top(n int) []Entry {
	es := t.Entries()
	if n >= 0 && len(es) > n {
		es = es[:n]
	}
	return es
}
