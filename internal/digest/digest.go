// Package digest implements a mergeable quantile sketch for delay
// distributions: a fixed-relative-precision, log-bucketed histogram in
// the style of DDSketch ("Computing quantiles with relative-error
// guarantees"). It is the aggregation substrate behind cluster-level
// percentile tables and SLO evaluation.
//
// Model: non-negative observations (delays in milliseconds) are counted
// into geometrically spaced buckets. Bucket i covers (gamma^(i-1),
// gamma^i] with gamma = (1+alpha)/(1-alpha); reporting the geometric
// bucket midpoint guarantees a RELATIVE error of at most alpha for every
// quantile:
//
//	|Quantile(p) - exact_p| <= alpha * exact_p
//
// Values in [0, 1) land in a dedicated zero bucket reported as 0 (a
// sub-millisecond delay is "zero" at log4j's 1 ms precision); negative
// values are clamped into it too, so degraded inputs cannot corrupt the
// sketch. Merging sketches of equal alpha is exact bucket-wise addition:
// Merge(a, b) yields bit-for-bit the sketch that would have resulted from
// adding both input streams to one sketch, so sharded runs can be
// combined in any order or grouping without widening the error bound.
//
// Sketches are NOT safe for concurrent use; callers that share one
// across goroutines must lock (internal/slo does).
package digest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// DefaultAlpha is the relative accuracy used across the repo: 1%
// error on any quantile, ~275 buckets per decade-spanning component.
const DefaultAlpha = 0.01

// Sketch is one mergeable quantile sketch. The zero value is unusable;
// call New.
type Sketch struct {
	alpha    float64
	gamma    float64
	invLnGam float64 // 1/ln(gamma), cached for Add's hot path

	buckets map[int32]uint64 // log-indexed counts, sparse
	zero    uint64           // observations < 1 (incl. clamped negatives)
	count   uint64
	sum     float64
	min     float64
	max     float64

	ex []Exemplar // tail-biased reservoir (see exemplar.go), sorted by exemplarLess
}

// New returns an empty sketch with the given relative accuracy alpha
// (0 < alpha < 1). Use DefaultAlpha unless a caller needs a documented
// different bound.
func New(alpha float64) *Sketch {
	if !(alpha > 0 && alpha < 1) {
		panic(fmt.Sprintf("digest: alpha %v out of (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:    alpha,
		gamma:    gamma,
		invLnGam: 1 / math.Log(gamma),
		buckets:  make(map[int32]uint64),
		min:      math.Inf(1),
		max:      math.Inf(-1),
	}
}

// Alpha returns the sketch's relative accuracy.
func (s *Sketch) Alpha() float64 { return s.alpha }

// key maps a value >= 1 to its bucket index: the smallest i with
// gamma^i >= v.
func (s *Sketch) key(v float64) int32 {
	return int32(math.Ceil(math.Log(v) * s.invLnGam))
}

// value maps a bucket index back to the bucket's midpoint: the
// representative with relative error <= alpha for every value the bucket
// covers.
func (s *Sketch) value(k int32) float64 {
	return 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1)
}

// Add records one observation.
func (s *Sketch) Add(v float64) { s.AddN(v, 1) }

// AddN records n identical observations (n == 0 is a no-op).
func (s *Sketch) AddN(v float64, n uint64) {
	if n == 0 {
		return
	}
	if math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	if v < 1 {
		s.zero += n
	} else {
		s.buckets[s.key(v)] += n
	}
	s.count += n
	s.sum += v * float64(n)
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

// Count returns the number of observations.
func (s *Sketch) Count() uint64 { return s.count }

// Sum returns the sum of all observations (exact, not bucketed).
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 on an empty sketch.
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the smallest observation (exact), or 0 on an empty sketch.
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (exact), or 0 on an empty sketch.
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Quantile returns the value at rank p in [0,1] (p50 = Quantile(0.5)),
// within relative error alpha. Out-of-range p is clamped; an empty
// sketch yields 0. The returned value is additionally clamped into
// [Min, Max], which are tracked exactly.
func (s *Sketch) Quantile(p float64) float64 {
	if s.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// Rank of the target observation, 1-based, nearest-rank definition.
	rank := uint64(math.Ceil(p * float64(s.count)))
	if rank == 0 {
		rank = 1
	}
	var out float64
	if rank <= s.zero {
		out = 0
	} else {
		keys := s.sortedKeys()
		cum := s.zero
		out = s.max // fall through only on float accumulation quirks
		for _, k := range keys {
			cum += s.buckets[k]
			if cum >= rank {
				out = s.value(k)
				break
			}
		}
	}
	if out < s.min {
		out = s.min
	}
	if out > s.max {
		out = s.max
	}
	return out
}

// CountAbove returns how many observations were recorded at or above v,
// at bucket granularity: a bucket contributes when its representative
// value is >= v, so the answer carries the same relative-error bound as
// Quantile. v <= 0 counts everything.
func (s *Sketch) CountAbove(v float64) uint64 {
	if v <= 0 {
		return s.count
	}
	var n uint64
	for k, c := range s.buckets {
		if s.value(k) >= v {
			n += c
		}
	}
	return n
}

func (s *Sketch) sortedKeys() []int32 {
	keys := make([]int32, 0, len(s.buckets))
	for k := range s.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Merge folds other into s (other is unchanged). Sketches must share the
// same alpha — merging differently-bucketed sketches has no error bound,
// so it is refused.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil || other.count == 0 {
		return nil
	}
	if other.alpha != s.alpha {
		return fmt.Errorf("digest: cannot merge alpha=%v into alpha=%v", other.alpha, s.alpha)
	}
	for k, n := range other.buckets {
		s.buckets[k] += n
	}
	s.zero += other.zero
	s.count += other.count
	s.sum += other.sum
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.mergeExemplars(other)
	return nil
}

// Clone returns an independent deep copy.
func (s *Sketch) Clone() *Sketch {
	c := *s
	c.buckets = make(map[int32]uint64, len(s.buckets))
	for k, n := range s.buckets {
		c.buckets[k] = n
	}
	if s.ex != nil {
		c.ex = make([]Exemplar, len(s.ex))
		copy(c.ex, s.ex)
	}
	return &c
}

// Reset empties the sketch and its exemplar reservoir, keeping its
// accuracy.
func (s *Sketch) Reset() {
	s.buckets = make(map[int32]uint64)
	s.zero = 0
	s.count = 0
	s.sum = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
	s.ex = nil
}

// Serialization: a compact binary frame so per-shard sketches can be
// shipped and merged. Layout (all multi-byte values little-endian or
// varint):
//
//	magic "dg2" (3 bytes)
//	alpha    float64 bits (8 bytes)
//	zero     uvarint
//	count    uvarint
//	sum      float64 bits (8 bytes)
//	min,max  float64 bits (8+8 bytes, only when count > 0)
//	nbuckets uvarint
//	then per bucket, keys strictly ascending: key delta (varint from
//	previous key, > 0 after the first), count (uvarint, > 0)
//	exemplar section (see exemplar.go)
//
// Delta-encoding the sorted keys keeps real sketches (dense runs of
// adjacent buckets) to ~2 bytes per bucket.

var magic = []byte("dg2")

// MarshalBinary serializes the sketch.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 32+3*len(s.buckets))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.alpha))
	buf = binary.AppendUvarint(buf, s.zero)
	buf = binary.AppendUvarint(buf, s.count)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.sum))
	if s.count > 0 {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.min))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.max))
	}
	keys := s.sortedKeys()
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	prev := int64(0)
	for _, k := range keys {
		buf = binary.AppendVarint(buf, int64(k)-prev)
		buf = binary.AppendUvarint(buf, s.buckets[k])
		prev = int64(k)
	}
	buf = appendExemplarSection(buf, s)
	return buf, nil
}

// ErrCorrupt reports an undecodable sketch frame.
var ErrCorrupt = errors.New("digest: corrupt sketch encoding")

// UnmarshalBinary decodes a frame produced by MarshalBinary, replacing
// the receiver's state (including its alpha).
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < len(magic)+8 || string(data[:3]) != string(magic) {
		return ErrCorrupt
	}
	data = data[3:]
	alpha := math.Float64frombits(binary.LittleEndian.Uint64(data))
	data = data[8:]
	if !(alpha > 0 && alpha < 1) {
		return ErrCorrupt
	}
	ns := New(alpha)
	var n int
	if ns.zero, n = binary.Uvarint(data); n <= 0 {
		return ErrCorrupt
	}
	data = data[n:]
	if ns.count, n = binary.Uvarint(data); n <= 0 {
		return ErrCorrupt
	}
	data = data[n:]
	if len(data) < 8 {
		return ErrCorrupt
	}
	if ns.zero > ns.count {
		return ErrCorrupt
	}
	ns.sum = math.Float64frombits(binary.LittleEndian.Uint64(data))
	data = data[8:]
	if ns.count > 0 {
		if len(data) < 16 {
			return ErrCorrupt
		}
		ns.min = math.Float64frombits(binary.LittleEndian.Uint64(data))
		ns.max = math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
		data = data[16:]
	}
	nb, n := binary.Uvarint(data)
	if n <= 0 || nb > uint64(len(data)) { // each bucket takes >= 2 bytes
		return ErrCorrupt
	}
	data = data[n:]
	prev := int64(0)
	total := ns.zero
	for i := uint64(0); i < nb; i++ {
		delta, dn := binary.Varint(data)
		if dn <= 0 || (i > 0 && delta <= 0) {
			return ErrCorrupt
		}
		data = data[dn:]
		cnt, cn := binary.Uvarint(data)
		if cn <= 0 || cnt == 0 || cnt > ns.count-total {
			return ErrCorrupt
		}
		data = data[cn:]
		key := prev + delta
		if key < math.MinInt32 || key > math.MaxInt32 {
			return ErrCorrupt
		}
		ns.buckets[int32(key)] = cnt
		prev = key
		total += cnt
	}
	if total != ns.count {
		return ErrCorrupt
	}
	if err := decodeExemplarSection(data, ns); err != nil {
		return err
	}
	*s = *ns
	return nil
}
