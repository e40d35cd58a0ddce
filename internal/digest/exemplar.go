package digest

import (
	"encoding/binary"
	"math"
)

// Exemplar links one concrete observation back to the application that
// produced it: the Prometheus-exemplar idea applied to delay sketches.
// A sketch with exemplar tracking enabled keeps a bounded, tail-biased
// reservoir of them — the K largest observations seen, under a total
// order that makes every reservoir operation deterministic — so an
// aggregated quantile cell can always answer "which apps put mass
// here".
//
// Shard is a free-form origin label for the future multi-ingester
// fleet (each ingester stamps its identity before shipping snapshots).
// It is deliberately NOT the in-process worker index: shard routing
// depends on the -workers count, and stamping it would break the
// byte-identical-at-any-worker-count contract.
type Exemplar struct {
	App     string  `json:"app"`
	ValueMS float64 `json:"value_ms"`
	AtMS    int64   `json:"at_ms"`
	Shard   string  `json:"shard,omitempty"`
}

// exemplarLess is the reservoir's total order: larger values first
// (tail bias), then App, AtMS, Shard ascending so equal-valued
// exemplars still order deterministically.
func exemplarLess(a, b Exemplar) bool {
	if a.ValueMS != b.ValueMS {
		return a.ValueMS > b.ValueMS
	}
	if a.App != b.App {
		return a.App < b.App
	}
	if a.AtMS != b.AtMS {
		return a.AtMS < b.AtMS
	}
	return a.Shard < b.Shard
}

// TrackExemplars enables exemplar tracking with reservoir capacity k
// (k <= 0 disables tracking and drops any held exemplars). Shrinking
// the capacity truncates the reservoir.
func (s *Sketch) TrackExemplars(k int) {
	if k <= 0 {
		s.exCap, s.ex = 0, nil
		return
	}
	s.exCap = k
	if len(s.ex) > k {
		s.ex = s.ex[:k:k]
	}
}

// ExemplarCap returns the reservoir capacity (0 = tracking disabled).
func (s *Sketch) ExemplarCap() int { return s.exCap }

// NumExemplars returns how many exemplars the reservoir holds.
func (s *Sketch) NumExemplars() int { return len(s.ex) }

// ExemplarAt returns the reservoir's i-th exemplar, largest value first,
// without copying the reservoir; i is in [0, NumExemplars()).
func (s *Sketch) ExemplarAt(i int) Exemplar { return s.ex[i] }

// Exemplars returns a copy of the reservoir, largest value first.
func (s *Sketch) Exemplars() []Exemplar {
	if len(s.ex) == 0 {
		return nil
	}
	out := make([]Exemplar, len(s.ex))
	copy(out, s.ex)
	return out
}

// AddExemplar records one observation and, when tracking is enabled,
// offers it to the reservoir. NaN values are dropped like Add does;
// negative values clamp to 0 in both the histogram and the exemplar.
func (s *Sketch) AddExemplar(v float64, app string, atMS int64, shard string) {
	if math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	s.Add(v)
	if s.exCap > 0 {
		s.offer(Exemplar{App: app, ValueMS: v, AtMS: atMS, Shard: shard})
	}
}

// offer inserts e into the sorted reservoir, keeping the top exCap
// entries under exemplarLess. Keeping exactly the K greatest elements
// of the multiset of offered exemplars makes the reservoir's contents
// a function of the offered SET alone — insertion order, grouping, and
// merge order cannot change it, which is what makes sharded merges
// byte-identical.
func (s *Sketch) offer(e Exemplar) {
	// Find insertion point in the sorted slice (small K, linear is fine
	// and branch-predictable; most offers lose to the current minimum).
	if len(s.ex) == s.exCap && !exemplarLess(e, s.ex[len(s.ex)-1]) {
		return
	}
	i := len(s.ex)
	for i > 0 && exemplarLess(e, s.ex[i-1]) {
		i--
	}
	s.ex = append(s.ex, Exemplar{})
	copy(s.ex[i+1:], s.ex[i:])
	s.ex[i] = e
	if len(s.ex) > s.exCap {
		s.ex = s.ex[:s.exCap]
	}
}

// mergeExemplars folds other's reservoir into s as part of Merge. If
// either side tracks exemplars the result tracks, at the larger of the
// two capacities, holding the top-K of the union — commutative and
// associative by the same top-K-of-multiset argument as offer.
func (s *Sketch) mergeExemplars(other *Sketch) {
	if other.exCap > s.exCap {
		s.exCap = other.exCap
	}
	if s.exCap == 0 {
		return
	}
	for _, e := range other.ex {
		s.offer(e)
	}
}

// Exemplar frame section, appended after the bucket list by
// MarshalBinary when tracking is enabled:
//
//	cap      uvarint (reservoir capacity, >= 1)
//	n        uvarint (held exemplars, <= cap)
//	then per exemplar: app (uvarint len + bytes), value float64 bits,
//	atMS varint, shard (uvarint len + bytes)
//
// A frame with no trailing section decodes with tracking disabled, so
// pre-exemplar frames and exemplar-free sketches round-trip unchanged.

const maxExemplarCap = 1 << 20 // decode sanity bound

func appendExemplarSection(buf []byte, s *Sketch) []byte {
	if s.exCap == 0 {
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(s.exCap))
	buf = binary.AppendUvarint(buf, uint64(len(s.ex)))
	for _, e := range s.ex {
		buf = binary.AppendUvarint(buf, uint64(len(e.App)))
		buf = append(buf, e.App...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.ValueMS))
		buf = binary.AppendVarint(buf, e.AtMS)
		buf = binary.AppendUvarint(buf, uint64(len(e.Shard)))
		buf = append(buf, e.Shard...)
	}
	return buf
}

func decodeExemplarSection(data []byte, s *Sketch) error {
	if len(data) == 0 {
		return nil
	}
	cap64, n := binary.Uvarint(data)
	if n <= 0 || cap64 == 0 || cap64 > maxExemplarCap {
		return ErrCorrupt
	}
	data = data[n:]
	cnt, n := binary.Uvarint(data)
	if n <= 0 || cnt > cap64 || cnt > uint64(len(data)) {
		return ErrCorrupt
	}
	data = data[n:]
	s.exCap = int(cap64)
	s.ex = make([]Exemplar, 0, cnt)
	readStr := func() (string, bool) {
		l, n := binary.Uvarint(data)
		if n <= 0 || l > uint64(len(data)-n) {
			return "", false
		}
		v := string(data[n : n+int(l)])
		data = data[n+int(l):]
		return v, true
	}
	prev := Exemplar{}
	for i := uint64(0); i < cnt; i++ {
		var e Exemplar
		var ok bool
		if e.App, ok = readStr(); !ok {
			return ErrCorrupt
		}
		if len(data) < 8 {
			return ErrCorrupt
		}
		e.ValueMS = math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		at, n := binary.Varint(data)
		if n <= 0 {
			return ErrCorrupt
		}
		e.AtMS = at
		data = data[n:]
		if e.Shard, ok = readStr(); !ok {
			return ErrCorrupt
		}
		if i > 0 && exemplarLess(e, prev) {
			return ErrCorrupt // must be sorted, largest first
		}
		s.ex = append(s.ex, e)
		prev = e
	}
	if len(data) != 0 {
		return ErrCorrupt
	}
	return nil
}
