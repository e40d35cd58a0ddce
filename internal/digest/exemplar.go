package digest

import (
	"encoding/binary"
	"math"
)

// Exemplar links one concrete observation back to the application that
// produced it: the Prometheus-exemplar idea applied to delay sketches.
// Every sketch keeps a bounded, tail-biased reservoir of them — the
// MaxExemplars largest observations offered through AddExemplar, under a
// total order that makes every reservoir operation deterministic — so an
// aggregated quantile cell can always answer "which apps put mass
// here".
type Exemplar struct {
	App     string  `json:"app"`
	ValueMS float64 `json:"value_ms"`
	AtMS    int64   `json:"at_ms"`
}

// MaxExemplars is every sketch's reservoir size: enough to name the
// worst offenders of a cell without letting drill-down state dominate
// sketch memory.
const MaxExemplars = 8

// exemplarLess is the reservoir's total order: larger values first
// (tail bias), then App and AtMS ascending so equal-valued exemplars
// still order deterministically.
func exemplarLess(a, b Exemplar) bool {
	if a.ValueMS != b.ValueMS {
		return a.ValueMS > b.ValueMS
	}
	if a.App != b.App {
		return a.App < b.App
	}
	return a.AtMS < b.AtMS
}

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

// AddExemplar records one observation and offers it to the reservoir.
// NaN values are dropped like Add does; negative values clamp to 0 in
// both the histogram and the exemplar.
func (s *Sketch) AddExemplar(v float64, app string, atMS int64) {
	if math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	s.Add(v)
	s.offer(Exemplar{App: app, ValueMS: v, AtMS: atMS})
}

// offer inserts e into the sorted reservoir, keeping the top MaxExemplars
// entries under exemplarLess. Keeping exactly the K greatest elements
// of the multiset of offered exemplars makes the reservoir's contents
// a function of the offered SET alone — insertion order, grouping, and
// merge order cannot change it, which is what makes sharded merges
// byte-identical.
func (s *Sketch) offer(e Exemplar) {
	// Find insertion point in the sorted slice (small K, linear is fine
	// and branch-predictable; most offers lose to the current minimum).
	if len(s.ex) == MaxExemplars && !exemplarLess(e, s.ex[len(s.ex)-1]) {
		return
	}
	i := len(s.ex)
	for i > 0 && exemplarLess(e, s.ex[i-1]) {
		i--
	}
	s.ex = append(s.ex, Exemplar{})
	copy(s.ex[i+1:], s.ex[i:])
	s.ex[i] = e
	if len(s.ex) > MaxExemplars {
		s.ex = s.ex[:MaxExemplars]
	}
}

// mergeExemplars folds other's reservoir into s as part of Merge: the
// result holds the top MaxExemplars of the union — commutative and
// associative by the same top-K-of-multiset argument as offer.
func (s *Sketch) mergeExemplars(other *Sketch) {
	for _, e := range other.ex {
		s.offer(e)
	}
}

// Exemplar frame section, the tail of every MarshalBinary frame after
// the bucket list:
//
//	n        uvarint (held exemplars, <= MaxExemplars and <= count)
//	then per exemplar, largest first: app (uvarint len + bytes), value
//	float64 bits, atMS varint

func appendExemplarSection(buf []byte, s *Sketch) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s.ex)))
	for _, e := range s.ex {
		buf = binary.AppendUvarint(buf, uint64(len(e.App)))
		buf = append(buf, e.App...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.ValueMS))
		buf = binary.AppendVarint(buf, e.AtMS)
	}
	return buf
}

func decodeExemplarSection(data []byte, s *Sketch) error {
	cnt, n := binary.Uvarint(data)
	if n <= 0 || cnt > MaxExemplars || cnt > s.count {
		return ErrCorrupt
	}
	data = data[n:]
	if cnt > 0 {
		s.ex = make([]Exemplar, 0, cnt)
	}
	for i := uint64(0); i < cnt; i++ {
		var e Exemplar
		l, n := binary.Uvarint(data)
		if n <= 0 || l > uint64(len(data)-n) {
			return ErrCorrupt
		}
		e.App = string(data[n : n+int(l)])
		data = data[n+int(l):]
		if len(data) < 8 {
			return ErrCorrupt
		}
		e.ValueMS = math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		// AddExemplar never holds NaN or a negative value, and NaN
		// would make the sortedness check below meaningless.
		if !(e.ValueMS >= 0) {
			return ErrCorrupt
		}
		if e.AtMS, n = binary.Varint(data); n <= 0 {
			return ErrCorrupt
		}
		data = data[n:]
		if i > 0 && exemplarLess(e, s.ex[i-1]) {
			return ErrCorrupt // must be sorted, largest first
		}
		s.ex = append(s.ex, e)
	}
	if len(data) != 0 {
		return ErrCorrupt
	}
	return nil
}
