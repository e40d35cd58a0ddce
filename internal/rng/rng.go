// Package rng provides seeded random distributions used by the latency
// models of the simulated cluster. All sources are deterministic: a Source
// built from the same seed produces the same stream, which keeps whole
// simulation runs reproducible.
//
// The generator is SplitMix64 (Steele et al., "Fast Splittable
// Pseudorandom Number Generators"), chosen over math/rand so that a seed
// can be cheaply forked per component (per node, per container) without
// correlated streams.
package rng

import "math"

// Source is a deterministic pseudorandom source. The zero value is a valid
// source seeded with 0; prefer New to make seeding explicit.
type Source struct {
	state uint64
}

// New returns a source with the given seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// State exposes the generator's current internal state. The model checker
// folds it into canonical state fingerprints: two simulation states that
// agree on all domain fields but hold different generator states must not
// be merged, because their futures diverge.
func (s *Source) State() uint64 { return s.state }

// Fork derives an independent child source from this one, keyed by id.
// Forking with the same id twice yields the same child; distinct ids yield
// decorrelated streams. The parent's state is not advanced.
func (s *Source) Fork(id uint64) *Source {
	// Mix parent state and id through one SplitMix64 round each.
	z := s.state + 0x9e3779b97f4a7c15*(id+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &Source{state: z ^ (z >> 31)}
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(s.Uint64() % uint64(n))
}

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Exp returns an exponentially distributed value with the given mean.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value (Box-Muller).
func (s *Source) Normal(mean, stddev float64) float64 {
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	return mean + stddev*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// BoundedNormal returns a normal sample clamped to [lo, hi]. It models
// latencies with a typical value and physical floor/ceiling.
func (s *Source) BoundedNormal(mean, stddev, lo, hi float64) float64 {
	v := s.Normal(mean, stddev)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// LogNormalMedian returns a log-normal sample parameterized by its median
// and the sigma of the underlying normal — more convenient for calibrating
// latency models against a paper's reported medians.
func (s *Source) LogNormalMedian(median, sigma float64) float64 {
	return median * math.Exp(s.Normal(0, sigma))
}

// Pareto returns a Pareto-distributed value with scale xm and shape alpha.
// Used for heavy-tailed components (Docker image loads, bursty arrivals).
func (s *Source) Pareto(xm, alpha float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Shuffle permutes the integers [0, n) in place notification order.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
