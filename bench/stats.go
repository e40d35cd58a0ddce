package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 over 300 samples is the third-largest value
// and moves with every run.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the two middle values for
// an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs, refusing when
// fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	if !(p > 0 && p < 1) {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", p)
	}
	// rank is 1-based; the tolerance keeps 0.9*100 at rank 90.
	rank := int(math.Ceil(p*float64(len(xs)) - 1e-9))
	if beyond := len(xs) - rank; rank < 1 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples give %d",
			p*100, minBeyond, len(xs), beyond)
	}
	return sorted(xs)[rank-1], nil
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) (method "exclusive") computes them, so
// spreads printed here match spreads computed from the printed values.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return 0, 0, false
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3), true
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise the comparator holds against a metric's bound.
func spread(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}
