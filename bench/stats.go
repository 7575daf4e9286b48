package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for no samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// exclusive method of Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's spread is judged by. It needs at least
// two samples; with fewer both quartiles are the lone value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		v := median(xs)
		return v, v
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tailLadder is the set of percentiles a timing tail may be reported
// at, in per mille so that supportedTail compares integers.
var tailLadder = []int{999, 990, 950, 900, 800, 750, 500}

// supportedTail returns the highest percentile of tailLadder that has
// at least ten of n samples beyond it, or 0 when even the median has
// fewer.
func supportedTail(n int) float64 {
	for _, pm := range tailLadder {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 0
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
