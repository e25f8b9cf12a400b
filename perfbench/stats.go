package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spread this program reports is the one the benchmark's bounds are
// checked against. Fewer than two values give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's integer arithmetic, clamp included: near the ends of
		// a short sample the clamped index makes delta step outside
		// [0, 4], which extrapolates exactly as Python does.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest value with at least a fraction p of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// tailOK reports whether xs has at least minBeyond samples strictly above
// its nearest-rank p-quantile's rank, the condition under which a reported
// percentile rests on enough tail samples to be repeatable.
func tailOK(n int, p float64, minBeyond int) bool {
	if n == 0 {
		return false
	}
	rank := int(math.Ceil(p * float64(n)))
	return n-rank >= minBeyond
}

// minSamplesFor is the smallest sample count for which the p-quantile has
// at least minBeyond samples beyond it.
func minSamplesFor(p float64, minBeyond int) int {
	n := 1
	for !tailOK(n, p, minBeyond) {
		n++
	}
	return n
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
