package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error from pushing an exact rank up one
	// (99.9% of 10000 computes as 9990.0000000000006).
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 50}

// tailPercentile returns the highest percentile of tailLadder that still
// has at least ten of n samples beyond it — the highest percentile n
// samples can support — or 0 when even the median has fewer than ten.
// 368 samples support p95 (18 beyond) but not p99 (3 beyond).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 0
}
