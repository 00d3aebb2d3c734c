package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 < p < 100) of an ascending
// slice by the nearest-rank rule: the smallest sample with at least p %
// of the samples at or below it. NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle sample of xs (the mean of the two middle
// ones for an even count). NaN for an empty slice.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hiPercentiles are the tail percentiles highPercentile chooses from.
var hiPercentiles = []float64{99.99, 99.9, 99, 95, 90}

// highPercentile returns the highest of hiPercentiles that still has
// at least ten samples beyond it, and its value; ok is false when even
// p90 has fewer (under 100 samples).
func highPercentile(sorted []float64) (pct, value float64, ok bool) {
	n := float64(len(sorted))
	for _, p := range hiPercentiles {
		if n*(100-p)/100 >= 10 {
			return p, percentile(sorted, p), true
		}
	}
	return 0, 0, false
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the driver's repeatability check uses. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// fastest returns the mean of the better eighth of xs, rounded up to
// whole samples and at least two of them: the lowest values where lower
// is better, the highest where higher is. NaN for an empty slice.
func fastest(xs []float64, better string) float64 {
	s := sortedCopy(xs)
	n := max((len(s)+7)/8, 2)
	if n > len(s) {
		n = len(s)
	}
	if n == 0 {
		return math.NaN()
	}
	if better == "higher" {
		s = s[len(s)-n:]
	}
	sum := 0.0
	for _, x := range s[:n] {
		sum += x
	}
	return sum / float64(n)
}
