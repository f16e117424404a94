package probe

import (
	"math"
	"sort"
)

// Median is the middle sample, or the mean of the two middle samples (0
// for an empty sample: a layer that recorded nothing took no time).
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Percentile is the nearest-rank percentile of v (p in 0..100): the
// smallest sample with at least p percent of the samples at or below it,
// so p95 of fewer than 20 samples is the maximum. An empty sample gives 0.
func Percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

// Ratio is a/b, or 0 when b is 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
