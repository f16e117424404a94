package main

import (
	"math"
	"sort"

	"repro/bench/probe"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// acceptance check of the benchmark contract uses. Fewer than two samples
// give the sample itself.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4 on a 1-based scale; like Python, the index
		// is clamped before the weight is taken, so tiny samples
		// extrapolate from the nearest pair.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - 4*j
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median — the
// quantity the contract bounds for every end-to-end metric.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(probe.Median(v))
}

// tailCandidates are the percentiles a latency report may quote.
var tailCandidates = []float64{50, 75, 90, 95, 99, 99.9}

// highestTail picks the highest candidate percentile that still has at
// least ten samples beyond it, so a quoted tail is never one or two
// outliers. ok is false when even the median has fewer than ten samples
// beyond it (n < 20).
func highestTail(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		// n·(100−c)/100 ≥ 10, with slack for 100−99.9 not being 0.1.
		if float64(n)*(100-c) >= 1000-1e-6 {
			p, ok = c, true
		}
	}
	return p, ok
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
