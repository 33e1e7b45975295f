package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must rank above a reported tail
// percentile: a tail read off fewer samples than this is one outlier.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rankOf is the nearest-rank index (1-based) of percentile q in n samples.
func rankOf(q float64, n int) int {
	r := int(math.Ceil(q / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile is the nearest-rank q-th percentile of ascending samples.
func percentile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[rankOf(q, len(asc))-1]
}

// median of xs (any order); 0 for none.
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

// mean of xs; 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentile returns the highest whole percentile, at most want, that
// still has at least minBeyond samples ranked beyond it, with its value.
// With 95 re-score samples a requested p90 comes back as p89 (86th of 95
// has only 9 beyond it). ok is false when even the median has fewer than
// minBeyond samples beyond it; the caller then has no tail to report.
func tailPercentile(xs []float64, want int) (pct int, value float64, ok bool) {
	asc := sorted(xs)
	n := len(asc)
	for q := want; q >= 50; q-- {
		if n-rankOf(float64(q), n) >= minBeyond {
			return q, asc[rankOf(float64(q), n)-1], true
		}
	}
	return 0, 0, false
}
