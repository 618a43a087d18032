package main

import (
	"math"
	"sort"
	"time"
)

// nearestRank returns the p-quantile (0 < p <= 1) of an ascending sample by
// the nearest-rank method: the smallest value with at least a share p of the
// sample at or below it. It returns NaN for an empty sample.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	// The epsilon keeps p*n from landing a hair above an integer rank
	// (0.9*30 is 27.000000000000004 in binary floating point).
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// durationsMs converts and sorts a latency sample to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median of an unsorted sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, 0.5)
}

// share is num/den, or 0 when den is 0, so a ratio over an empty base never
// turns into NaN in the report.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
