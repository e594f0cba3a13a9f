package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps 99.9% of 1000 at rank 999, not ceil(999.0000000000001).
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

// tailPercentile is the highest of p99.9, p99 and p90 that still has at
// least ten samples beyond it, and which one that is.
func tailPercentile(sorted []uint32) (value, p float64) {
	for _, p := range []float64{99.9, 99, 90} {
		if float64(len(sorted))*(100-p)/100 >= 10 {
			return percentile(sorted, p), p
		}
	}
	return percentile(sorted, 50), 50
}

// median is the middle value of vals (mean of the two middle ones for an
// even count); 0 for an empty slice. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sortU32(s []uint32) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// ratio is num/den, 0 when den is 0 (a layer that did not run).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
