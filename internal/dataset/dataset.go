// Package dataset provides the paper's data-distribution machinery: the
// local-skewness statistic of Definition 3 and generators for the four
// evaluation datasets
// (UDEN, OSMC, LOGN, FACE) plus the variable-skewness cluster generator used
// by the Fig. 9 experiment.
//
// The paper's OSMC and FACE datasets derive from OpenStreetMap and Facebook
// dumps that are not redistributable; the generators here are synthetic
// equivalents calibrated so their measured local skewness matches the values
// the paper reports (π/4, 2π/5, 12π/25, and 99π/200 respectively) — lsn is
// the paper's own measure of "how locally skewed", so matching it exercises
// the same index code paths.
package dataset

import (
	"math"
	"sort"
)

// LocalSkewness computes the lsn statistic of Definition 3 over a sorted
// dataset:
//
//	lsn = arctan( 1/(n−1)² · Σ_{i=1..n−1} (Mk−mk)/(k_i − k_{i−1}) )
//
// The result lies in [π/4, π/2): exactly π/4 for evenly spaced keys and
// approaching π/2 as local regions become arbitrarily dense. Datasets with
// fewer than two distinct keys have no gaps to measure; LocalSkewness
// returns π/4 for them.
func LocalSkewness(sorted []uint64) float64 {
	n := len(sorted)
	if n < 2 {
		return math.Pi / 4
	}
	span := float64(sorted[n-1] - sorted[0])
	if span == 0 {
		return math.Pi / 4
	}
	sum := 0.0
	for i := 1; i < n; i++ {
		gap := float64(sorted[i] - sorted[i-1])
		if gap <= 0 {
			// Duplicate keys are excluded by the problem statement; treat a
			// zero gap as the minimum representable gap to stay finite.
			gap = 1
		}
		sum += span / gap
	}
	nm1 := float64(n - 1)
	return math.Atan(sum / (nm1 * nm1))
}

// SortDedup sorts keys ascending and removes duplicates in place, returning
// the compacted slice. Generators use it to satisfy the unique-key contract.
func SortDedup(keys []uint64) []uint64 {
	if len(keys) == 0 {
		return keys
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w := 1
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[w-1] {
			keys[w] = keys[i]
			w++
		}
	}
	return keys[:w]
}
