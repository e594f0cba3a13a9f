// Package pla builds ε-bounded piecewise linear approximations of a sorted
// key array's rank function (its CDF), the primitive underneath the PGM,
// DILI, and FINEdex baselines. Build uses the one-pass shrinking-cone
// algorithm (FITing-Tree): it maintains the feasible slope interval of the
// current segment and closes the segment when a point empties it, giving
// O(n) construction with the guarantee |Predict(k) − rank(k)| ≤ ε for every
// indexed key. (PGM's convex-hull variant produces the minimum number of
// segments; the cone is within a small constant of it and is the standard
// practical choice.)
package pla

// Segment is one linear piece: rank(k) ≈ Start + Slope·(k − FirstKey) for
// keys in [FirstKey, next segment's FirstKey).
type Segment struct {
	FirstKey uint64
	Slope    float64
	Start    int // rank of FirstKey
	N        int // keys covered
}

// Predict returns the approximate rank of k under this segment.
func (s Segment) Predict(k uint64) int {
	return s.Start + int(s.Slope*float64(k-s.FirstKey))
}

// Build constructs segments with error bound eps over sorted unique keys.
func Build(keys []uint64, eps int) []Segment {
	if eps < 1 {
		eps = 1
	}
	var segs []Segment
	n := len(keys)
	if n == 0 {
		return segs
	}
	i := 0
	for i < n {
		first := keys[i]
		start := i
		// Feasible slope cone [loSlope, hiSlope].
		loSlope, hiSlope := 0.0, 1e308
		j := i + 1
		for ; j < n; j++ {
			dx := float64(keys[j] - first)
			dy := float64(j - start)
			// The cone is shrunk by 0.5 so the integer truncation in
			// Predict (and float rounding near the boundary) cannot push
			// the realized error past ε.
			lo := (dy - float64(eps) + 0.5) / dx
			hi := (dy + float64(eps) - 0.5) / dx
			if lo < loSlope {
				lo = loSlope
			}
			if hi > hiSlope {
				hi = hiSlope
			}
			if lo > hi {
				// The point does not fit; close the segment without letting
				// its constraints pollute the accepted cone.
				break
			}
			loSlope, hiSlope = lo, hi
		}
		slope := 0.0
		if j > i+1 {
			slope = (loSlope + hiSlope) / 2
		}
		segs = append(segs, Segment{FirstKey: first, Slope: slope, Start: start, N: j - start})
		i = j
	}
	return segs
}
