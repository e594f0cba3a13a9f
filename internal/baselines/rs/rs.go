// Package rs implements the RadixSpline baseline: a single-pass
// error-bounded linear spline over the key CDF plus a radix table indexing
// the spline points (Table I: "RT" inner, "LIM+BS" leaf). Like the original,
// it is a static structure — the paper excludes RS from update experiments —
// so Insert and Delete return index.ErrReadOnly.
package rs

import (
	"sort"

	"chameleon/internal/index"
)

// DefaultEpsilon is the spline error bound.
const DefaultEpsilon = 32

// DefaultRadixBits sizes the radix table (2^bits entries).
const DefaultRadixBits = 16

type knot struct {
	key  uint64
	rank int
}

// Index is the RadixSpline. Construct with New.
type Index struct {
	eps    int
	rbits  uint
	keys   []uint64
	vals   []uint64
	knots  []knot
	radix  []int32 // radix[p] = first knot whose shifted key ≥ p
	shift  uint
	minKey uint64
}

var _ index.Index = (*Index)(nil)

// New creates an empty RadixSpline with error bound eps and radixBits table
// bits (0 selects the defaults).
func New(eps, radixBits int) *Index {
	if eps < 1 {
		eps = DefaultEpsilon
	}
	if radixBits < 1 || radixBits > 28 {
		radixBits = DefaultRadixBits
	}
	return &Index{eps: eps, rbits: uint(radixBits)}
}

// Name implements index.Index.
func (t *Index) Name() string { return "RS" }

// Len implements index.Index.
func (t *Index) Len() int { return len(t.keys) }

// Insert implements index.Index; RadixSpline is static.
func (t *Index) Insert(k, v uint64) error { return index.ErrReadOnly }

// Delete implements index.Index; RadixSpline is static.
func (t *Index) Delete(k uint64) error { return index.ErrReadOnly }

// BulkLoad implements index.Index: fit the spline, then build the radix
// table over the knots.
func (t *Index) BulkLoad(keys, vals []uint64) error {
	t.keys = append([]uint64(nil), keys...)
	if vals == nil {
		t.vals = append([]uint64(nil), keys...)
	} else {
		t.vals = append([]uint64(nil), vals...)
	}
	t.knots = nil
	t.radix = nil
	if len(keys) == 0 {
		return nil
	}
	t.buildSpline()
	t.buildRadix()
	return nil
}

// buildSpline greedily extends each segment as far as interpolation keeps
// every intermediate key within ±ε of its rank (galloping then bisecting, so
// construction is O(n log n) with an exact guarantee).
func (t *Index) buildSpline() {
	n := len(t.keys)
	s := 0
	t.knots = append(t.knots, knot{t.keys[0], 0})
	for s < n-1 {
		// Find the farthest end e > s with fitsSegment(s, e).
		step := 1
		e := s + 1
		for e+step < n && t.fitsSegment(s, e+step) {
			e += step
			step *= 2
		}
		// Bisect between e and min(e+step, n−1).
		hi := e + step
		if hi > n-1 {
			hi = n - 1
		}
		for e < hi {
			mid := (e + hi + 1) / 2
			if t.fitsSegment(s, mid) {
				e = mid
			} else {
				hi = mid - 1
			}
		}
		t.knots = append(t.knots, knot{t.keys[e], e})
		s = e
	}
}

// fitsSegment reports whether interpolating (keys[s],s)→(keys[e],e) keeps
// every intermediate key within the error bound.
func (t *Index) fitsSegment(s, e int) bool {
	x0, x1 := t.keys[s], t.keys[e]
	if x1 == x0 {
		return true
	}
	slope := float64(e-s) / float64(x1-x0)
	for i := s + 1; i < e; i++ {
		pred := float64(s) + slope*float64(t.keys[i]-x0)
		d := pred - float64(i)
		if d < 0 {
			d = -d
		}
		if d > float64(t.eps)-0.5 {
			return false
		}
	}
	return true
}

// buildRadix maps the top rbits of (key − minKey) to knot positions.
func (t *Index) buildRadix() {
	t.minKey = t.keys[0]
	span := t.keys[len(t.keys)-1] - t.minKey
	t.shift = 0
	for span>>t.shift >= 1<<t.rbits {
		t.shift++
	}
	size := 1 << t.rbits
	t.radix = make([]int32, size+1)
	p := 0
	for i, kn := range t.knots {
		b := int((kn.key - t.minKey) >> t.shift)
		for p <= b {
			t.radix[p] = int32(i)
			p++
		}
	}
	for ; p <= size; p++ {
		t.radix[p] = int32(len(t.knots))
	}
}

// Lookup implements index.Index: radix table → knot search → interpolation →
// ±ε bounded binary search.
func (t *Index) Lookup(k uint64) (uint64, bool) {
	n := len(t.keys)
	if n == 0 || k < t.minKey || k > t.keys[n-1] {
		return 0, false
	}
	b := (k - t.minKey) >> t.shift
	lo, hi := int(t.radix[b]), int(t.radix[b+1])
	if hi > len(t.knots) {
		hi = len(t.knots)
	}
	// Find the last knot with key ≤ k inside [lo−1, hi].
	if lo > 0 {
		lo--
	}
	i := lo + sort.Search(hi-lo, func(i int) bool { return t.knots[lo+i].key > k })
	if i > 0 {
		i--
	}
	pred := t.predict(i, k)
	pos := boundedSearch(t.keys, pred, t.eps, k)
	if pos < n && t.keys[pos] == k {
		return t.vals[pos], true
	}
	return 0, false
}

// predict interpolates k's rank between knot i and knot i+1.
func (t *Index) predict(i int, k uint64) int {
	a := t.knots[i]
	if i+1 >= len(t.knots) || t.knots[i+1].key == a.key {
		return a.rank
	}
	b := t.knots[i+1]
	slope := float64(b.rank-a.rank) / float64(b.key-a.key)
	return a.rank + int(slope*float64(k-a.key))
}

func boundedSearch(keys []uint64, pred, eps int, k uint64) int {
	lo, hi := pred-eps, pred+eps+1
	if lo < 0 {
		lo = 0
	}
	if hi > len(keys) {
		hi = len(keys)
	}
	f := func(i int) bool { return keys[i] >= k }
	if lo >= hi || (lo > 0 && f(lo-1)) || (hi < len(keys) && !f(hi)) {
		return sort.Search(len(keys), f)
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return f(lo + i) })
}

// Bytes implements index.Index.
func (t *Index) Bytes() int {
	return 16*len(t.keys) + 16*len(t.knots) + 4*len(t.radix) + 64
}

// Range implements index.RangeIndex over the static sorted array.
func (t *Index) Range(lo, hi uint64, fn func(key, val uint64) bool) {
	if hi < lo || len(t.keys) == 0 {
		return
	}
	i := sort.Search(len(t.keys), func(i int) bool { return t.keys[i] >= lo })
	for ; i < len(t.keys) && t.keys[i] <= hi; i++ {
		if !fn(t.keys[i], t.vals[i]) {
			return
		}
	}
}

var _ index.RangeIndex = (*Index)(nil)
