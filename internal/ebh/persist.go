package ebh

import (
	"fmt"
	"math"
)

// Geometry is what a snapshot keeps of a leaf besides its entries: the hash
// interval, the slot capacity, the leaf's hash factor α (a rung of the α
// ladder over the index's configured α), the collision target τ and the
// saturation flag. The slot layout is not kept; Restore re-places the
// keys, so a snapshot stores n pairs rather than a c-slot slab.
type Geometry struct {
	Lo, Hi     uint64
	Cap        int
	Alpha, Tau float64
	Saturated  bool
}

// Geometry reports the leaf's persisted shape. It reads only the live probe,
// atomics and τ, which is fixed at construction, so an optimistic reader may
// call it with no lock and validate afterwards, as it does AppendEntries.
func (nd *Node) Geometry() Geometry {
	pr := nd.p.Load()
	return Geometry{
		Lo: pr.lo, Hi: pr.hi, Cap: pr.c,
		Alpha: pr.alpha, Tau: nd.tau, Saturated: nd.saturated.Load(),
	}
}

// maxCapSlack bounds a restored leaf's capacity at this multiple of the
// Theorem 1 capacity its key count needs at the default τ. Legitimate growth
// stays inside it (a leaf that holds growHeadroom times the keys Theorem 1
// sizes its capacity for grows to growthFor(n) keys, 2n under an append
// stream or when no α rung meets the conflict-degree bound, and the
// retrainer provisions under 2×);
// a capacity beyond it is what a heavily deleted leaf keeps, or what a
// corrupt snapshot claims, and either way Restore loads the leaf at the
// bound instead of allocating the saved size. The leaf's own τ does not
// enter the bound, so a damaged τ near 0 cannot lift it.
const maxCapSlack = 8

// Restore rebuilds a persisted leaf from its geometry, the index's
// configured hash factor alpha, and its entries in strictly ascending key
// order, placing the keys into a probe of the saved capacity exactly as
// NewFromSorted places a bulk load. The conflict degree is re-derived by the
// placement. Everything a damaged snapshot could get wrong is checked first
// — including a leaf α that is no rung of alpha's ladder — so a leaf Restore
// returns can never panic ("no free slot") or scan unboundedly later inside
// Lookup or Insert.
func Restore(g Geometry, alpha float64, keys, vals []uint64) (*Node, error) {
	n := len(keys)
	switch {
	case len(vals) != n:
		return nil, fmt.Errorf("ebh: %d keys but %d values", n, len(vals))
	case g.Lo > g.Hi:
		return nil, fmt.Errorf("ebh: corrupt leaf (lo=%d > hi=%d)", g.Lo, g.Hi)
	case !(g.Tau > 0 && g.Tau < 1), !onLadder(g.Alpha, alpha):
		return nil, fmt.Errorf("ebh: corrupt leaf (tau=%v alpha=%v, configured alpha %v)", g.Tau, g.Alpha, alpha)
	case g.Cap < 1 || g.Cap < n:
		return nil, fmt.Errorf("ebh: corrupt leaf (capacity %d for %d keys)", g.Cap, n)
	}
	// Keys are not checked against [Lo, Hi]: a live leaf can hold one just
	// outside it (see probe.home), and placement clamps such keys the same
	// way search does.
	for i := 1; i < n; i++ {
		if keys[i] <= keys[i-1] {
			return nil, fmt.Errorf("ebh: corrupt leaf (keys not ascending at %d)", i)
		}
	}
	c := g.Cap
	if bound := maxCapSlack * max(CapacityFor(n, DefaultTau), 8); c > bound {
		c = bound
	}
	nd := &Node{base: alpha, tau: g.Tau, n: n, kmin: math.MaxUint64}
	nd.saturated.Store(g.Saturated)
	if n > 0 {
		nd.kmin, nd.kmax = keys[0], keys[n-1]
	}
	pr := newProbe(g.Lo, g.Hi, c, g.Alpha)
	pr.fill(entries{keys: keys, vals: vals}, math.MaxInt32)
	nd.p.Store(pr)
	return nd, nil
}

// onLadder reports whether a is a rung of the α ladder over a positive,
// finite configured α. The rungs are power-of-two multiples, exact in
// floating point, so equality is the right test.
func onLadder(a, base float64) bool {
	if !(base > 0) || math.IsInf(base, 0) {
		return false
	}
	for _, m := range alphaLadder {
		if r := m * base; a == r && !math.IsInf(r, 0) {
			return true
		}
	}
	return false
}
