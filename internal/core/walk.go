package core

import (
	"cmp"
	"math"
	"slices"

	"chameleon/internal/ebh"
)

// This file is the one ordered walk over a tree snapshot. Inner nodes route
// by exact linear interpolation (Eq. 1), which is monotone in the key, so
// visiting children in slot order visits the leaves in key order. Only each
// EBH leaf's slab is unordered, because the Eq. (2) hash wraps ⌈α⌉ times
// over the leaf; sortLeaf orders one leaf at a time. BLI makes the same
// split: ordered buckets, each sorted at scan time.
//
// An interval is the unit the walk reads under one lock: the subtree in a
// gate's child slot, guarded by that gate's interval lock, or a leaf no gate
// covers, guarded by the fallback interval.

// visit calls fn on every node of the subtree under n that [lo, hi] routes
// into, in pre-order with its depth, so that leaves come out in key order.
// It skips the children of an inner node for which fn returns false. It
// loads child slots plainly: fn must stop it at gate nodes unless the caller
// holds the interval's lock, or the tree is not yet published.
func visit(n *node, depth int, lo, hi uint64, fn func(n *node, depth int) bool) {
	if !fn(n, depth) || n.leaf != nil {
		return
	}
	for j := route(lo, n); j <= route(hi, n); j++ {
		visit(n.children[j], depth+1, lo, hi, fn)
	}
}

// interval names one lock's share of a tree: its lock ID, the depth of its
// subtree root, and where that root lives — slot j of gate node n, or n
// itself, a leaf no gate covers, when j < 0.
type interval struct {
	id    uint64
	n     *node
	j     int
	depth int
}

// sub resolves the interval's subtree root. Call it under the interval's
// lock: the retrainer swaps gate slots.
func (iv interval) sub() *node {
	if iv.j < 0 {
		return iv.n
	}
	return gateChild(iv.n, iv.j)
}

// intervals calls fn for each interval of t that [lo, hi] reaches, in key
// order, until fn returns false. upper, when non-nil, sees every node above
// the intervals first, in pre-order with its depth (the root's is 1).
func (t *tree) intervals(lo, hi uint64, upper func(n *node, depth int), fn func(iv interval) bool) {
	more := true
	visit(t.root, 1, lo, hi, func(n *node, depth int) bool {
		switch {
		case !more:
			return false
		case n.leaf != nil:
			more = fn(interval{id: t.fallbackID(), n: n, j: -1, depth: depth})
			return false
		}
		if upper != nil {
			upper(n, depth)
		}
		if n.gateBase == noGate {
			return true
		}
		for j := route(lo, n); more && j <= route(hi, n); j++ {
			more = fn(interval{id: n.gateBase + uint64(j), n: n, j: j, depth: depth + 1})
		}
		return false
	})
}

// eachNode calls fn on every node of t in pre-order with its depth, each
// interval's nodes under that interval's read lock.
func (t *tree) eachNode(fn func(n *node, depth int)) {
	all := func(n *node, depth int) bool { fn(n, depth); return true }
	t.intervals(0, math.MaxUint64, fn, func(iv interval) bool {
		t.locks.LockRead(iv.id)
		visit(iv.sub(), iv.depth, 0, math.MaxUint64, all)
		t.locks.UnlockRead(iv.id)
		return true
	})
}

// cut is one interval's leaves, copied under its lock: each leaf's geometry
// and its entries in the window, leaf after leaf in key order. Once sorted,
// each leaf's run is ascending, so the whole cut is. Its buffers are reused
// from cut to cut.
type cut struct {
	sub    *node // the interval's subtree root
	leaves []leafCut
	ks, vs []uint64

	// sortLeaf's scratch.
	starts []int
	pairs  []kv
}

// leafCut is one leaf of a cut: its geometry, and where its entries end in
// the cut's ks/vs.
type leafCut struct {
	g   ebh.Geometry
	end int
}

type kv struct{ k, v uint64 }

// each copies the intervals of t that [lo, hi] reaches into c, one at a
// time in key order, and calls fn on the sorted cut with no lock held, until
// fn returns false. upper is as in intervals. Each copy is optimistic first,
// the protocol of Lookup amortized over an interval: copy with no lock, then
// validate the interval's sequence; a copy that a writer or retrainer raced
// is discarded and taken again under the shared read lock, resolving the
// gate slot again. So a reader makes a writer wait only after losing a race
// to one.
func (c *cut) each(t *tree, lo, hi uint64, upper func(n *node, depth int), fn func(c *cut) bool) {
	t.intervals(lo, hi, upper, func(iv interval) bool {
		ver, ok := t.locks.ReadBegin(iv.id)
		if ok {
			c.copy(iv.sub(), lo, hi)
			ok = t.locks.ReadValidate(iv.id, ver)
		}
		if !ok {
			t.locks.LockRead(iv.id)
			c.copy(iv.sub(), lo, hi)
			t.locks.UnlockRead(iv.id)
		}
		c.sort()
		return fn(c)
	})
}

// copy replaces c's contents with the entries in [lo, hi] of the leaves
// under sub that [lo, hi] routes into. The caller holds the subtree's
// interval lock or validates the copy afterwards: the inner nodes below a
// gate are never modified in place, and a leaf's entries and geometry are
// read through its atomics.
func (c *cut) copy(sub *node, lo, hi uint64) {
	c.sub, c.leaves, c.ks, c.vs = sub, c.leaves[:0], c.ks[:0], c.vs[:0]
	visit(sub, 0, lo, hi, func(n *node, _ int) bool {
		if n.leaf == nil {
			return true
		}
		start := len(c.ks)
		c.ks, c.vs = n.leaf.AppendEntries(c.ks, c.vs)
		end := start
		for i := start; i < len(c.ks); i++ {
			if k := c.ks[i]; k >= lo && k <= hi {
				c.ks[end], c.vs[end] = k, c.vs[i]
				end++
			}
		}
		c.ks, c.vs = c.ks[:end], c.vs[:end]
		c.leaves = append(c.leaves, leafCut{g: n.leaf.Geometry(), end: end})
		return true
	})
}

// run returns leaf i's entries.
func (c *cut) run(i int) (ks, vs []uint64) {
	start := 0
	if i > 0 {
		start = c.leaves[i-1].end
	}
	end := c.leaves[i].end
	return c.ks[start:end], c.vs[start:end]
}

// sort orders each leaf's entries by key; it needs no lock.
func (c *cut) sort() {
	for i, lc := range c.leaves {
		ks, vs := c.run(i)
		c.sortLeaf(lc.g, ks, vs)
	}
}

// sortLeaf sorts one leaf's entries, copied in slot order, by key in place.
// Slot order is the hash order of Eq. (2), which wraps around the slab ⌈α⌉
// times over [lo, hi]: the entries form ⌈α⌉ interleaved ascending runs, each
// disturbed only by probe displacement. Dealing them into one bucket per run
// by key leaves them nearly sorted, which the pattern-defeating sort then
// finishes in close to linear time (~10× faster than sorting slot order
// directly). The buckets only pre-order the input; the sort alone decides
// the result.
func (c *cut) sortLeaf(g ebh.Geometry, ks, vs []uint64) {
	n := len(ks)
	nb := n
	if a := math.Ceil(g.Alpha); a < float64(n) {
		nb = int(a)
	}
	scale := float64(nb) / (float64(g.Hi-g.Lo) + 1)
	bucket := func(k uint64) int {
		if k <= g.Lo {
			return 0
		}
		return min(int(scale*float64(k-g.Lo)), nb-1)
	}
	c.starts = append(c.starts[:0], make([]int, nb+1)...)
	for _, k := range ks {
		c.starts[bucket(k)+1]++
	}
	for b := 1; b <= nb; b++ {
		c.starts[b] += c.starts[b-1]
	}
	c.pairs = slices.Grow(c.pairs[:0], n)[:n]
	for i, k := range ks {
		b := bucket(k)
		c.pairs[c.starts[b]] = kv{k, vs[i]}
		c.starts[b]++
	}
	slices.SortFunc(c.pairs, func(a, b kv) int { return cmp.Compare(a.k, b.k) })
	for i, p := range c.pairs {
		ks[i], vs[i] = p.k, p.v
	}
}
