package core

import (
	"sort"

	"chameleon/internal/costmodel"
	"chameleon/internal/ebh"
	"chameleon/internal/par"
	"chameleon/internal/rl"
)

// BulkLoad implements index.Index: it (re)builds the structure over sorted
// unique keys using the MARL construction of Fig. 6 — DARE emits the root
// fanout p0 and the inner fanout g for the upper h−1 levels; the fanout
// policy (TSMDP) refines each level-h node. The new structure is built
// off-line and swapped in atomically, so concurrent readers are never
// blocked; concurrent writers are excluded only for the swap itself.
//
// Construction parallelizes across Config.Workers: the DARE search scores
// its candidates concurrently, and after a sequential pass shapes the upper
// levels, every level-h subtree — under a gate or under a degenerate upper
// node — is built in one parallel pass. The subtrees cover disjoint key
// ranges and every policy decision depends only on its own subtree's keys,
// so the parallel build produces a tree bit-identical to the serial one.
func (ix *Index) BulkLoad(keys, vals []uint64) error {
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return ErrUnsortedKeys
		}
	}
	if vals != nil && len(vals) != len(keys) {
		return ErrMismatchedValues
	}
	ix.lifecycle.Lock()
	defer ix.lifecycle.Unlock()
	t := ix.buildTree(keys, vals, bulkLoadSample)
	ix.rebuildMu.Lock()
	ix.installTree(t, len(keys))
	ix.rebuildMu.Unlock()
	return nil
}

// build constructs the full tree and registers the level-h gates on t. It
// runs in two phases: shapeUpper, sequential, shapes levels 1..h−1 with the
// DARE fanouts and registers the gates in key order; then one par.Do builds
// every level-h subtree it left with buildLower. Those subtrees cover
// disjoint key ranges and fill disjoint child slots, so the tree is the
// serial one whatever the worker count. Without a configured Dare, the
// default CostDARE searches over the index's environment on a sample of at
// most sampleCap keys.
func (ix *Index) build(t *tree, keys, vals []uint64, sampleCap int) *node {
	dare := ix.cfg.Dare
	if dare == nil {
		cfg := rl.DefaultDAREConfig()
		cfg.SampleCap = sampleCap
		cfg.Env = ix.env
		cfg.Workers = ix.cfg.Workers
		dare = rl.NewCostDARE(cfg)
	}
	p0, g := dare.Parameters(keys, t.h)
	var root *node
	var runs []lowerRun
	total := ix.shapeUpper(t, &runs, &root, keys, vals, keys[0], keys[len(keys)-1], 1, p0, g, 0)
	par.Do(total, par.Workers(ix.cfg.Workers), func(i int) {
		r := &runs[sort.Search(len(runs), func(r int) bool { return runs[r].first > i })-1]
		if r.parts == nil {
			*r.dst = ix.buildLower(r.keys, r.vals, r.lo, r.hi, t.h, t.h)
			return
		}
		j := i - r.first
		ck, cv := childKeys(r.keys, r.vals, r.parts[j])
		clo, chi := costmodel.ChildInterval(r.lo, r.hi, r.n.fanout, j)
		r.n.children[j] = ix.buildLower(ck, cv, clo, chi, t.h, t.h)
	})
	return root
}

// lowerRun is a run of level-h subtrees shapeUpper leaves to buildLower:
// the children of gate-level node n over [lo, hi], which split keys as
// parts says, or, when parts is nil, one degenerate upper node over
// [lo, hi], whose subtree goes in *dst. first is the index of the run's
// first subtree among all of them.
type lowerRun struct {
	keys, vals []uint64
	lo, hi     uint64
	parts      [][2]int
	n          *node
	dst        **node
	first      int
}

// shapeUpper shapes the node at the given level over [lo, hi] into *dst
// with fanout f, and the upper levels below it with fanout g, appending to
// runs the level-h subtrees to build, the first of them numbered next. It
// returns the number after the last. The children of a gate-level node are
// registered as gates as they are appended; a degenerate upper node (no
// partition at this level) is appended as a subtree with no gate: the
// fallback interval guards it.
func (ix *Index) shapeUpper(t *tree, runs *[]lowerRun, dst **node, keys, vals []uint64, lo, hi uint64, level, f, g, next int) int {
	if f <= 1 || len(keys) <= 1 || level >= t.h {
		*runs = append(*runs, lowerRun{keys: keys, vals: vals, lo: lo, hi: hi, dst: dst, first: next})
		return next + 1
	}
	n := newInner(lo, hi, make([]*node, f))
	*dst = n
	parts := costmodel.Partition(keys, lo, hi, f)
	if level+1 < t.h {
		for j := 0; j < f; j++ {
			clo, chi := costmodel.ChildInterval(lo, hi, f, j)
			ck, cv := childKeys(keys, vals, parts[j])
			next = ix.shapeUpper(t, runs, &n.children[j], ck, cv, clo, chi, level+1, g, g, next)
		}
		return next
	}
	n.gateBase = uint64(len(t.gates))
	for j := 0; j < f; j++ {
		clo, chi := costmodel.ChildInterval(lo, hi, f, j)
		g := &gate{id: n.gateBase + uint64(j), parent: n, slot: j, lo: clo, hi: chi}
		g.keys.Store(int64(parts[j][1] - parts[j][0]))
		t.gates = append(t.gates, g)
	}
	*runs = append(*runs, lowerRun{keys: keys, vals: vals, lo: lo, hi: hi, parts: parts, n: n, first: next})
	return next + f
}

// childKeys is the keys and values (nil: value-equals-key) part selects.
func childKeys(keys, vals []uint64, part [2]int) ([]uint64, []uint64) {
	if vals == nil {
		return keys[part[0]:part[1]], nil
	}
	return keys[part[0]:part[1]], vals[part[0]:part[1]]
}

// buildLower builds a level-h subtree: the fanout policy (TSMDP) decides
// recursively whether to keep partitioning; fanout 1 terminates in an EBH
// leaf. h is the gate level of the tree under construction (the recursion
// depth budget is relative to it).
func (ix *Index) buildLower(keys, vals []uint64, lo, hi uint64, level, h int) *node {
	f := 1
	if ix.cfg.Policy != nil && level < h+maxLowerDepth && len(keys) > 1 {
		f = ix.cfg.Policy.Fanout(keys, lo, hi, level)
	}
	if f <= 1 || len(keys) <= 1 {
		leaf := ebh.NewFromSorted(lo, hi, keys, vals, ix.cfg.Tau, ix.cfg.Alpha)
		return &node{lo: lo, hi: hi, fanout: 1, gateBase: noGate, leaf: leaf}
	}
	n := newInner(lo, hi, make([]*node, f))
	parts := costmodel.Partition(keys, lo, hi, f)
	// Children cover disjoint key ranges, the fanout policy is a pure function
	// of each child's own keys, and EBH leaf construction is the dominant cost
	// — so the recursion fans out when workers are free and runs inline when
	// the pool is saturated (par.Do's caller always participates).
	par.Do(f, par.Workers(ix.cfg.Workers), func(j int) {
		clo, chi := costmodel.ChildInterval(lo, hi, f, j)
		ck, cv := childKeys(keys, vals, parts[j])
		n.children[j] = ix.buildLower(ck, cv, clo, chi, level+1, h)
	})
	return n
}

// route computes the child index for a key via the cached Eq. (1) scale,
// clamping keys outside the node's interval to the edge children so inserts
// beyond the bulk-loaded range stay routable.
func route(k uint64, n *node) int {
	if k <= n.lo {
		return 0
	}
	if k >= n.hi {
		return n.fanout - 1
	}
	j := int(n.scale * float64(k-n.lo))
	if j >= n.fanout {
		j = n.fanout - 1
	}
	return j
}
