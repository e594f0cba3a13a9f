package core

import (
	"chameleon/internal/costmodel"
	"chameleon/internal/ebh"
	"chameleon/internal/par"
	"chameleon/internal/rl"
)

// BulkLoad implements index.Index: it (re)builds the structure over sorted
// unique keys using the MARL construction of Fig. 6 — DARE emits the root
// fanout p0 and parameter matrix M for the upper h−1 levels; the fanout
// policy (TSMDP) refines each level-h node. The new structure is built
// off-line and swapped in atomically, so concurrent readers are never
// blocked; concurrent writers are excluded only for the swap itself.
//
// Construction parallelizes across Config.Workers: gate-level subtrees cover
// disjoint key ranges and every policy decision depends only on its own
// subtree's keys, so the parallel build produces a tree bit-identical to the
// serial one.
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
	t := ix.buildTree(keys, vals)
	ix.rebuildMu.Lock()
	ix.installTree(t, len(keys))
	ix.rebuildMu.Unlock()
	return nil
}

// build constructs the full tree and registers the level-h gates on t.
func (ix *Index) build(t *tree, keys, vals []uint64) *node {
	mk, Mk := keys[0], keys[len(keys)-1]
	dare := ix.cfg.Dare
	if dare == nil {
		cfg := rl.DefaultDAREConfig()
		cfg.Env = ix.env
		cfg.Workers = ix.cfg.Workers
		dare = rl.NewCostDARE(cfg)
	}
	p0, m := dare.Parameters(keys, t.h, matrixWidth)
	upperFan := rl.UpperFanoutFn(p0, m, mk, Mk, matrixWidth)
	return ix.buildUpper(t, keys, vals, mk, Mk, 1, upperFan)
}

// buildUpper builds levels 1..h−1 with the DARE fanouts; children at level h
// are built by buildLower and registered as gates.
func (ix *Index) buildUpper(t *tree, keys, vals []uint64, lo, hi uint64, level int, fan costmodel.FanoutFn) *node {
	f := fan(level, lo, hi, len(keys))
	if f <= 1 || len(keys) <= 1 || level >= t.h {
		// Degenerate upper node: no partition at this level; fall through to
		// the lower builder (no gate — the fallback interval guards it).
		return ix.buildLower(keys, vals, lo, hi, t.h, t.h)
	}
	n := newInner(lo, hi, make([]*node, f))
	parts := costmodel.Partition(keys, lo, hi, f)
	if level+1 == t.h {
		// Gate level: register all f gates sequentially first, so gate IDs and
		// registry order are exactly what the serial build would produce, then
		// fan the subtree construction out — the subtrees cover disjoint key
		// ranges and write disjoint child slots.
		n.gateBase = uint64(len(t.gates))
		for j := 0; j < f; j++ {
			clo, chi := costmodel.ChildInterval(lo, hi, f, j)
			g := &gate{id: n.gateBase + uint64(j), parent: n, slot: j, lo: clo, hi: chi}
			g.keys.Store(int64(parts[j][1] - parts[j][0]))
			t.gates = append(t.gates, g)
		}
		par.Do(f, par.Workers(ix.cfg.Workers), func(j int) {
			clo, chi := costmodel.ChildInterval(lo, hi, f, j)
			ck := keys[parts[j][0]:parts[j][1]]
			var cv []uint64
			if vals != nil {
				cv = vals[parts[j][0]:parts[j][1]]
			}
			n.children[j] = ix.buildLower(ck, cv, clo, chi, t.h, t.h)
		})
		return n
	}
	// Above the gate level the recursion stays sequential: it only slices the
	// key space (cheap), and sequential descent keeps gate registration
	// ordered. All the heavy work happens at and below the gates.
	for j := 0; j < f; j++ {
		clo, chi := costmodel.ChildInterval(lo, hi, f, j)
		ck := keys[parts[j][0]:parts[j][1]]
		var cv []uint64
		if vals != nil {
			cv = vals[parts[j][0]:parts[j][1]]
		}
		n.children[j] = ix.buildUpper(t, ck, cv, clo, chi, level+1, fan)
	}
	return n
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
		ck := keys[parts[j][0]:parts[j][1]]
		var cv []uint64
		if vals != nil {
			cv = vals[parts[j][0]:parts[j][1]]
		}
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
