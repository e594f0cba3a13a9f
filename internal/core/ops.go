package core

import (
	"sort"

	"chameleon/internal/index"
)

// descend walks from the snapshot's root to the leaf responsible for k,
// acquiring the interval lock that guards it: the shared read lock for
// lookups, the exclusive write lock for updates. The first gate crossed on
// the path owns the whole subtree below it, so the child pointer is re-read
// after the lock is held (the retrainer swaps gate slots under the
// Retraining-Lock) and no further locks are needed. A path that never
// crosses a gate is guarded by the snapshot's fallback interval, so no leaf
// access is ever unlocked. It returns the leaf, the gate crossed (nil on
// the fallback path), and the held lock ID.
func (t *tree) descend(k uint64, write bool) (*node, *gate, uint64) {
	n := t.root
	for n.leaf == nil {
		j := route(k, n)
		if n.gateBase != noGate {
			id := n.gateBase + uint64(j)
			if write {
				t.locks.LockWrite(id)
			} else {
				t.locks.LockRead(id)
			}
			n = gateChild(n, j) // re-read under the lock: retrain swaps this slot
			for n.leaf == nil {
				n = n.children[route(k, n)]
			}
			return n, t.gates[id], id
		}
		n = n.children[j]
	}
	id := t.fallbackID()
	if write {
		t.locks.LockWrite(id)
	} else {
		t.locks.LockRead(id)
	}
	return n, nil, id
}

// Lookup lives in readpath.go: the optimistic seqlock read with the locked
// descend as fallback.

// Insert implements index.Index: an in-place EBH insert (expected O(m·τ))
// under the interval's exclusive write lock. The shared rebuild hold keeps
// the snapshot current for the whole operation, so a full reconstruction
// can never swap the structure out from under a mutation.
func (ix *Index) Insert(k, v uint64) error {
	ix.rebuildMu.RLock()
	t := ix.tree.Load()
	leaf, g, id := t.descend(k, true)
	ok := leaf.leaf.Insert(k, v)
	if ok {
		ix.count.Add(1)
		if g != nil {
			g.updates.Add(1)
		}
	}
	t.locks.UnlockWrite(id)
	ix.rebuildMu.RUnlock()
	if !ok {
		return index.ErrDuplicateKey
	}
	ix.updatesSince.Add(1)
	ix.maybeReconstruct()
	return nil
}

// Delete implements index.Index.
func (ix *Index) Delete(k uint64) error {
	ix.rebuildMu.RLock()
	t := ix.tree.Load()
	leaf, g, id := t.descend(k, true)
	ok := leaf.leaf.Delete(k)
	if ok {
		ix.count.Add(-1)
		if g != nil {
			g.updates.Add(1)
		}
	}
	t.locks.UnlockWrite(id)
	ix.rebuildMu.RUnlock()
	if !ok {
		return index.ErrKeyNotFound
	}
	ix.updatesSince.Add(1)
	ix.maybeReconstruct()
	return nil
}

// Range implements index.RangeIndex. EBH leaves are unordered, so the scan
// collects matching entries per leaf and sorts them; this is the documented
// trade-off of hash leaves (the paper evaluates point workloads only). Each
// gate subtree is visited under its shared read lock, so a range scan never
// blocks other readers and observes each interval atomically.
func (ix *Index) Range(lo, hi uint64, fn func(key, val uint64) bool) {
	if hi < lo {
		return
	}
	t := ix.tree.Load()
	type kv struct{ k, v uint64 }
	// Preallocate from the gate registry's key counts: every gate whose
	// interval overlaps [lo, hi] bounds how many entries the scan can emit, so
	// out almost never regrows. The counts are maintenance-time approximations
	// (exact at build, drifting with updates), which is fine for a capacity
	// hint. A gateless tree gives no hint: out grows with the result instead
	// of being sized to the whole index.
	capHint := 0
	for _, g := range t.gates {
		if g.hi >= lo && g.lo <= hi {
			capHint += int(g.keys.Load())
		}
	}
	if n := int(ix.count.Load()); capHint > n {
		capHint = n
	}
	out := make([]kv, 0, capHint)
	// One scratch pair reused across every leaf: AppendEntries appends into
	// the slices we hand it, so resetting to [:0] keeps the backing arrays and
	// the whole scan allocates O(largest leaf) instead of O(leaves).
	var ks, vs []uint64
	collect := func(n *node) {
		ks, vs = n.leaf.AppendEntries(ks[:0], vs[:0])
		for i, k := range ks {
			if k >= lo && k <= hi {
				out = append(out, kv{k, vs[i]})
			}
		}
	}
	// guardedCollect scans one interval's subtree under its lock ID,
	// optimistically first (probe with no lock, validate the seqlock
	// version, roll the output back and retry locked if a writer raced us —
	// the same protocol as Lookup, amortized over a whole subtree).
	var walk func(n *node, guarded bool)
	guardedCollect := func(resolve func() *node, id uint64) {
		mark := len(out)
		if ver, ok := t.locks.ReadBegin(id); ok {
			walk(resolve(), true)
			if t.locks.ReadValidate(id, ver) {
				return
			}
		}
		out = out[:mark] // discard the possibly-torn partial collect
		t.locks.LockRead(id)
		// Resolve again under the lock: the retrainer may have swapped the
		// gate's child slot since the optimistic attempt.
		walk(resolve(), true)
		t.locks.UnlockRead(id)
	}
	walk = func(n *node, guarded bool) {
		if n.leaf != nil {
			if guarded {
				collect(n)
				return
			}
			guardedCollect(func() *node { return n }, t.fallbackID())
			return
		}
		jLo, jHi := route(lo, n), route(hi, n)
		for j := jLo; j <= jHi; j++ {
			if !guarded && n.gateBase != noGate {
				j := j
				guardedCollect(func() *node { return gateChild(n, j) }, n.gateBase+uint64(j))
			} else {
				walk(n.children[j], guarded)
			}
		}
	}
	walk(t.root, false)
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	for _, e := range out {
		if !fn(e.k, e.v) {
			return
		}
	}
}

// AppendPairs appends every stored (key, value) pair to keys/vals in
// ascending key order and returns the extended slices — the bulk dump the
// durable tier uses to freeze a memtable into a sorted run.
func (ix *Index) AppendPairs(keys, vals []uint64) ([]uint64, []uint64) {
	ix.Range(0, ^uint64(0), func(k, v uint64) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})
	return keys, vals
}
