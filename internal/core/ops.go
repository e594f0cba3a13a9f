package core

import (
	"math"

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

// Range implements index.RangeIndex. It streams the window interval by
// interval in key order: each interval's leaves that the window reaches are
// copied optimistically (validated by the interval's sequence, else copied
// again under its shared read lock), then sorted and emitted with no lock
// held, so fn never runs under a lock, each interval is observed atomically,
// and a Range that stops early stops reading. EBH leaves are
// unordered, so each leaf's copy is sorted on its own; the tree orders the
// leaves.
func (ix *Index) Range(lo, hi uint64, fn func(key, val uint64) bool) {
	if hi < lo {
		return
	}
	var c cut
	c.each(ix.tree.Load(), lo, hi, nil, func(c *cut) bool {
		for i, k := range c.ks {
			if !fn(k, c.vs[i]) {
				return false
			}
		}
		return true
	})
}

// AppendPairs appends every stored (key, value) pair to keys/vals in
// ascending key order and returns the extended slices — the dump
// Reconstruct rebuilds the tree from. It reads the tree as Range does,
// interval by interval.
func (ix *Index) AppendPairs(keys, vals []uint64) ([]uint64, []uint64) {
	var c cut
	c.each(ix.tree.Load(), 0, math.MaxUint64, nil, func(c *cut) bool {
		keys, vals = append(keys, c.ks...), append(vals, c.vs...)
		return true
	})
	return keys, vals
}
