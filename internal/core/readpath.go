package core

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// This file is the versioned optimistic read path (the BLI recipe, DESIGN.md
// §13): lookups snapshot the interval's seqlock version, probe the EBH leaf
// with no lock traffic at all, and validate the version afterwards. A probe
// that raced a writer or the retrainer fails validation and retries; after
// optimisticRetries failures the reader falls back to the shared interval
// lock, so a write-saturated interval degrades to exactly the old locked
// behavior instead of livelocking.
//
// What makes the lock-free probe safe:
//
//   - Everything ABOVE the gate level is immutable for the lifetime of a
//     tree snapshot, so the upper walk needs no protection at all.
//   - The gate's child slot is the ONE pointer the retrainer swaps in place;
//     it is accessed through gateChild/setGateChild (atomic) on every side.
//   - Below the gate, inner nodes are immutable (structural retrains build a
//     fresh subtree off-line and swap the gate slot); leaf slabs are accessed
//     atomically inside package ebh.
//   - A reader may therefore observe a half-applied mutation, but never tear
//     a value, and validation discards anything observed during an exclusive
//     section.

// optimisticRetries bounds how many times a lookup re-probes after a version
// miss before taking the shared lock.
const optimisticRetries = 4

// gateChild atomically loads inner node n's j-th child. Only gate child
// slots are ever swapped after publication, but the atomic load costs
// nothing on the architectures we run on, so the read path uses it for every
// re-read that could race the retrainer.
func gateChild(n *node, j int) *node {
	p := (*unsafe.Pointer)(unsafe.Pointer(&n.children[j]))
	return (*node)(atomic.LoadPointer(p))
}

// setGateChild atomically swaps inner node n's j-th child; the caller must
// hold the interval's Retraining-Lock.
func setGateChild(n *node, j int, c *node) {
	p := (*unsafe.Pointer)(unsafe.Pointer(&n.children[j]))
	atomic.StorePointer(p, unsafe.Pointer(c))
}

// Lookup implements index.Index with the paper's O(H_C + 1) path: exact
// inner routing (Eq. 1), then a conflict-degree-bounded probe in the EBH
// leaf — executed optimistically under the interval seqlock, with the shared
// read lock as the bounded-retry fallback.
func (ix *Index) Lookup(k uint64) (uint64, bool) {
	return ix.lookupOn(ix.tree.Load(), k)
}

// LookupBatch resolves keys[i] into vals[i], found[i], loading the tree
// snapshot once for the whole batch — the server's GET coalescing calls this
// so a pipelined burst pays one snapshot load.
// vals and found must be at least len(keys) long.
func (ix *Index) LookupBatch(keys []uint64, vals []uint64, found []bool) {
	t := ix.tree.Load()
	for i, k := range keys {
		vals[i], found[i] = ix.lookupOn(t, k)
	}
}

// lookupOn runs one optimistic lookup against a loaded snapshot.
func (ix *Index) lookupOn(t *tree, k uint64) (uint64, bool) {
	// Upper walk: immutable above the gate level, no protection needed.
	n := t.root
	for n.leaf == nil && n.gateBase == noGate {
		n = n.children[route(k, n)]
	}

	// A leaf reached above the gate level (empty or degenerate tree) is
	// guarded by the fallback interval; otherwise the gate crossed next owns
	// everything below it.
	id, j := t.fallbackID(), 0
	if n.leaf == nil {
		j = route(k, n)
		id = n.gateBase + uint64(j)
	}
	for try := 0; try < optimisticRetries; try++ {
		if try > 0 {
			runtime.Gosched()
		}
		ver, ok := t.locks.ReadBegin(id)
		if !ok {
			continue
		}
		c := n
		if c.leaf == nil {
			c = gateChild(n, j) // re-read every try: the retrainer swaps this slot
			for c.leaf == nil {
				c = c.children[route(k, c)]
			}
		}
		v, found := c.leaf.Lookup(k)
		if t.locks.ReadValidate(id, ver) {
			return v, found
		}
	}
	return ix.fallbackLookup(t, k)
}

// fallbackLookup descends under the shared interval lock — the paper's
// Interval-Lock reader, taken once the optimistic retries run out. It is
// deliberately the ONLY place the read path touches a shared counter:
// counting every optimistic hit would reintroduce the cache-line bouncing
// this path exists to remove.
func (ix *Index) fallbackLookup(t *tree, k uint64) (uint64, bool) {
	ix.fallbackReads.Add(1)
	leaf, _, id := t.descend(k, false)
	v, ok := leaf.leaf.Lookup(k)
	t.locks.UnlockRead(id)
	return v, ok
}

// ReadFallbacks reports how many lookups exhausted their optimistic retries
// and fell back to the shared interval lock since the index was created.
func (ix *Index) ReadFallbacks() uint64 { return ix.fallbackReads.Load() }
