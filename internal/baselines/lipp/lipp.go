// Package lipp implements the LIPP baseline: a learned index with precise
// positions — every node maps keys through a linear model directly to slots,
// and slot conflicts are resolved by creating child nodes (the downward
// splitting of Fig. 2(b)), so lookups never perform a secondary search. The
// cost is tree height: on locally skewed data conflicts cascade and the tree
// deepens, the Table V behavior (LIPP/DILI MaxHeight far above Chameleon's).
//
// Node is exported because the DILI baseline builds its leaves from the same
// precise-position structure.
package lipp

import (
	"sort"

	"chameleon/internal/index"
)

const (
	// slotsPerKey over-provisions node slots to keep conflicts low.
	slotsPerKey = 2
	// denseLimit is the size at which conflict sets become sorted-array
	// fallback nodes rather than recursing forever on degenerate models.
	denseLimit = 8
	// maxDepth guards pathological recursion.
	maxDepth = 64
)

type slotKind uint8

const (
	slotEmpty slotKind = iota
	slotEntry
	slotChild
)

// Node is one precise-position node. Exactly one of (entry slots, dense
// array) is active per slot; dense nodes are the depth-limit fallback.
type Node struct {
	slope, bias float64
	kind        []slotKind
	keys        []uint64
	vals        []uint64
	children    []*Node

	// Dense fallback: a small sorted run searched by binary search.
	dense bool
	n     int

	// Rebuild accounting (LIPP's subtree adjustment, the source of its
	// O(log²|D|) amortized update cost in Table III): when a node has
	// absorbed more inserts than it held at build time, its subtree is
	// re-modeled.
	builtN int
	adds   int
}

// NewNode builds a node over sorted unique keys (vals nil means value=key).
func NewNode(keys, vals []uint64) *Node {
	return build(keys, vals, 0)
}

func build(keys, vals []uint64, depth int) *Node {
	n := len(keys)
	if n <= denseLimit || depth >= maxDepth || keys[0] == keys[n-1] {
		return newDense(keys, vals)
	}
	c := n * slotsPerKey
	nd := &Node{
		kind:     make([]slotKind, c),
		keys:     make([]uint64, c),
		vals:     make([]uint64, c),
		children: make([]*Node, c),
		n:        n,
		builtN:   n,
	}
	nd.fit(keys[0], keys[n-1], c)
	// Place keys; conflicting runs become children.
	i := 0
	for i < n {
		s := nd.slot(keys[i])
		j := i + 1
		for j < n && nd.slot(keys[j]) == s {
			j++
		}
		if j-i == 1 {
			nd.kind[s] = slotEntry
			nd.keys[s] = keys[i]
			if vals == nil {
				nd.vals[s] = keys[i]
			} else {
				nd.vals[s] = vals[i]
			}
		} else {
			nd.kind[s] = slotChild
			var cv []uint64
			if vals != nil {
				cv = vals[i:j]
			}
			nd.children[s] = build(keys[i:j], cv, depth+1)
		}
		i = j
	}
	return nd
}

func newDense(keys, vals []uint64, // sorted
) *Node {
	nd := &Node{dense: true, n: len(keys), keys: append([]uint64(nil), keys...)}
	if vals == nil {
		nd.vals = append([]uint64(nil), keys...)
	} else {
		nd.vals = append([]uint64(nil), vals...)
	}
	return nd
}

// fit sets the interpolation model mapping [lo, hi] onto [0, c).
func (nd *Node) fit(lo, hi uint64, c int) {
	span := hi - lo
	if span == 0 {
		nd.slope = 0
	} else {
		nd.slope = float64(c-1) / float64(span)
	}
	nd.bias = -nd.slope * float64(lo)
}

func (nd *Node) slot(k uint64) int {
	s := int(nd.slope*float64(k) + nd.bias)
	if s < 0 {
		s = 0
	}
	if s >= len(nd.kind) {
		s = len(nd.kind) - 1
	}
	return s
}

// Lookup returns the value for k.
func (nd *Node) Lookup(k uint64) (uint64, bool) {
	for !nd.dense {
		s := nd.slot(k)
		switch nd.kind[s] {
		case slotEmpty:
			return 0, false
		case slotEntry:
			if nd.keys[s] == k {
				return nd.vals[s], true
			}
			return 0, false
		default:
			nd = nd.children[s]
		}
	}
	i := sort.Search(len(nd.keys), func(i int) bool { return nd.keys[i] >= k })
	if i < len(nd.keys) && nd.keys[i] == k {
		return nd.vals[i], true
	}
	return 0, false
}

// Insert adds k→v, creating a child on conflict (the LIPP update rule). It
// reports false on duplicate.
func (nd *Node) Insert(k, v uint64) bool {
	if _, dup := nd.Lookup(k); dup {
		return false
	}
	// The highest node on the path whose insert count exceeds its built
	// size is re-modeled after the insert lands — LIPP's subtree adjustment
	// (without it, monotone inserts build O(n)-deep conflict chains).
	var rebuildAt *Node
	cur := nd
	depth := 0
	done := false
	for !done {
		if cur.dense {
			i := sort.Search(len(cur.keys), func(i int) bool { return cur.keys[i] >= k })
			cur.keys = append(cur.keys, 0)
			cur.vals = append(cur.vals, 0)
			copy(cur.keys[i+1:], cur.keys[i:])
			copy(cur.vals[i+1:], cur.vals[i:])
			cur.keys[i], cur.vals[i] = k, v
			cur.n++
			// An overgrown dense node converts back to a model node.
			if len(cur.keys) > 4*denseLimit && cur.keys[0] != cur.keys[len(cur.keys)-1] {
				*cur = *build(cur.keys, cur.vals, maxDepth/2)
			}
			break
		}
		cur.n++
		cur.adds++
		if rebuildAt == nil && cur.adds > cur.builtN && cur.n > 4*denseLimit {
			rebuildAt = cur
		}
		s := cur.slot(k)
		switch cur.kind[s] {
		case slotEmpty:
			cur.kind[s] = slotEntry
			cur.keys[s], cur.vals[s] = k, v
			done = true
		case slotEntry:
			// Conflict: push both entries into a new child.
			ks := []uint64{cur.keys[s], k}
			vs := []uint64{cur.vals[s], v}
			if ks[0] > ks[1] {
				ks[0], ks[1] = ks[1], ks[0]
				vs[0], vs[1] = vs[1], vs[0]
			}
			cur.kind[s] = slotChild
			cur.children[s] = build(ks, vs, depth+1)
			done = true
		default:
			cur = cur.children[s]
			depth++
		}
	}
	if rebuildAt != nil {
		rebuildAt.remodel()
	}
	return true
}

// remodel rebuilds this subtree from its (sorted) contents with a fresh
// model fitted to the current key range.
func (nd *Node) remodel() {
	ks := make([]uint64, 0, nd.n)
	vs := make([]uint64, 0, nd.n)
	nd.Walk(func(k, v uint64) {
		ks = append(ks, k)
		vs = append(vs, v)
	})
	*nd = *build(ks, vs, 0)
}

// Delete removes k, reporting whether it was present.
func (nd *Node) Delete(k uint64) bool {
	// First verify presence so counts stay exact.
	if _, ok := nd.Lookup(k); !ok {
		return false
	}
	for !nd.dense {
		nd.n--
		s := nd.slot(k)
		switch nd.kind[s] {
		case slotEntry:
			nd.kind[s] = slotEmpty
			return true
		default: // slotChild (presence was verified above)
			nd = nd.children[s]
		}
	}
	i := sort.Search(len(nd.keys), func(i int) bool { return nd.keys[i] >= k })
	nd.keys = append(nd.keys[:i], nd.keys[i+1:]...)
	nd.vals = append(nd.vals[:i], nd.vals[i+1:]...)
	nd.n--
	return true
}

// Bytes estimates resident size.
func (nd *Node) Bytes() int {
	if nd.dense {
		return 64 + 16*len(nd.keys)
	}
	total := 64 + 25*len(nd.kind)
	for s, k := range nd.kind {
		if k == slotChild {
			total += nd.children[s].Bytes()
		}
	}
	return total
}

// Walk visits every stored entry (unordered across subtrees of equal slot).
func (nd *Node) Walk(fn func(k, v uint64)) {
	if nd.dense {
		for i, k := range nd.keys {
			fn(k, nd.vals[i])
		}
		return
	}
	for s, kind := range nd.kind {
		switch kind {
		case slotEntry:
			fn(nd.keys[s], nd.vals[s])
		case slotChild:
			nd.children[s].Walk(fn)
		}
	}
}

// DepthStats accumulates height statistics: per-key depth sum, max depth,
// and node count (dense nodes count their binary-search depth as 1).
func (nd *Node) DepthStats(depth int, maxH *int, depthSum *float64, keySum, nodes *int) {
	*nodes++
	if nd.dense {
		if depth > *maxH {
			*maxH = depth
		}
		*depthSum += float64(depth) * float64(len(nd.keys))
		*keySum += len(nd.keys)
		return
	}
	for s, kind := range nd.kind {
		switch kind {
		case slotEntry:
			if depth > *maxH {
				*maxH = depth
			}
			*depthSum += float64(depth)
			*keySum++
		case slotChild:
			nd.children[s].DepthStats(depth+1, maxH, depthSum, keySum, nodes)
		}
	}
}

// Index is the LIPP tree adapter. Construct with New.
type Index struct {
	root  *Node
	count int
}

var _ index.Index = (*Index)(nil)
var _ index.StatsProvider = (*Index)(nil)

// New creates an empty LIPP.
func New() *Index { return &Index{root: newDense(nil, nil)} }

// Name implements index.Index.
func (t *Index) Name() string { return "LIPP" }

// Len implements index.Index.
func (t *Index) Len() int { return t.count }

// BulkLoad implements index.Index.
func (t *Index) BulkLoad(keys, vals []uint64) error {
	t.count = len(keys)
	if len(keys) == 0 {
		t.root = newDense(nil, nil)
		return nil
	}
	t.root = NewNode(keys, vals)
	return nil
}

// Lookup implements index.Index.
func (t *Index) Lookup(k uint64) (uint64, bool) { return t.root.Lookup(k) }

// Insert implements index.Index.
func (t *Index) Insert(k, v uint64) error {
	if !t.root.Insert(k, v) {
		return index.ErrDuplicateKey
	}
	t.count++
	return nil
}

// Delete implements index.Index.
func (t *Index) Delete(k uint64) error {
	if !t.root.Delete(k) {
		return index.ErrKeyNotFound
	}
	t.count--
	return nil
}

// Bytes implements index.Index.
func (t *Index) Bytes() int { return t.root.Bytes() }

// Stats implements index.StatsProvider. LIPP positions are exact, so
// MaxError and AvgError are 0 by construction (as Table V reports).
func (t *Index) Stats() index.Stats {
	var s index.Stats
	var depthSum float64
	var keySum int
	t.root.DepthStats(1, &s.MaxHeight, &depthSum, &keySum, &s.Nodes)
	if keySum > 0 {
		s.AvgHeight = depthSum / float64(keySum)
	}
	return s
}

// WalkRange visits entries with keys in [lo, hi] in ascending key order.
// Model-node slots are ordered by key (the interpolation model is monotone),
// so an in-order slot traversal yields sorted output. It returns false when
// the callback stopped the scan.
func (nd *Node) WalkRange(lo, hi uint64, fn func(k, v uint64) bool) bool {
	if nd.dense {
		i := sort.Search(len(nd.keys), func(i int) bool { return nd.keys[i] >= lo })
		for ; i < len(nd.keys) && nd.keys[i] <= hi; i++ {
			if !fn(nd.keys[i], nd.vals[i]) {
				return false
			}
		}
		return true
	}
	sLo, sHi := nd.slot(lo), nd.slot(hi)
	for s := sLo; s <= sHi; s++ {
		switch nd.kind[s] {
		case slotEntry:
			if k := nd.keys[s]; k >= lo && k <= hi {
				if !fn(k, nd.vals[s]) {
					return false
				}
			}
		case slotChild:
			if !nd.children[s].WalkRange(lo, hi, fn) {
				return false
			}
		}
	}
	return true
}

// Range implements index.RangeIndex.
func (t *Index) Range(lo, hi uint64, fn func(key, val uint64) bool) {
	if hi < lo {
		return
	}
	t.root.WalkRange(lo, hi, fn)
}

var _ index.RangeIndex = (*Index)(nil)
