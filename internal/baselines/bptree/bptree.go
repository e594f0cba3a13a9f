// Package bptree is an in-memory B+Tree over uint64 keys, the traditional
// baseline of the paper's Table I (implemented there as STX B+Tree): binary
// search in inner and leaf nodes, in-place updates with node splits, and
// borrow/merge rebalancing on deletes. It supports bulk loading from sorted
// input and ordered range scans.
//
// The tiered engine also keeps its pending tombstones in one (the dead set,
// DESIGN.md §15), which is why a descent allocates nothing: Insert and
// Delete record their path in a slice the Tree keeps, and node edits move
// keys within a node's own backing array.
package bptree

import (
	"slices"

	"chameleon/internal/index"
)

// DefaultOrder is the default maximum number of keys per node, sized so a
// node fills a couple of cache lines (STX uses a similar byte budget).
const DefaultOrder = 64

type node struct {
	// keys holds the search keys. For a leaf, vals runs parallel to keys;
	// for an inner node, children has len(keys)+1 entries and keys[i] is the
	// smallest key in children[i+1]'s subtree.
	keys     []uint64
	vals     []uint64
	children []*node
	next     *node // leaf chain for range scans
}

func (n *node) isLeaf() bool { return n.children == nil }

// Tree is the B+Tree. Construct with New.
type Tree struct {
	root  *node
	order int
	count int
	path  []pathEntry // Insert's and Delete's descent, reused
}

var _ index.RangeIndex = (*Tree)(nil)
var _ index.StatsProvider = (*Tree)(nil)

// New creates an empty tree with the given order (0 selects DefaultOrder).
func New(order int) *Tree {
	if order < 4 {
		order = DefaultOrder
	}
	return &Tree{root: &node{}, order: order}
}

// Name implements index.Index.
func (t *Tree) Name() string { return "B+Tree" }

// Len implements index.Index.
func (t *Tree) Len() int { return t.count }

// BulkLoad implements index.Index with a bottom-up build: leaves packed to
// ~85% fill, then parent levels stacked until a single root remains.
func (t *Tree) BulkLoad(keys, vals []uint64) error {
	t.root = &node{}
	t.count = len(keys)
	if len(keys) == 0 {
		return nil
	}
	fill := t.order * 85 / 100
	if fill < 2 {
		fill = 2
	}
	var leaves []*node
	for i := 0; i < len(keys); i += fill {
		end := i + fill
		if end > len(keys) {
			end = len(keys)
		}
		lf := &node{keys: append([]uint64(nil), keys[i:end]...)}
		if vals == nil {
			lf.vals = append([]uint64(nil), keys[i:end]...)
		} else {
			lf.vals = append([]uint64(nil), vals[i:end]...)
		}
		if len(leaves) > 0 {
			leaves[len(leaves)-1].next = lf
		}
		leaves = append(leaves, lf)
	}
	level := leaves
	for len(level) > 1 {
		var parents []*node
		for i := 0; i < len(level); i += fill {
			end := i + fill
			if end > len(level) {
				end = len(level)
			}
			p := &node{children: append([]*node(nil), level[i:end]...)}
			for _, c := range p.children[1:] {
				p.keys = append(p.keys, minKey(c))
			}
			parents = append(parents, p)
		}
		level = parents
	}
	t.root = level[0]
	return nil
}

func minKey(n *node) uint64 {
	for !n.isLeaf() {
		n = n.children[0]
	}
	return n.keys[0]
}

// findLeaf descends to the leaf responsible for k, recording the path in
// *path (emptied first) when path is non-nil.
func (t *Tree) findLeaf(k uint64, path *[]pathEntry) *node {
	if path != nil {
		*path = (*path)[:0]
	}
	n := t.root
	for !n.isLeaf() {
		i, found := slices.BinarySearch(n.keys, k)
		if found {
			i++ // keys[i] is the smallest key in children[i+1]
		}
		if path != nil {
			*path = append(*path, pathEntry{n, i})
		}
		n = n.children[i]
	}
	return n
}

type pathEntry struct {
	n   *node
	idx int
}

// Lookup implements index.Index.
func (t *Tree) Lookup(k uint64) (uint64, bool) {
	n := t.findLeaf(k, nil)
	if i, ok := slices.BinarySearch(n.keys, k); ok {
		return n.vals[i], true
	}
	return 0, false
}

// Insert implements index.Index.
func (t *Tree) Insert(k, v uint64) error {
	leaf := t.findLeaf(k, &t.path)
	path := t.path
	i, found := slices.BinarySearch(leaf.keys, k)
	if found {
		return index.ErrDuplicateKey
	}
	leaf.keys = slices.Insert(leaf.keys, i, k)
	leaf.vals = slices.Insert(leaf.vals, i, v)
	t.count++

	// Split upward while overfull.
	child := leaf
	for len(child.keys) > t.order {
		mid := len(child.keys) / 2
		var sib *node
		var sep uint64
		if child.isLeaf() {
			sib = &node{
				keys: append([]uint64(nil), child.keys[mid:]...),
				vals: append([]uint64(nil), child.vals[mid:]...),
				next: child.next,
			}
			child.keys = child.keys[:mid]
			child.vals = child.vals[:mid]
			child.next = sib
			sep = sib.keys[0]
		} else {
			sep = child.keys[mid]
			sib = &node{
				keys:     append([]uint64(nil), child.keys[mid+1:]...),
				children: append([]*node(nil), child.children[mid+1:]...),
			}
			child.keys = child.keys[:mid]
			child.children = child.children[:mid+1]
		}
		if len(path) == 0 {
			t.root = &node{keys: []uint64{sep}, children: []*node{child, sib}}
			return nil
		}
		p := path[len(path)-1]
		path = path[:len(path)-1]
		parent, at := p.n, p.idx
		parent.keys = slices.Insert(parent.keys, at, sep)
		parent.children = slices.Insert(parent.children, at+1, sib)
		child = parent
	}
	return nil
}

// Delete implements index.Index with borrow/merge rebalancing.
func (t *Tree) Delete(k uint64) error {
	leaf := t.findLeaf(k, &t.path)
	path := t.path
	i, found := slices.BinarySearch(leaf.keys, k)
	if !found {
		return index.ErrKeyNotFound
	}
	leaf.keys = slices.Delete(leaf.keys, i, i+1)
	leaf.vals = slices.Delete(leaf.vals, i, i+1)
	t.count--

	min := t.order / 2
	child := leaf
	for len(path) > 0 && len(child.keys) < min {
		p := path[len(path)-1]
		path = path[:len(path)-1]
		parent, at := p.n, p.idx
		if !t.rebalance(parent, at) {
			break
		}
		child = parent
	}
	// Collapse a root that lost all separators.
	for !t.root.isLeaf() && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	return nil
}

// rebalance fixes parent.children[at] by borrowing from or merging with a
// sibling. It reports whether the parent shrank (and may itself need fixing).
func (t *Tree) rebalance(parent *node, at int) bool {
	child := parent.children[at]
	// Try borrowing from the left sibling.
	if at > 0 {
		left := parent.children[at-1]
		if len(left.keys) > t.order/2 {
			last := len(left.keys) - 1
			if child.isLeaf() {
				child.keys = slices.Insert(child.keys, 0, left.keys[last])
				child.vals = slices.Insert(child.vals, 0, left.vals[last])
				left.vals = left.vals[:last]
				parent.keys[at-1] = child.keys[0]
			} else {
				child.keys = slices.Insert(child.keys, 0, parent.keys[at-1])
				parent.keys[at-1] = left.keys[last]
				child.children = slices.Insert(child.children, 0, left.children[last+1])
				left.children = slices.Delete(left.children, last+1, last+2)
			}
			left.keys = left.keys[:last]
			return false
		}
	}
	// Try borrowing from the right sibling.
	if at < len(parent.children)-1 {
		right := parent.children[at+1]
		if len(right.keys) > t.order/2 {
			if child.isLeaf() {
				child.keys = append(child.keys, right.keys[0])
				child.vals = append(child.vals, right.vals[0])
				right.vals = slices.Delete(right.vals, 0, 1)
				parent.keys[at] = right.keys[1]
			} else {
				child.keys = append(child.keys, parent.keys[at])
				parent.keys[at] = right.keys[0]
				child.children = append(child.children, right.children[0])
				right.children = slices.Delete(right.children, 0, 1)
			}
			right.keys = slices.Delete(right.keys, 0, 1)
			return false
		}
	}
	// Merge with a sibling.
	l := at
	if at == len(parent.children)-1 {
		l = at - 1
	}
	if l < 0 {
		return false // root with a single child; handled by the caller
	}
	left, right := parent.children[l], parent.children[l+1]
	if left.isLeaf() {
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
	} else {
		left.keys = append(left.keys, parent.keys[l])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	parent.keys = slices.Delete(parent.keys, l, l+1)
	parent.children = slices.Delete(parent.children, l+1, l+2)
	return true
}

// Range implements index.RangeIndex via the leaf chain.
func (t *Tree) Range(lo, hi uint64, fn func(key, val uint64) bool) {
	if hi < lo {
		return
	}
	n := t.findLeaf(lo, nil)
	for n != nil {
		for i, k := range n.keys {
			if k < lo {
				continue
			}
			if k > hi {
				return
			}
			if !fn(k, n.vals[i]) {
				return
			}
		}
		n = n.next
	}
}

// Bytes implements index.Index.
func (t *Tree) Bytes() int {
	total := 0
	var visit func(n *node)
	visit = func(n *node) {
		total += 96 + 8*(len(n.keys)+len(n.vals)+len(n.children))
		for _, c := range n.children {
			visit(c)
		}
	}
	visit(t.root)
	return total
}

// Stats implements index.StatsProvider. A B+Tree's "model error" is the
// binary-search width of its leaves; MaxError/AvgError report half the leaf
// occupancy as the comparable probe distance.
func (t *Tree) Stats() index.Stats {
	var s index.Stats
	var keySum int
	var depthSum, errSum float64
	var visit func(n *node, d int)
	visit = func(n *node, d int) {
		s.Nodes++
		if n.isLeaf() {
			if d > s.MaxHeight {
				s.MaxHeight = d
			}
			if half := len(n.keys) / 2; half > s.MaxError {
				s.MaxError = half
			}
			keySum += len(n.keys)
			depthSum += float64(d) * float64(len(n.keys))
			errSum += float64(len(n.keys)) * float64(len(n.keys)) / 2
			return
		}
		for _, c := range n.children {
			visit(c, d+1)
		}
	}
	visit(t.root, 1)
	if keySum > 0 {
		s.AvgHeight = depthSum / float64(keySum)
		s.AvgError = errSum / float64(keySum)
	}
	return s
}
