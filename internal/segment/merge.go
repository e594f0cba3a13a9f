package segment

import (
	"container/heap"
	"errors"
)

// Iterator is the streaming surface the merge consumes: segment Iters, the
// memtable dump, and compaction inputs all satisfy it.
type Iterator interface {
	// Next advances to the next entry, reporting false at exhaustion or
	// error.
	Next() bool
	// Entry returns the current entry after a true Next.
	Entry() Entry
	// Err reports the first failure the iteration hit, if any.
	Err() error
}

// SliceIter adapts an in-memory, key-ascending entry slice to Iterator.
type SliceIter struct {
	entries []Entry
	i       int
}

// NewSliceIter wraps entries (which must already be sorted ascending by key).
func NewSliceIter(entries []Entry) *SliceIter { return &SliceIter{entries: entries} }

func (s *SliceIter) Next() bool {
	if s.i >= len(s.entries) {
		return false
	}
	s.i++
	return true
}
func (s *SliceIter) Entry() Entry { return s.entries[s.i-1] }
func (s *SliceIter) Err() error   { return nil }

// mergeItem is one source's head inside the merge heap.
type mergeItem struct {
	it   Iterator
	cur  Entry
	prio int // lower = newer source; wins key ties
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].cur.Key != h[j].cur.Key {
		return h[i].cur.Key < h[j].cur.Key
	}
	return h[i].prio < h[j].prio
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Merge is a k-way merge over key-sorted sources with newest-first
// shadowing: sources are given newest first, and when several sources carry
// the same key only the newest's entry is yielded. Tombstones are yielded
// too (as Entry.Tomb) — the consumer decides whether to surface or elide
// them. This one primitive backs Range stitching (memtable first, then
// segments newest-to-oldest) and compaction (where the consumer drops
// tombstones when merging the full overlap).
type Merge struct {
	h   mergeHeap
	cur Entry
	err error
}

// NewMerge builds the merge. sources[0] is the NEWEST (its entries shadow
// all others on key ties), sources[len-1] the oldest. Nil sources are
// skipped.
func NewMerge(sources ...Iterator) *Merge {
	m := &Merge{h: make(mergeHeap, 0, len(sources))}
	for prio, it := range sources {
		if it == nil {
			continue
		}
		if it.Next() {
			m.h = append(m.h, mergeItem{it: it, cur: it.Entry(), prio: prio})
		} else if err := it.Err(); err != nil && m.err == nil {
			m.err = err
		}
	}
	heap.Init(&m.h)
	return m
}

// Next advances to the next surviving entry (newest version of the next
// distinct key), reporting false at exhaustion or error.
func (m *Merge) Next() bool {
	if m.err != nil {
		return false
	}
	for len(m.h) > 0 {
		top := m.h[0]
		key := top.cur.Key
		m.cur = top.cur // lowest prio for this key sits at the root
		// Drain every source positioned at this key, advancing each.
		for len(m.h) > 0 && m.h[0].cur.Key == key {
			src := &m.h[0]
			if src.it.Next() {
				src.cur = src.it.Entry()
				if src.cur.Key <= key {
					m.err = errMergeOrder
					return false
				}
				heap.Fix(&m.h, 0)
			} else {
				if err := src.it.Err(); err != nil {
					m.err = err
					return false
				}
				heap.Pop(&m.h)
			}
		}
		return true
	}
	return false
}

var errMergeOrder = errors.New("segment: merge source not strictly ascending")

// Entry returns the current entry after a true Next.
func (m *Merge) Entry() Entry { return m.cur }

// Err reports the first source failure, if any.
func (m *Merge) Err() error { return m.err }
