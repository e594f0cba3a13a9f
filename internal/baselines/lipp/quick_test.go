package lipp

import (
	"testing"
	"testing/quick"

	"chameleon/internal/dataset"
)

// TestBuildRetrievesEverything: precise-position construction never loses a
// key, for any distribution.
func TestBuildRetrievesEverything(t *testing.T) {
	f := func(raw []uint64) bool {
		keys := dataset.SortDedup(raw)
		if len(keys) == 0 {
			return true
		}
		nd := NewNode(keys, nil)
		if nd.n != len(keys) {
			return false
		}
		for _, k := range keys {
			if v, ok := nd.Lookup(k); !ok || v != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWalkRangeIsSortedSubset: WalkRange output is exactly the sorted keys
// inside the bounds.
func TestWalkRangeIsSortedSubset(t *testing.T) {
	f := func(raw []uint64, a, b uint64) bool {
		keys := dataset.SortDedup(raw)
		if len(keys) == 0 {
			return true
		}
		if a > b {
			a, b = b, a
		}
		nd := NewNode(keys, nil)
		want := make([]uint64, 0)
		for _, k := range keys {
			if k >= a && k <= b {
				want = append(want, k)
			}
		}
		got := make([]uint64, 0, len(want))
		nd.WalkRange(a, b, func(k, v uint64) bool {
			got = append(got, k)
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
