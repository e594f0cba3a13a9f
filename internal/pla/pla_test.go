package pla

import (
	"sort"
	"testing"
	"testing/quick"

	"chameleon/internal/dataset"
)

func TestErrorBoundHolds(t *testing.T) {
	for _, name := range dataset.Names {
		keys := dataset.Generate(name, 50_000, 13)
		for _, eps := range []int{4, 16, 64, 256} {
			segs := Build(keys, eps)
			if got := MaxError(segs, keys); got > eps {
				t.Fatalf("%s ε=%d: max error %d exceeds bound", name, eps, got)
			}
		}
	}
}

func TestErrorBoundProperty(t *testing.T) {
	f := func(raw []uint64, epsRaw uint8) bool {
		keys := dataset.SortDedup(raw)
		if len(keys) == 0 {
			return true
		}
		eps := int(epsRaw)%32 + 1
		segs := Build(keys, eps)
		return MaxError(segs, keys) <= eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentsCoverAllRanks(t *testing.T) {
	keys := dataset.Generate(dataset.LOGN, 10_000, 5)
	segs := Build(keys, 32)
	total := 0
	for i, s := range segs {
		if s.N <= 0 {
			t.Fatalf("segment %d covers %d keys", i, s.N)
		}
		if s.Start != total {
			t.Fatalf("segment %d starts at %d, want %d", i, s.Start, total)
		}
		total += s.N
	}
	if total != len(keys) {
		t.Fatalf("segments cover %d keys, want %d", total, len(keys))
	}
}

func TestFewerSegmentsWithLargerEpsilon(t *testing.T) {
	keys := dataset.Generate(dataset.FACE, 50_000, 7)
	tight := Build(keys, 4)
	loose := Build(keys, 256)
	if len(loose) >= len(tight) {
		t.Fatalf("ε=256 produced %d segments, ε=4 produced %d", len(loose), len(tight))
	}
}

func TestLinearDataOneSegment(t *testing.T) {
	keys := make([]uint64, 10_000)
	for i := range keys {
		keys[i] = uint64(i) * 50
	}
	segs := Build(keys, 2)
	if len(segs) != 1 {
		t.Fatalf("perfectly linear data produced %d segments", len(segs))
	}
}

func TestFindBoundaries(t *testing.T) {
	keys := []uint64{10, 20, 30, 1000, 2000, 3000}
	segs := Build(keys, 1)
	if Find(segs, 0) != 0 {
		t.Fatal("key before all segments must map to segment 0")
	}
	if got := Find(segs, 99999); got != len(segs)-1 {
		t.Fatalf("key after all segments maps to %d", got)
	}
	for _, k := range keys {
		s := segs[Find(segs, k)]
		if k < s.FirstKey {
			t.Fatalf("Find(%d) returned segment starting at %d", k, s.FirstKey)
		}
	}
}

func TestDegenerate(t *testing.T) {
	if segs := Build(nil, 8); len(segs) != 0 {
		t.Fatal("empty input produced segments")
	}
	segs := Build([]uint64{42}, 8)
	if len(segs) != 1 || segs[0].N != 1 {
		t.Fatalf("single key: %+v", segs)
	}
	if segs[0].Predict(42) != 0 {
		t.Fatal("single-key prediction wrong")
	}
}

// MaxError returns the largest |Predict − rank| over all keys; the
// construction invariant is that it stays ≤ ε.
func MaxError(segs []Segment, keys []uint64) int {
	worst := 0
	for rank, k := range keys {
		s := segs[Find(segs, k)]
		d := s.Predict(k) - rank
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// Find returns the index of the segment responsible for k (the last segment
// whose FirstKey ≤ k), or 0 if k precedes all segments.
func Find(segs []Segment, k uint64) int {
	i := sort.Search(len(segs), func(i int) bool { return segs[i].FirstKey > k })
	if i > 0 {
		i--
	}
	return i
}
