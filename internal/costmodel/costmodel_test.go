package costmodel

import (
	"testing"
	"testing/quick"

	"chameleon/internal/dataset"
)

func TestPartitionCoversAllKeysInOrder(t *testing.T) {
	f := func(raw []uint64, fanoutRaw uint8) bool {
		keys := dataset.SortDedup(raw)
		if len(keys) == 0 {
			return true
		}
		fanout := int(fanoutRaw)%16 + 1
		lo, hi := keys[0], keys[len(keys)-1]
		parts := Partition(keys, lo, hi, fanout)
		if len(parts) != fanout {
			return false
		}
		prev := 0
		for j, p := range parts {
			if p[0] != prev || p[1] < p[0] {
				return false
			}
			for i := p[0]; i < p[1]; i++ {
				// Every key must be routed to its Eq. (1) child (modulo the
				// residue rule for the final child).
				if c := ChildIndex(keys[i], lo, hi, fanout); c != j && j != fanout-1 {
					return false
				}
			}
			prev = p[1]
		}
		return prev == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChildIndexBoundsAndMonotone(t *testing.T) {
	keys := dataset.Generate(dataset.FACE, 20_000, 1)
	lo, hi := keys[0], keys[len(keys)-1]
	for _, fanout := range []int{1, 2, 7, 256, 1024} {
		prev := 0
		for _, k := range keys {
			c := ChildIndex(k, lo, hi, fanout)
			if c < 0 || c >= fanout {
				t.Fatalf("ChildIndex out of range: %d for fanout %d", c, fanout)
			}
			if c < prev {
				t.Fatalf("ChildIndex not monotone: %d after %d", c, prev)
			}
			prev = c
		}
	}
}

func TestChildIntervalTilesParent(t *testing.T) {
	lo, hi := uint64(1000), uint64(987_654_321)
	for _, fanout := range []int{2, 3, 64} {
		prevHi := lo - 1
		for j := 0; j < fanout; j++ {
			clo, chi := ChildInterval(lo, hi, fanout, j)
			if clo != prevHi+1 && !(j == 0 && clo == lo) {
				t.Fatalf("fanout %d child %d: gap or overlap (clo=%d prevHi=%d)", fanout, j, clo, prevHi)
			}
			if chi < clo {
				t.Fatalf("fanout %d child %d: inverted interval", fanout, j)
			}
			prevHi = chi
		}
		if prevHi != hi {
			t.Fatalf("fanout %d: children end at %d, want %d", fanout, prevHi, hi)
		}
	}
}

func TestLeafCostSane(t *testing.T) {
	keys := dataset.Uniform(10_000, 2)
	c := Leaf(keys, keys[0], keys[len(keys)-1], 0.45, 131)
	if c.Query < 1 {
		t.Fatalf("leaf query cost %v below 1", c.Query)
	}
	// 1 home access + small probe + cache term (≈ 0.15·log2(16.7k) ≈ 2.1).
	if c.Query > 5 {
		t.Fatalf("leaf query cost %v implausibly high for τ=0.45", c.Query)
	}
	// Theorem 1 capacity ratio for τ=0.45 is ≈ 1.67 slots per key.
	if c.Memory < 1.0 || c.Memory > 2.5 {
		t.Fatalf("leaf memory %v per key outside expected band", c.Memory)
	}
	if e := Leaf(nil, 0, 0, 0, 0); e.Query != 1 || e.Memory != 0 {
		t.Fatalf("empty leaf cost = %+v", e)
	}
}

func TestTreeCostPrefersPartitioningSkewedData(t *testing.T) {
	// On locally skewed data, a 256-way split should beat one giant leaf in
	// query cost — the signal the RL agents learn from.
	keys := dataset.Generate(dataset.FACE, 100_000, 4)
	lo, hi := keys[0], keys[len(keys)-1]
	leafOnly := new(Counters).TreeCost(keys, nil, lo, hi, 3, 1, 1, 0.45, 131)
	split := new(Counters).TreeCost(keys, nil, lo, hi, 3, 256, 1, 0.45, 131)
	// The cache-depth term makes many small leaves cheaper to probe than
	// one 100k-key slab even after paying a traversal step.
	if split.Query >= leafOnly.Query {
		t.Fatalf("splitting did not reduce query cost: %.3f vs %.3f", split.Query, leafOnly.Query)
	}
	if split.Memory > 4*leafOnly.Memory+4 {
		t.Fatalf("split memory %.3f far above leaf-only %.3f", split.Memory, leafOnly.Memory)
	}
}

func TestTreeCostDepthAccounting(t *testing.T) {
	keys := dataset.Uniform(4096, 9)
	lo, hi := keys[0], keys[len(keys)-1]
	depth1 := new(Counters).TreeCost(keys, nil, lo, hi, 1, 1, 1, 0, 0)
	depth3 := new(Counters).TreeCost(keys, nil, lo, hi, 3, 4, 4, 0, 0)
	// Three levels of fanout-4 inner nodes add 3 to the path length.
	if depth3.Query < depth1.Query+2 {
		t.Fatalf("deep tree query cost %.3f not above shallow %.3f + traversal", depth3.Query, depth1.Query)
	}
}

func TestRewardSign(t *testing.T) {
	good := Cost{Query: 1.1, Memory: 1.5}
	bad := Cost{Query: 5, Memory: 3}
	if Reward(good, 0.5, 0.5) <= Reward(bad, 0.5, 0.5) {
		t.Fatal("reward must prefer cheaper structures")
	}
	if Reward(good, 1, 0) >= 0 {
		t.Fatal("reward of a positive cost must be negative")
	}
}

func TestWeightedLeafMatchesUniformWeights(t *testing.T) {
	keys := dataset.Generate(dataset.OSMC, 10_000, 5)
	lo, hi := keys[0], keys[len(keys)-1]
	uni := make([]float64, len(keys))
	for i := range uni {
		uni[i] = 1
	}
	a := Leaf(keys, lo, hi, 0.45, 131)
	b := weightedLeafCost(keys, uni, lo, hi, 0.45, 131, new([]int32))
	if d := a.Query - b.Query; d > 1e-9 || d < -1e-9 {
		t.Fatalf("uniform weights differ from unweighted: %v vs %v", a.Query, b.Query)
	}
	if a.Memory != b.Memory {
		t.Fatalf("memory mismatch: %v vs %v", a.Memory, b.Memory)
	}
	if c := weightedLeafCost(keys, nil, lo, hi, 0.45, 131, new([]int32)); c != a {
		t.Fatalf("nil weights must fall back to Leaf")
	}
}

func TestWeightedTreeCostFavorsHotRegions(t *testing.T) {
	// All the query mass on the first decile: a structure that partitions
	// must score that decile's depth, not the cold tail's.
	keys := dataset.Generate(dataset.FACE, 50_000, 6)
	lo, hi := keys[0], keys[len(keys)-1]
	hot := make([]float64, len(keys))
	for i := 0; i < len(keys)/10; i++ {
		hot[i] = 1
	}
	weighted := new(Counters).TreeCost(keys, hot, lo, hi, 2, 64, 1, 0.45, 131)
	uniform := new(Counters).TreeCost(keys, nil, lo, hi, 2, 64, 1, 0.45, 131)
	if weighted.Query <= 0 || uniform.Query <= 0 {
		t.Fatal("nonpositive costs")
	}
	// Memory is access-independent.
	if d := weighted.Memory - uniform.Memory; d > 1e-9 || d < -1e-9 {
		t.Fatalf("weighted memory %v differs from uniform %v", weighted.Memory, uniform.Memory)
	}
	// Degenerate weights fall back to the unweighted cost.
	zero := make([]float64, len(keys))
	fb := new(Counters).TreeCost(keys, zero, lo, hi, 2, 64, 1, 0.45, 131)
	if fb != uniform {
		t.Fatalf("zero weights did not fall back: %+v vs %+v", fb, uniform)
	}
}
