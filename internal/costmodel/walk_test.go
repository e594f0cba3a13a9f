package costmodel

import (
	"math"
	"testing"

	"chameleon/internal/dataset"
)

// refTreeCost and refWeightedTreeCost are the Partition-based walks TreeCost
// made, unweighted and weighted, before it learned to skip empty children,
// kept as the reference the run walk must reproduce bit for bit: the root
// has fanout p0 and every inner node at levels 2..maxLevels fanout g.
func refTreeCost(keys []uint64, lo, hi uint64, maxLevels, p0, g int, tau, alpha float64) Cost {
	if len(keys) == 0 {
		return Cost{}
	}
	var qSum, mUnits float64
	var walk func(ks []uint64, lo, hi uint64, level, f int)
	walk = func(ks []uint64, lo, hi uint64, level, f int) {
		if level > maxLevels {
			f = 1
		}
		if f <= 1 || len(ks) <= 1 {
			leaf := Leaf(ks, lo, hi, tau, alpha)
			qSum += float64(len(ks)) * (float64(level-1) + leaf.Query)
			mUnits += leaf.Memory * float64(len(ks))
			return
		}
		mUnits += innerNodeUnits * float64(f)
		parts := Partition(ks, lo, hi, f)
		for j, p := range parts {
			clo, chi := ChildInterval(lo, hi, f, j)
			walk(ks[p[0]:p[1]], clo, chi, level+1, g)
		}
	}
	walk(keys, lo, hi, 1, p0)
	n := float64(len(keys))
	return Cost{Query: qSum / n, Memory: mUnits / n}
}

func refWeightedTreeCost(keys []uint64, weights []float64, lo, hi uint64, maxLevels, p0, g int, tau, alpha float64) Cost {
	if len(keys) == 0 {
		return Cost{}
	}
	if weights == nil {
		return refTreeCost(keys, lo, hi, maxLevels, p0, g, tau, alpha)
	}
	var qSum, wTotal, mUnits float64
	var walk func(ks []uint64, ws []float64, lo, hi uint64, level, f int)
	walk = func(ks []uint64, ws []float64, lo, hi uint64, level, f int) {
		if level > maxLevels {
			f = 1
		}
		if f <= 1 || len(ks) <= 1 {
			leaf := weightedLeafCost(ks, ws, lo, hi, tau, alpha, new([]int32))
			var w float64
			for _, x := range ws {
				w += x
			}
			qSum += w * (float64(level-1) + leaf.Query)
			wTotal += w
			mUnits += leaf.Memory * float64(len(ks))
			return
		}
		mUnits += innerNodeUnits * float64(f)
		parts := Partition(ks, lo, hi, f)
		for j, p := range parts {
			clo, chi := ChildInterval(lo, hi, f, j)
			walk(ks[p[0]:p[1]], ws[p[0]:p[1]], clo, chi, level+1, g)
		}
	}
	walk(keys, weights, lo, hi, 1, p0)
	if wTotal == 0 {
		return refTreeCost(keys, lo, hi, maxLevels, p0, g, tau, alpha)
	}
	return Cost{Query: qSum / wTotal, Memory: mUnits / float64(len(keys))}
}

// mix is a splitmix64 finalizer, the test's source of pseudo-random draws.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// randomShape draws a tree shape: root fanouts up to 2^20 (a quarter of
// them powers of two, including 1 and 2^20), inner fanouts up to 1024 (a
// quarter of them 1, so every level-2 node is a leaf), and 1 to 3 levels of
// inner nodes.
func randomShape(seed uint64) (p0, g, maxLevels int) {
	p0 = 1 + int(mix(seed)%(1<<20))
	if seed%4 == 0 {
		p0 = 1 << (mix(seed+1) % 21)
	}
	g = 1
	if r := mix(seed + 2); r%4 != 0 {
		g = 1 + int(r>>8%1024)
	}
	return p0, g, 1 + int(mix(seed+3)%3)
}

func weightsFor(keys []uint64, seed uint64) []float64 {
	ws := make([]float64, len(keys))
	for i := range ws {
		ws[i] = float64(mix(seed+uint64(i))%1000) / 7
	}
	return ws
}

func sameBits(a, b Cost) bool {
	return math.Float64bits(a.Query) == math.Float64bits(b.Query) &&
		math.Float64bits(a.Memory) == math.Float64bits(b.Memory)
}

// TestRunWalkMatchesPartitionWalk is the bit-identity contract of the run
// walk: on every generator, for random tree shapes (p0, g, maxLevels), and
// on the edge key sets, TreeCost returns the same float64 bits as the
// Partition-based reference, with nil and with random weights.
func TestRunWalkMatchesPartitionWalk(t *testing.T) {
	type input struct {
		name   string
		keys   []uint64
		lo, hi uint64
	}
	var inputs []input
	for i, name := range dataset.Names {
		ks := dataset.Generate(name, 8_000, uint64(i+1))
		inputs = append(inputs, input{name, ks, ks[0], ks[len(ks)-1]})
	}
	inputs = append(inputs,
		input{"zero-span", []uint64{7, 7, 7, 7}, 7, 7},
		input{"one-key", []uint64{42}, 42, 42},
		input{"one-key-wide", []uint64{42}, 0, math.MaxUint64},
		input{"extremes", []uint64{0, 1, 2, 1 << 32, 1 << 63, math.MaxUint64 - 2, math.MaxUint64 - 1, math.MaxUint64}, 0, math.MaxUint64},
	)
	// Keys below lo wrap around in k−lo, whose out-of-range float-to-int
	// conversion is platform-defined: on some platforms the child index then
	// falls, which is Partition's residue rule. An interval narrower than
	// the keys puts keys outside it on both sides.
	ks := dataset.Generate(dataset.FACE, 4_000, 9)
	inputs = append(inputs,
		input{"narrow", ks, ks[len(ks)/3], ks[2*len(ks)/3]},
		input{"boundaries", boundaryKeys(0, math.MaxUint64, 1000), 0, math.MaxUint64},
	)

	seeds := 20
	if testing.Short() {
		seeds = 6
	}
	for _, in := range inputs {
		for s := 0; s < seeds; s++ {
			seed := uint64(s)*0x9e3779b97f4a7c15 + 1
			p0, g, maxLevels := randomShape(seed)
			got := new(Counters).TreeCost(in.keys, nil, in.lo, in.hi, maxLevels, p0, g, 0.45, 131)
			want := refTreeCost(in.keys, in.lo, in.hi, maxLevels, p0, g, 0.45, 131)
			if !sameBits(got, want) {
				t.Fatalf("%s seed %d (p0 %d, g %d, levels %d): TreeCost %+v, reference %+v", in.name, s, p0, g, maxLevels, got, want)
			}
			ws := weightsFor(in.keys, seed)
			got = new(Counters).TreeCost(in.keys, ws, in.lo, in.hi, maxLevels, p0, g, 0.45, 131)
			want = refWeightedTreeCost(in.keys, ws, in.lo, in.hi, maxLevels, p0, g, 0.45, 131)
			if !sameBits(got, want) {
				t.Fatalf("%s seed %d (p0 %d, g %d, levels %d): weighted TreeCost %+v, reference %+v", in.name, s, p0, g, maxLevels, got, want)
			}
		}
	}
}

// boundaryKeys puts keys on and beside every child boundary of a fanout-f
// node over [lo, hi], where float rounding decides the child.
func boundaryKeys(lo, hi uint64, f int) []uint64 {
	var ks []uint64
	for j := 1; j < f; j++ {
		clo, _ := ChildInterval(lo, hi, f, j)
		ks = append(ks, clo-1, clo, clo+1)
	}
	return dataset.SortDedup(ks)
}

// TestForEachChildMatchesPartition checks the grouping itself against
// Partition, child by child, including the empty children it skips.
func TestForEachChildMatchesPartition(t *testing.T) {
	osmc := dataset.Generate(dataset.OSMC, 5_000, 3)
	for _, b := range []struct {
		ks     []uint64
		lo, hi uint64
	}{
		{osmc, osmc[0], osmc[len(osmc)-1]},
		{osmc, osmc[100], osmc[len(osmc)-100]}, // keys outside the interval on both sides
		{osmc, osmc[0], osmc[0]},
		{boundaryKeys(0, math.MaxUint64, 1000), 0, math.MaxUint64},
		{boundaryKeys(12345, 1e18+7, 999), 12345, 1e18 + 7},
		{boundaryKeys(1<<40, 1<<40+3_000_017, 1000), 1 << 40, 1<<40 + 3_000_017},
	} {
		ks := b.ks
		for _, f := range []int{2, 3, 64, 999, 1000, 1 << 20} {
			parts := Partition(ks, b.lo, b.hi, f)
			unvisited := [2]int{-1, -1}
			seen := make([][2]int, f)
			for j := range seen {
				seen[j] = unvisited
			}
			prev := -1
			forEachChild(ks, b.lo, b.hi, f, func(start, end, j int) {
				if j <= prev || start >= end {
					t.Fatalf("[%d,%d] f=%d: child %d [%d,%d) after child %d", b.lo, b.hi, f, j, start, end, prev)
				}
				prev = j
				seen[j] = [2]int{start, end}
			})
			for j, p := range parts {
				want := p
				if p[0] == p[1] {
					want = unvisited // empty children are skipped
				}
				if seen[j] != want {
					t.Fatalf("[%d,%d] f=%d child %d: run walk %v, Partition %v", b.lo, b.hi, f, j, seen[j], p)
				}
			}
		}
	}
}
