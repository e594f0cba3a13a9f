// Package costmodel estimates the query-time and memory cost of a candidate
// Chameleon structure over a concrete key set. It is the reward environment
// of Section IV: R_t ("the cost of traversing the tree and secondary
// searches within leaf nodes") and R_m ("the memory usage of the nodes after
// taking actions"), combined by the dynamic reward function
// r = −(w_t·R_t + w_m·R_m). The DQN critics learn to approximate these
// values; the deterministic CostPolicy evaluates them directly.
package costmodel

import (
	"math"

	"chameleon/internal/ebh"
)

// Cost is a (query, memory) cost pair. Query is in expected "steps" per
// lookup (node visits plus leaf probe distance); Memory is normalized to
// 16-byte key/value units per stored key, so both components are O(1) and
// can be mixed by the DRF weights.
type Cost struct {
	Query  float64
	Memory float64
}

// Reward applies the dynamic reward function of Section IV-B2:
// r = −(w_t·R_t + w_m·R_m). Larger is better.
func Reward(c Cost, wt, wm float64) float64 {
	return -(wt*c.Query + wm*c.Memory)
}

// innerNodeUnits is the normalized memory charge for one inner-node child
// slot: an 8-byte pointer in 16-byte key/value units.
const innerNodeUnits = 0.5

// CacheFactor models the memory-hierarchy cost of a random access into a
// leaf slab: each doubling of the slot array adds this many steps to the
// expected lookup. The paper measures rewards on real hardware where this
// effect is implicit; without it a single giant EBH leaf would always look
// optimal and the agents would never partition.
const CacheFactor = 0.15

// Leaf simulates EBH placement of the keys over the interval [lo, hi] and
// returns the expected lookup cost (1 home-slot access + mean probe
// distance) and normalized memory. It is exact for the hash of Eq. (2)
// rather than a balls-in-bins approximation, so integer-gap aliasing with α
// is captured.
func Leaf(keys []uint64, lo, hi uint64, tau, alpha float64) Cost {
	var counts []int32
	return leafCost(keys, lo, hi, tau, alpha, &counts)
}

// leafCost is Leaf with a caller-owned slot-count buffer, so a tree walk pays
// one allocation for all its leaves instead of one per leaf.
func leafCost(keys []uint64, lo, hi uint64, tau, alpha float64, buf *[]int32) Cost {
	n := len(keys)
	if n == 0 {
		return Cost{Query: 1, Memory: 0}
	}
	if alpha == 0 {
		alpha = ebh.DefaultAlpha
	}
	if tau <= 0 || tau >= 1 {
		tau = ebh.DefaultTau
	}
	c := ebh.CapacityFor(n, tau)
	if c < 8 {
		c = 8
	}
	span := hi - lo
	counts := slotCounts(buf, c)
	cf := float64(c)
	invC := 1 / cf
	var scale float64
	if span > 0 {
		scale = alpha * cf / float64(span)
	}
	var probeSum float64
	for _, k := range keys {
		var home int
		if span > 0 {
			x := scale * float64(k-lo)
			x -= math.Trunc(x*invC) * cf
			home = int(x)
			if home >= c {
				home = c - 1
			}
			if home < 0 {
				home = 0
			}
		}
		// Each prior key in the same home slot forces roughly one extra
		// probe step (alternating ±1, ±2, ... placement).
		probeSum += float64(counts[home]+1) / 2
		counts[home]++
	}
	return Cost{
		Query:  1 + probeSum/float64(n) + CacheFactor*math.Log2(float64(c)),
		Memory: float64(c) / float64(n),
	}
}

// slotCounts returns c zeroed counters, reusing *buf when it is large enough.
func slotCounts(buf *[]int32, c int) []int32 {
	if cap(*buf) < c {
		*buf = make([]int32, c)
		return *buf
	}
	counts := (*buf)[:c]
	clear(counts)
	return counts
}

// Partition splits sorted keys into fanout contiguous child ranges using the
// inner-node model of Eq. (1): child j covers keys with
// floor(f·(k−lo)/(hi−lo)) = j. The returned slice has fanout entries of
// [start, end) index pairs into keys.
func Partition(keys []uint64, lo, hi uint64, fanout int) [][2]int {
	parts := make([][2]int, fanout)
	span := hi - lo
	if span == 0 || fanout <= 1 {
		for j := range parts {
			parts[j] = [2]int{len(keys), len(keys)}
		}
		parts[0] = [2]int{0, len(keys)}
		return parts
	}
	start := 0
	for j := 0; j < fanout; j++ {
		end := start
		for end < len(keys) {
			child := ChildIndex(keys[end], lo, hi, fanout)
			if child != j {
				break
			}
			end++
		}
		parts[j] = [2]int{start, end}
		start = end
	}
	// Any residue (only possible from float rounding at the top boundary)
	// belongs to the last child.
	if start < len(keys) {
		parts[fanout-1][1] = len(keys)
	}
	return parts
}

// ChildIndex evaluates Eq. (1) and clamps into [0, fanout).
func ChildIndex(k, lo, hi uint64, fanout int) int {
	span := hi - lo
	if span == 0 {
		return 0
	}
	j := int(float64(fanout) / float64(span) * float64(k-lo))
	if j >= fanout {
		j = fanout - 1
	}
	if j < 0 {
		j = 0
	}
	return j
}

// ChildInterval returns the key interval [clo, chi] covered by child j of a
// node over [lo, hi] with the given fanout.
func ChildInterval(lo, hi uint64, fanout, j int) (clo, chi uint64) {
	span := hi - lo
	w := float64(span) / float64(fanout)
	clo = lo + uint64(w*float64(j))
	if j == fanout-1 {
		chi = hi
	} else {
		chi = lo + uint64(w*float64(j+1))
		if chi > lo {
			chi--
		}
	}
	if chi < clo {
		chi = clo
	}
	return clo, chi
}

// forEachChild calls visit(start, end, j) for every non-empty child j of the
// node over [lo, hi] with fanout f > 1, in child order, where keys[start:end]
// is exactly what Partition assigns to child j — including its residue rule
// when rounding makes the child index fall. Empty children are never
// visited or allocated, so a call costs O(len(keys)) whatever f is. The
// Eq. (1) factor f/span is computed once per node and multiplied exactly as
// ChildIndex does, so every key lands in the same child bit for bit.
func forEachChild(keys []uint64, lo, hi uint64, f int, visit func(start, end, j int)) {
	span := hi - lo
	if span == 0 {
		visit(0, len(keys), 0)
		return
	}
	scale := float64(f) / float64(span)
	child := func(k uint64) int {
		j := int(scale * float64(k-lo))
		if j >= f {
			j = f - 1
		}
		if j < 0 {
			j = 0
		}
		return j
	}
	for start := 0; start < len(keys); {
		j := child(keys[start])
		end := start + 1
		for end < len(keys) {
			c := child(keys[end])
			if c == j {
				end++
				continue
			}
			if c < j {
				// Partition stops matching at a falling index and hands the
				// rest of the keys to the last child.
				if j < f-1 {
					visit(start, end, j)
					start, j = end, f-1
				}
				end = len(keys)
			}
			break
		}
		visit(start, end, j)
		start = end
	}
}

// FanoutFn supplies the fanout of the node covering [lo, hi] at the given
// level (root = 1). Returning 1 or less makes the node a leaf.
type FanoutFn func(level int, lo, hi uint64, n int) int

// TreeCost estimates the whole-structure cost of building a tree over the
// sorted keys where each node's fanout comes from fan, capped at maxLevels
// of inner nodes (deeper nodes become leaves). Query cost is the key-count-
// weighted mean over all leaves of (depth + leaf cost); memory sums leaf
// slabs and inner child arrays, normalized per key.
//
// The walk visits only non-empty children: an empty child is a leaf that
// adds exactly +0 to both sums, so skipping it leaves the result bitwise
// unchanged and fan is never asked about it.
func TreeCost(keys []uint64, lo, hi uint64, maxLevels int, fan FanoutFn, tau, alpha float64) Cost {
	if len(keys) == 0 {
		return Cost{}
	}
	var qSum, mUnits float64
	var counts []int32
	var walk func(ks []uint64, lo, hi uint64, level int)
	walk = func(ks []uint64, lo, hi uint64, level int) {
		f := 1
		if level <= maxLevels {
			f = fan(level, lo, hi, len(ks))
		}
		if f <= 1 || len(ks) <= 1 {
			leaf := leafCost(ks, lo, hi, tau, alpha, &counts)
			qSum += float64(len(ks)) * (float64(level-1) + leaf.Query)
			mUnits += leaf.Memory * float64(len(ks))
			return
		}
		mUnits += innerNodeUnits * float64(f)
		forEachChild(ks, lo, hi, f, func(start, end, j int) {
			clo, chi := ChildInterval(lo, hi, f, j)
			walk(ks[start:end], clo, chi, level+1)
		})
	}
	walk(keys, lo, hi, 1)
	n := float64(len(keys))
	return Cost{Query: qSum / n, Memory: mUnits / n}
}
