// Package costmodel estimates the query-time and memory cost of a candidate
// Chameleon structure over a concrete key set. It is the reward environment
// of Section IV: R_t ("the cost of traversing the tree and secondary
// searches within leaf nodes") and R_m ("the memory usage of the nodes after
// taking actions"), combined by the dynamic reward function
// r = −(w_t·R_t + w_m·R_m). The paper's Q-networks learn to approximate
// these values; rl.CostPolicy and rl.CostDARE evaluate them directly:
// Lookahead values one node's fanout for CostPolicy, and TreeCost prices
// the upper levels DARE's two numbers describe (root fanout p0, fanout g
// of every inner node below it) for CostDARE.
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

// StepReward is the immediate TSMDP reward of making an n-key node an inner
// node of fanout f: every key below pays one more traversal step, and the f
// child pointers are spread over the keys.
func StepReward(f, n int, wt, wm float64) float64 {
	return Reward(Cost{Query: 1, Memory: float64(f) / float64(n)}, wt, wm)
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
	m := newLeafModel(tau, alpha)
	return m.cost(keys, lo, hi)
}

// leafModel is what Leaf needs besides a leaf's keys: τ and α with their
// defaults applied, Theorem 1's divisor −ln(1−τ) computed once, the cost of
// a one-key leaf, and a slot-count buffer, so a walk over many leaves pays
// for each of them only its own keys.
type leafModel struct {
	alpha  float64
	sizing ebh.Sizing
	one    Cost // cost of every one-key leaf
	counts []int32
}

func newLeafModel(tau, alpha float64) leafModel {
	if alpha == 0 {
		alpha = ebh.DefaultAlpha
	}
	m := leafModel{alpha: alpha, sizing: ebh.SizingFor(tau)}
	// A lone key sits in its home slot whatever its hash: ½ probe.
	m.one = leafCostOf(0.5, 1, m.capacity(1))
	return m
}

// capacity is the slot count of an n-key leaf.
func (m *leafModel) capacity(n int) int { return max(m.sizing.Capacity(n), 8) }

// leafCostOf is the cost of an n-key leaf of c slots whose keys' probe
// charges sum to probeSum.
func leafCostOf(probeSum float64, n, c int) Cost {
	return Cost{
		Query:  1 + probeSum/float64(n) + CacheFactor*math.Log2(float64(c)),
		Memory: float64(c) / float64(n),
	}
}

// cost is Leaf over the model's τ and α.
func (m *leafModel) cost(keys []uint64, lo, hi uint64) Cost {
	n := len(keys)
	switch n {
	case 0:
		return Cost{Query: 1, Memory: 0}
	case 1:
		return m.one
	}
	c := m.capacity(n)
	counts := slotCounts(&m.counts, c)
	hash := newSlotHash(lo, hi, c, m.alpha)
	// Each prior key in the same home slot forces roughly one extra probe
	// step (alternating ±1, ±2, ... placement), so a key is charged
	// (prior + 1)/2.
	var probeSum float64
	for _, k := range keys {
		h := hash.home(k)
		probeSum += float64(counts[h]+1) / 2
		counts[h]++
	}
	return leafCostOf(probeSum, n, c)
}

// slotHash is Eq. (2)'s home slot for the keys of a c-slot leaf over
// [lo, hi] hashed with α.
type slotHash struct {
	lo              uint64
	c               int
	scale, cf, invC float64
	flat            bool // zero span: every key's home is slot 0
}

func newSlotHash(lo, hi uint64, c int, alpha float64) slotHash {
	span := hi - lo
	if span == 0 {
		return slotHash{flat: true}
	}
	cf := float64(c)
	return slotHash{lo: lo, c: c, scale: alpha * cf / float64(span), cf: cf, invC: 1 / cf}
}

func (s slotHash) home(k uint64) int {
	if s.flat {
		return 0
	}
	x := s.scale * float64(k-s.lo)
	x -= math.Trunc(x*s.invC) * s.cf
	h := int(x)
	if h >= s.c {
		h = s.c - 1
	}
	if h < 0 {
		h = 0
	}
	return h
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
// visited or allocated, so a call costs O(len(keys)) whatever f is, and
// O(log len(keys)) per child when the keys lie within [lo, hi]. The
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
	if len(keys) > 0 && keys[0] >= lo && keys[len(keys)-1] <= hi {
		// Inside [lo, hi] the child index never falls (each step of Eq. (1)
		// is monotone in k), so a run's end is found by galloping: O(log run)
		// index evaluations instead of one per key.
		for start := 0; start < len(keys); {
			j := child(keys[start])
			// keys[in] is in child j; the run ends at or before out.
			in, out := start, start+1
			for step := 1; out < len(keys) && child(keys[out]) == j; step *= 2 {
				in, out = out, min(out+step, len(keys))
			}
			for out-in > 1 {
				mid := int(uint(in+out) >> 1)
				if child(keys[mid]) == j {
					in = mid
				} else {
					out = mid
				}
			}
			visit(start, out, j)
			start = out
		}
		return
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

// Counters is the slot-counter buffer a cost walk reuses from leaf to leaf.
// A caller that walks many trees keeps one per goroutine (the DARE search
// scores one candidate per walk, on several goroutines at once), so that
// its walks allocate counters only when a leaf outgrows every leaf before
// it. The zero value is ready to use; a Counters serves one walk at a time.
type Counters struct{ counts []int32 }

// TreeCost estimates the whole-structure cost of the tree over the sorted
// keys whose root (level 1) has fanout p0 and every inner node at levels 2
// to maxLevels fanout g; nodes below maxLevels, of fanout 1 or of at most
// one key are leaves. Query cost is the mean over all leaves of (depth +
// leaf cost), each leaf weighted by the query mass under it: its key count
// when weights is nil, else the sum of its keys' weights (weights[i]
// belongs to keys[i]; weights summing to zero count as nil). Memory sums
// leaf slabs and inner child arrays, normalized per key, whatever the
// weights.
//
// The walk visits only non-empty children: an empty child is a leaf that
// adds exactly +0 to every sum, so skipping it leaves the result bitwise
// unchanged. With nil weights the summed mass is the exact integer
// len(keys).
func (c *Counters) TreeCost(keys []uint64, weights []float64, lo, hi uint64, maxLevels, p0, g int, tau, alpha float64) Cost {
	if len(keys) == 0 {
		return Cost{}
	}
	var qSum, wTotal, mUnits float64
	leaves := newLeafModel(tau, alpha)
	leaves.counts = c.counts
	var walk func(ks []uint64, ws []float64, lo, hi uint64, level, f int)
	walk = func(ks []uint64, ws []float64, lo, hi uint64, level, f int) {
		if f <= 1 || len(ks) <= 1 || level > maxLevels {
			leaf := leaves.weightedCost(ks, ws, lo, hi)
			w := float64(len(ks))
			if ws != nil {
				w = 0
				for _, x := range ws {
					w += x
				}
			}
			qSum += w * (float64(level-1) + leaf.Query)
			wTotal += w
			mUnits += leaf.Memory * float64(len(ks))
			return
		}
		mUnits += innerNodeUnits * float64(f)
		forEachChild(ks, lo, hi, f, func(start, end, j int) {
			clo, chi := ChildInterval(lo, hi, f, j)
			var cws []float64
			if ws != nil {
				cws = ws[start:end]
			}
			walk(ks[start:end], cws, clo, chi, level+1, g)
		})
	}
	walk(keys, weights, lo, hi, 1, p0)
	c.counts = leaves.counts
	if wTotal == 0 {
		return c.TreeCost(keys, nil, lo, hi, maxLevels, p0, g, tau, alpha)
	}
	return Cost{Query: qSum / wTotal, Memory: mUnits / float64(len(keys))}
}
