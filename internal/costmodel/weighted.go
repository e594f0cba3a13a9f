package costmodel

import "math"

// This file implements the extension Section IV-B2 sketches: "other factors
// such as the query distribution can be added to the reward function
// according to application requirements." leafModel.weightedCost mirrors
// Leaf but weights each key's lookup cost by its query frequency, and
// TreeCost weights each leaf by the query mass under it, so the
// construction policies can shape the tree for a known (e.g. Zipfian)
// access pattern: hot regions get shallower, better-provisioned subtrees.

// weightedCost is cost with per-key query weights (weights[i] belongs to
// keys[i]; they need not be normalized). Memory is unweighted — it is paid
// regardless of access pattern. Nil weights, or weights summing to zero,
// give cost.
func (m *leafModel) weightedCost(keys []uint64, weights []float64, lo, hi uint64) Cost {
	n := len(keys)
	if weights == nil || n == 0 {
		return m.cost(keys, lo, hi)
	}
	c := m.capacity(n)
	counts := slotCounts(&m.counts, c)
	hash := newSlotHash(lo, hi, c, m.alpha)
	var probeSum, wSum float64
	for i, k := range keys {
		h := hash.home(k)
		probeSum += weights[i] * float64(counts[h]+1) / 2
		counts[h]++
		wSum += weights[i]
	}
	if wSum == 0 {
		return m.cost(keys, lo, hi)
	}
	return Cost{
		Query:  1 + probeSum/wSum + CacheFactor*math.Log2(float64(c)),
		Memory: float64(c) / float64(n),
	}
}
