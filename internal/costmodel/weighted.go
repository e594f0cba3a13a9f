package costmodel

import "math"

// This file implements the extension Section IV-B2 sketches: "other factors
// such as the query distribution can be added to the reward function
// according to application requirements." leafModel.weightedCost and
// WeightedTreeCost mirror Leaf/TreeCost but weight each key's lookup cost by
// its query frequency, so the construction policies can shape the tree for a
// known (e.g. Zipfian) access pattern: hot regions get shallower,
// better-provisioned subtrees.

// weightedCost is cost with per-key query weights (weights[i] belongs to
// keys[i]; they need not be normalized). Memory is unweighted — it is paid
// regardless of access pattern.
func (m *leafModel) weightedCost(keys []uint64, weights []float64, lo, hi uint64) Cost {
	n := len(keys)
	if n == 0 {
		return Cost{Query: 1, Memory: 0}
	}
	base := m.cost(keys, lo, hi) // slot simulation for probe costs
	if weights == nil {
		return base
	}
	// Re-run the placement simulation accumulating weighted probes.
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
		return base
	}
	return Cost{
		Query:  1 + probeSum/wSum + CacheFactor*math.Log2(float64(c)),
		Memory: base.Memory,
	}
}

// WeightedTreeCost is TreeCost with query weights: the per-leaf costs are
// weighted by the query mass under each leaf instead of its key count. It
// walks the tree exactly as TreeCost does, skipping empty children (which
// carry no keys and no weight).
func (c *Counters) WeightedTreeCost(keys []uint64, weights []float64, lo, hi uint64, maxLevels int, fan FanoutFn, tau, alpha float64) Cost {
	if len(keys) == 0 {
		return Cost{}
	}
	if weights == nil {
		return c.TreeCost(keys, lo, hi, maxLevels, fan, tau, alpha)
	}
	var qSum, wTotal, mUnits float64
	leaves := newLeafModel(tau, alpha)
	leaves.counts = c.counts
	var walk func(ks []uint64, ws []float64, lo, hi uint64, level int)
	walk = func(ks []uint64, ws []float64, lo, hi uint64, level int) {
		f := 1
		if level <= maxLevels {
			f = fan(level, lo, hi, len(ks))
		}
		if f <= 1 || len(ks) <= 1 {
			leaf := leaves.weightedCost(ks, ws, lo, hi)
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
		forEachChild(ks, lo, hi, f, func(start, end, j int) {
			clo, chi := ChildInterval(lo, hi, f, j)
			walk(ks[start:end], ws[start:end], clo, chi, level+1)
		})
	}
	walk(keys, weights, lo, hi, 1)
	c.counts = leaves.counts
	if wTotal == 0 {
		return c.TreeCost(keys, lo, hi, maxLevels, fan, tau, alpha)
	}
	return Cost{Query: qSum / wTotal, Memory: mUnits / float64(len(keys))}
}
