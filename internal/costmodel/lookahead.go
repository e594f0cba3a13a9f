package costmodel

// Lookahead values a fanout decision one level deep: a fanout-f node over
// [lo, hi] pays one traversal step and f child pointers, and each child is
// valued as a terminal EBH leaf, weighted by its share of the keys. This is
// the TSMDP reward with every child's value taken from the exact cost model;
// CostPolicy takes the argmax over its action space. A Lookahead reuses one
// slot-count buffer for every leaf it values, so it is not safe for
// concurrent use.
type Lookahead struct {
	wt, wm float64
	leaves leafModel
}

// Reset points l at an environment: EBH's τ and α, and the DRF weights w_t
// and w_m. The slot buffer is kept.
func (l *Lookahead) Reset(tau, alpha, wt, wm float64) {
	counts := l.leaves.counts
	l.wt, l.wm = wt, wm
	l.leaves = newLeafModel(tau, alpha)
	l.leaves.counts = counts
}

// Score is the lookahead reward of fanout f. For f ≤ 1, or at most one key,
// the node itself is the leaf.
func (l *Lookahead) Score(keys []uint64, lo, hi uint64, f int) float64 {
	if f <= 1 || len(keys) <= 1 {
		return Reward(l.leaves.cost(keys, lo, hi), l.wt, l.wm)
	}
	n := float64(len(keys))
	r := StepReward(f, len(keys), l.wt, l.wm)
	forEachChild(keys, lo, hi, f, func(start, end, j int) {
		clo, chi := ChildInterval(lo, hi, f, j)
		w := float64(end-start) / n
		r += w * Reward(l.leaves.cost(keys[start:end], clo, chi), l.wt, l.wm)
	})
	return r
}

// Bound is an upper bound on Score(keys, lo, hi, f) for f > 1 and more than
// one key, valid when w_t, w_m ≥ 0. It values each child at its best-case
// leaf: the slot simulation charges every key at least ½ probe (a key alone
// in its home slot), and the capacity, log and memory terms depend only on
// the child's key count, so they are exact. It needs only the child sizes,
// not the slot simulation.
func (l *Lookahead) Bound(keys []uint64, lo, hi uint64, f int) float64 {
	n := float64(len(keys))
	r := StepReward(f, len(keys), l.wt, l.wm)
	forEachChild(keys, lo, hi, f, func(start, end, _ int) {
		m := end - start
		w := float64(m) / n
		r += w * Reward(leafCostOf(float64(m)/2, m, l.leaves.capacity(m)), l.wt, l.wm)
	})
	return r
}

// RootSplit is how a root's children divide its keys: Singles children
// hold one key each, and Multis children hold two or more, MultiKeys keys
// between them. Empty children are not counted.
type RootSplit struct{ Singles, Multis, MultiKeys int }

// SplitRoot is the RootSplit of the fanout-f root over [lo, hi] that
// TreeCost walks. It allocates nothing, whatever f is.
func SplitRoot(keys []uint64, lo, hi uint64, f int) RootSplit {
	var s RootSplit
	forEachChild(keys, lo, hi, f, func(start, end, _ int) {
		if m := end - start; m == 1 {
			s.Singles++
		} else {
			s.Multis++
			s.MultiKeys += m
		}
	})
	return s
}

// DeepBound is a lower bound on both components of TreeCost over the keys
// s splits, with unweighted queries, root fanout p0 = f > 1 and inner
// fanout g > 1, at any maxLevels ≥ 2. A one-key child is
// a leaf at level 2 and is charged exactly what the walk charges it. Every
// key of a child with two or more keys sits at level 3 or deeper, in a leaf
// that costs at least a one-key leaf's query steps (every key is charged at
// least ½ probe, and every leaf has at least 8 slots) and at least one slot
// per key, and each such child adds g child pointers.
func (s RootSplit) DeepBound(f, g int, tau, alpha float64) Cost {
	if s.Singles+s.MultiKeys == 0 {
		return Cost{}
	}
	one := newLeafModel(tau, alpha).one
	n := float64(s.Singles + s.MultiKeys)
	singles, multiKeys := float64(s.Singles), float64(s.MultiKeys)
	return Cost{
		Query: (singles*(1+one.Query) + multiKeys*(2+one.Query)) / n,
		Memory: (innerNodeUnits*float64(f) + singles*one.Memory + multiKeys +
			innerNodeUnits*float64(g)*float64(s.Multis)) / n,
	}
}
