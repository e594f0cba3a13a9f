package ebh

// Interval reports the key range [lo, hi] this leaf covers.
func (nd *Node) Interval() (lo, hi uint64) {
	pr := nd.p.Load()
	return pr.lo, pr.hi
}

// Cap reports the slot capacity.
func (nd *Node) Cap() int { return nd.p.Load().c }

// Retrain rebuilds the leaf at the Theorem 1 capacity for its current
// population, restoring the collision target after heavy churn.
func (nd *Node) Retrain() { nd.RetrainFor(nd.n) }
