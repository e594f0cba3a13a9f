package core

import "chameleon/internal/index"

// Stats implements index.StatsProvider, producing the Table V metrics. It
// reads each interval under its shared read lock, so it is safe to call
// while the retrainer and concurrent writers run.
func (ix *Index) Stats() index.Stats {
	var s index.Stats
	var keySum int
	var depthSum, errSum float64
	ix.tree.Load().eachNode(func(n *node, depth int) {
		s.Nodes++
		if n.leaf == nil {
			return
		}
		s.MaxHeight = max(s.MaxHeight, depth)
		maxE, sumE := n.leaf.ErrorStats()
		s.MaxError = max(s.MaxError, maxE)
		errSum += sumE
		keySum += n.leaf.Len()
		depthSum += float64(depth) * float64(n.leaf.Len())
	})
	if keySum > 0 {
		s.AvgHeight = depthSum / float64(keySum)
		s.AvgError = errSum / float64(keySum)
	}
	return s
}

// Bytes implements index.Index: leaf slabs plus inner-node child arrays and
// headers, read as Stats reads them.
func (ix *Index) Bytes() int {
	t := ix.tree.Load()
	total := 0
	t.eachNode(func(n *node, _ int) {
		if n.leaf != nil {
			total += n.leaf.Bytes() + 64
		} else {
			total += 64 + 8*len(n.children)
		}
	})
	// Gate bookkeeping and the lock table.
	total += len(t.gates)*64 + t.locks.Len()*4
	return total
}

// Height reports the number of levels on the deepest path (root = 1).
func (ix *Index) Height() int {
	h := 0
	ix.tree.Load().eachNode(func(_ *node, depth int) { h = max(h, depth) })
	return h
}
