// Package rl holds the construction policies of the paper's two agents
// (Section IV), as the exact quantities their Q-networks approximate:
//
//   - CostPolicy stands in for TSMDP (Section IV-B): it decides per-node
//     fanouts for the lower index levels by scoring every action of the
//     fanout space {2^0..2^10} with a one-level lookahead under the cost
//     model in internal/costmodel, the value the TSMDP DQN learns to
//     predict.
//   - CostDARE stands in for DARE (Section IV-C): a fixed grid over the
//     genome space of Algorithm 1 searches the root fanout p0 and the
//     parameter matrix M, each candidate scored by the dynamic reward (DRF)
//     of the upper levels it instantiates over a key sample, the cost the
//     DARE critic is trained to predict.
//
// Env is the construction environment both share: Step turns a node and a
// fanout action into the reward of Section IV-B2 and the child partitions.
// FixedDARE and FixedFanout are the ablations' constant policies. The
// repository reproduces the structures the Q-networks approximate, not the
// networks (DESIGN.md §4 item 2; EXPERIMENTS.md has the measurement that
// decided it).
package rl

import "math"

// DefaultFanouts is the TSMDP action space {ξ_0..ξ_n} = {2^0, 2^1, ..., 2^10}
// from Table IV. Index 0 (fanout 1) is the terminal "become a leaf" action.
var DefaultFanouts = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// FanoutPolicy decides the fanout of one node during index construction.
// Returning 1 makes the node an EBH leaf. keys is the sorted key set the
// node covers; [lo, hi] is its assigned interval.
type FanoutPolicy interface {
	Fanout(keys []uint64, lo, hi uint64, level int) int
}

// DAREPolicy emits the upper-level construction parameters: the root fanout
// p0 ∈ [2^0, 2^20] and the parameter matrix M with h−2 rows of L entries,
// each an inner fanout in [2^0, 2^10] (Section IV-C).
type DAREPolicy interface {
	Parameters(keys []uint64, h, L int) (p0 int, m [][]float64)
}

// interpolateFanout applies Eq. (4): given a matrix row of decoded fanout
// parameters and the node's normalized position x ∈ [0, L−1], it blends the
// two enclosing entries and rounds.
func interpolateFanout(row []float64, x float64) int {
	if len(row) == 0 {
		return 1
	}
	if x <= 0 {
		return clampFanout(int(math.Round(row[0])))
	}
	last := float64(len(row) - 1)
	if x >= last {
		return clampFanout(int(math.Round(row[len(row)-1])))
	}
	l := int(x)
	f := (x-float64(l))*row[l+1] + (float64(l)+1-x)*row[l]
	return clampFanout(int(math.Round(f)))
}

func clampFanout(f int) int {
	if f < 1 {
		return 1
	}
	if f > 1<<10 {
		return 1 << 10
	}
	return f
}

// NodePosition computes x, the mapping of a node's interval midpoint into
// the parameter matrix of Section IV-C:
// x = ((lk+uk)/2 − mk)/(Mk − mk) · (L−1).
func NodePosition(lk, uk, mk, Mk uint64, L int) float64 {
	if Mk == mk {
		return 0
	}
	mid := lk/2 + uk/2
	return float64(mid-mk) / float64(Mk-mk) * float64(L-1)
}
