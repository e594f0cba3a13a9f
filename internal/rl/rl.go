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
//     inner fanout g (the paper's parameter matrix M, every entry g), each
//     candidate scored by the dynamic reward (DRF) of the upper levels it
//     instantiates over a key sample, the cost the DARE critic is trained
//     to predict.
//
// Env is the construction environment both share: Step turns a node and a
// fanout action into the reward of Section IV-B2 and the child partitions.
// FixedDARE and FixedFanout are the ablations' constant policies. The
// repository reproduces the structures the Q-networks approximate, not the
// networks (DESIGN.md §4 item 2; EXPERIMENTS.md has the measurement that
// decided it).
package rl

// DefaultFanouts is the TSMDP action space {ξ_0..ξ_n} = {2^0, 2^1, ..., 2^10}
// from Table IV. Index 0 (fanout 1) is the terminal "become a leaf" action.
var DefaultFanouts = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// FanoutPolicy decides the fanout of one node during index construction.
// Returning 1 makes the node an EBH leaf. keys is the sorted key set the
// node covers; [lo, hi] is its assigned interval.
type FanoutPolicy interface {
	Fanout(keys []uint64, lo, hi uint64, level int) int
}

// DAREPolicy emits the upper-level construction parameters of Section
// IV-C for an h-level tree over keys: the root fanout p0 ∈ [2^0, 2^20] and
// g ∈ [2^0, 2^10], the fanout of every inner node at levels 2..h−1. The
// paper emits a parameter matrix M instead, each node's fanout interpolated
// from it by Eq. (4); every candidate here has a constant M, over which
// Eq. (4) returns that constant, g (DESIGN.md §4 item 2).
type DAREPolicy interface {
	Parameters(keys []uint64, h int) (p0, g int)
}
