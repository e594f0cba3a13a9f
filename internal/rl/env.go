package rl

import "chameleon/internal/costmodel"

// Env is the construction environment of Section IV-B2. It turns (node
// keys, interval, fanout action) into the reward r = −(w_t·R_t + w_m·R_m),
// using the cost model as ground truth.
type Env struct {
	Tau   float64 // EBH collision target τ
	Alpha float64 // EBH hash factor α
	Wt    float64 // query-time weight w_t
	Wm    float64 // memory weight w_m
}

// DefaultEnv returns the paper's Table IV weighting (w_t = w_m = 0.5).
func DefaultEnv() Env {
	return Env{Tau: 0.45, Alpha: 131, Wt: 0.5, Wm: 0.5}
}

// Child is one child partition produced by a non-terminal action.
type Child struct {
	Keys   []uint64
	Lo, Hi uint64
	Weight float64 // w_z of Eq. (3): child key share of the parent
}

// Step applies fanout to the node covering [lo, hi]. For fanout ≤ 1 it
// returns the terminal leaf reward; otherwise it returns the per-level
// traversal cost as immediate reward plus the child partitions whose values
// the Bellman backup of Eq. (3) folds in; CostPolicy's lookahead scores
// exactly this (TestCostPolicyFanoutMatchesBruteForce).
func (e Env) Step(keys []uint64, lo, hi uint64, fanout int) (reward float64, children []Child) {
	if fanout <= 1 || len(keys) <= 1 {
		c := costmodel.Leaf(keys, lo, hi, e.Tau, e.Alpha)
		return costmodel.Reward(c, e.Wt, e.Wm), nil
	}
	n := float64(len(keys))
	reward = costmodel.StepReward(fanout, len(keys), e.Wt, e.Wm)
	parts := costmodel.Partition(keys, lo, hi, fanout)
	for j, p := range parts {
		if p[1] == p[0] {
			continue
		}
		clo, chi := costmodel.ChildInterval(lo, hi, fanout, j)
		children = append(children, Child{
			Keys:   keys[p[0]:p[1]],
			Lo:     clo,
			Hi:     chi,
			Weight: float64(p[1]-p[0]) / n,
		})
	}
	return reward, children
}
