package rl

import (
	"math"
	"math/rand/v2"

	"chameleon/internal/mlp"
)

// TSMDPConfig collects the hyper-parameters of Table IV for the TSMDP agent.
type TSMDPConfig struct {
	Fanouts   []int   // action space; DefaultFanouts if nil
	Hidden    int     // hidden layer width
	Gamma     float64 // discount factor γ
	LR        float64 // learning rate η
	SyncEvery int     // K: target-network synchronization period (steps)
	ReplayCap int
	BatchSize int
	Temp      float64 // Boltzmann temperature during training
	MinSplit  int     // nodes with fewer keys are forced to be leaves
	Seed      uint64
	Env       Env
	// DoubleDQN selects actions for the Bellman target with the policy
	// network and evaluates them with the target network (van Hasselt et
	// al., the paper's reference [35]), reducing the overestimation bias of
	// the vanilla max target.
	DoubleDQN bool
}

// DefaultTSMDPConfig mirrors Table IV at laptop scale.
func DefaultTSMDPConfig() TSMDPConfig {
	return TSMDPConfig{
		Fanouts:   DefaultFanouts,
		Hidden:    64,
		Gamma:     0.9,
		LR:        1e-4,
		SyncEvery: 100,
		ReplayCap: 4096,
		BatchSize: 32,
		Temp:      0.5,
		MinSplit:  256,
		Seed:      1,
		Env:       DefaultEnv(),
	}
}

// TSMDP is the tree-structured DQN agent of Section IV-B. It implements
// FanoutPolicy (greedy over the policy network) once trained.
type TSMDP struct {
	cfg    TSMDPConfig
	policy *mlp.Net // Q_T with parameters θ
	target *mlp.Net // Q̂_T with parameters θ⁻
	replay *Replay
	rng    *rand.Rand
	steps  int
}

// NewTSMDP constructs an untrained agent.
func NewTSMDP(cfg TSMDPConfig) *TSMDP {
	if cfg.Fanouts == nil {
		cfg.Fanouts = DefaultFanouts
	}
	if cfg.Hidden <= 0 {
		cfg.Hidden = 64
	}
	if cfg.Env.BT <= 0 {
		cfg.Env = DefaultEnv()
	}
	stateSize := cfg.Env.BT + 2
	policy := mlp.New(cfg.Seed, stateSize, cfg.Hidden, cfg.Hidden, len(cfg.Fanouts))
	return &TSMDP{
		cfg:    cfg,
		policy: policy,
		target: policy.Clone(),
		replay: NewReplay(cfg.ReplayCap),
		rng:    rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xb5297a4d3a2ddf1b)),
	}
}

// Fanout implements FanoutPolicy: the greedy action of the policy network,
// with small nodes forced to terminate (a practical floor; the action space
// itself contains the terminal action 1).
func (a *TSMDP) Fanout(keys []uint64, lo, hi uint64, level int) int {
	if len(keys) < a.cfg.MinSplit {
		return 1
	}
	q := a.policy.Forward(a.cfg.Env.State(keys))
	return a.cfg.Fanouts[argmax(q)]
}

// Explore rolls out the tree-structured decision process over one dataset,
// choosing actions by Boltzmann exploration, storing every transition in the
// replay buffer, and running a training step per decision. maxDepth bounds
// the recursion (the paper's index heights are 2–4).
func (a *TSMDP) Explore(keys []uint64, lo, hi uint64, maxDepth int) {
	a.explore(keys, lo, hi, 1, maxDepth)
}

func (a *TSMDP) explore(keys []uint64, lo, hi uint64, depth, maxDepth int) {
	state := a.cfg.Env.State(keys)
	var actIdx int
	if depth >= maxDepth || len(keys) < a.cfg.MinSplit {
		actIdx = 0 // forced terminal
	} else {
		q := a.policy.Forward(state)
		actIdx = boltzmann(a.rng, q, a.cfg.Temp)
	}
	fanout := a.cfg.Fanouts[actIdx]
	reward, children := a.cfg.Env.Step(keys, lo, hi, fanout)
	tr := Transition{State: state, Action: actIdx, Reward: reward}
	for _, c := range children {
		tr.Children = append(tr.Children, a.cfg.Env.State(c.Keys))
		tr.ChildWeights = append(tr.ChildWeights, c.Weight)
	}
	a.replay.Add(tr)
	a.TrainStep()
	for _, c := range children {
		a.explore(c.Keys, c.Lo, c.Hi, depth+1, maxDepth)
	}
}

// TrainStep samples a batch and applies the Eq. (3) update:
//
//	L_T(θ) = Σ | r + γ·Σ_z w_z·max_{a'} Q̂(s'_z, a'; θ⁻) − Q(s, a; θ) |
//
// Only the taken action's output receives gradient (others are NaN-masked).
// The target network syncs every SyncEvery steps.
func (a *TSMDP) TrainStep() float64 {
	if a.replay.Len() < a.cfg.BatchSize {
		return 0
	}
	batch := a.replay.Sample(a.rng, a.cfg.BatchSize)
	xs := make([][]float64, len(batch))
	ys := make([][]float64, len(batch))
	for i, tr := range batch {
		target := tr.Reward
		for z, child := range tr.Children {
			q := a.target.Forward(child)
			best := argmax(q)
			if a.cfg.DoubleDQN {
				best = argmax(a.policy.Forward(child))
			}
			target += a.cfg.Gamma * tr.ChildWeights[z] * q[best]
		}
		y := make([]float64, len(a.cfg.Fanouts))
		for j := range y {
			y[j] = math.NaN()
		}
		y[tr.Action] = target
		xs[i], ys[i] = tr.State, y
	}
	loss := a.policy.TrainBatch(xs, ys, a.cfg.LR, mlp.MAE)
	a.steps++
	if a.cfg.SyncEvery > 0 && a.steps%a.cfg.SyncEvery == 0 {
		a.target.CopyFrom(a.policy)
	}
	return loss
}

// Net returns the policy network for persistence.
func (a *TSMDP) Net() *mlp.Net { return a.policy }

// SetNet installs trained parameters (after loading from disk).
func (a *TSMDP) SetNet(n *mlp.Net) {
	a.policy = n
	a.target = n.Clone()
}
