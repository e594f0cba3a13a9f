package rl

import (
	"chameleon/internal/costmodel"
	"chameleon/internal/ga"
)

// CostPolicy is the deterministic stand-in for a trained TSMDP agent: it
// scores every action in the fanout space with a one-level lookahead under
// the exact cost model (each prospective child evaluated as an EBH leaf) and
// takes the argmax. The paper's Q-network approximates precisely this
// quantity, so CostPolicy provides reproducible construction quality without
// a stochastic training run; benchmarks can use either (DESIGN.md §4).
type CostPolicy struct {
	Fanouts  []int
	MinSplit int // nodes with fewer keys terminate immediately
	Env      Env
}

// NewCostPolicy returns a policy over the default action space.
func NewCostPolicy(env Env) *CostPolicy {
	return &CostPolicy{Fanouts: DefaultFanouts, MinSplit: 256, Env: env}
}

// Fanout implements FanoutPolicy.
func (p *CostPolicy) Fanout(keys []uint64, lo, hi uint64, level int) int {
	if len(keys) < p.MinSplit {
		return 1
	}
	bestF, bestR := 1, p.score(keys, lo, hi, 1)
	for _, f := range p.Fanouts {
		if f == 1 {
			continue
		}
		if r := p.score(keys, lo, hi, f); r > bestR {
			bestF, bestR = f, r
		}
	}
	return bestF
}

// score computes the one-step-lookahead reward of choosing fanout f: the
// immediate step reward plus each child valued as a terminal leaf.
func (p *CostPolicy) score(keys []uint64, lo, hi uint64, f int) float64 {
	reward, children := p.Env.Step(keys, lo, hi, f)
	for _, c := range children {
		leaf := costmodel.Leaf(c.Keys, c.Lo, c.Hi, p.Env.Tau, p.Env.Alpha)
		reward += c.Weight * costmodel.Reward(leaf, p.Env.Wt, p.Env.Wm)
	}
	return reward
}

// CostDARE is the deterministic stand-in for a trained DARE agent: the same
// GA actor, but with fitness evaluated by instantiating the upper levels
// over a key sample and measuring the exact cost model — the quantity the
// DARE critic approximates.
type CostDARE struct {
	Cfg  DAREConfig
	Seed uint64
}

// NewCostDARE returns the analytic DARE policy.
func NewCostDARE(cfg DAREConfig) *CostDARE {
	if cfg.L <= 0 {
		cfg = DefaultDAREConfig()
	}
	return &CostDARE{Cfg: cfg, Seed: cfg.Seed}
}

// Parameters implements DAREPolicy. The sample is drawn once and every
// genome is scored on it; cfg.GA.Workers bounds how many are scored at once
// (the result does not depend on it).
func (d *CostDARE) Parameters(keys []uint64, h, L int) (int, [][]float64) {
	cfg := d.Cfg
	cfg.L = L
	bounds := genomeBounds(h, L)
	gaCfg := cfg.GA
	gaCfg.Seed = d.Seed
	sample := newCostSample(cfg, keys)
	genome, _ := ga.Optimize(gaCfg, bounds, func(g []float64) float64 {
		c := measureCost(cfg, sample, h, g)
		return costmodel.Reward(c, cfg.Env.Wt, cfg.Env.Wm)
	})
	return DecodeGenome(genome, h, L)
}

// FixedDARE emits a constant root fanout with no matrix rows — the ablation
// baseline ChaB of Table V uses it ("EBH only, no TSMDP and DARE"): the
// upper structure degenerates to a single interpolation root.
type FixedDARE struct{ Root int }

// Parameters implements DAREPolicy.
func (f FixedDARE) Parameters(keys []uint64, h, L int) (int, [][]float64) {
	root := f.Root
	if root < 1 {
		root = 1 << 10
	}
	m := make([][]float64, 0, h-2)
	for i := 0; i < h-2; i++ {
		row := make([]float64, L)
		for j := range row {
			row[j] = 1 << 5
		}
		m = append(m, row)
	}
	return root, m
}

// FixedFanout is a FanoutPolicy that always returns the same fanout for
// nodes above the key floor — used by ablations and tests.
type FixedFanout struct {
	F        int
	MinSplit int
}

// Fanout implements FanoutPolicy.
func (f FixedFanout) Fanout(keys []uint64, lo, hi uint64, level int) int {
	min := f.MinSplit
	if min <= 0 {
		min = 256
	}
	if len(keys) < min {
		return 1
	}
	return f.F
}
