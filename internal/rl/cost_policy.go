package rl

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"chameleon/internal/costmodel"
	"chameleon/internal/par"
)

// CostPolicy decides fanouts in place of a trained TSMDP agent: it scores
// every action in the fanout space with a one-level lookahead under the
// exact cost model (each prospective child evaluated as an EBH leaf) and
// takes the argmax. The paper's Q-network approximates precisely this
// quantity (DESIGN.md §4 item 2).
type CostPolicy struct {
	Fanouts  []int
	MinSplit int // nodes with fewer keys terminate immediately
	Env      Env
}

// NewCostPolicy returns a policy over the default action space.
func NewCostPolicy(env Env) *CostPolicy {
	return &CostPolicy{Fanouts: DefaultFanouts, MinSplit: 256, Env: env}
}

// boundMargin is the relative slack a fanout's bound must clear before the
// fanout is skipped. Score and Bound each sum one term per child, all of
// one sign, so rounding moves each by at most about children·2^−53 of
// itself; 1e-6 covers both for nodes of up to 2^31 children.
const boundMargin = 1e-6

// candidate is one fanout Fanout may take, with its position in Fanouts
// (ties go to the earliest) and its bound.
type candidate struct {
	f, order int
	bound    float64
}

// fanoutScratch is one Fanout call's reusable state.
type fanoutScratch struct {
	look  costmodel.Lookahead
	cands []candidate
}

var scratchPool = sync.Pool{New: func() any { return new(fanoutScratch) }}

// Fanout implements FanoutPolicy. It returns exactly the argmax of the
// lookahead score over {1} ∪ Fanouts, ties going to fanout 1 and then to
// the earliest in Fanouts, but scores fanout 1 and then only the fanouts
// whose bound (costmodel.Lookahead.Bound) can still beat the best score
// found, highest bound first. When w_t or w_m is negative the bound does not
// hold and every fanout is scored.
func (p *CostPolicy) Fanout(keys []uint64, lo, hi uint64, level int) int {
	if len(keys) < p.MinSplit || len(keys) <= 1 {
		return 1
	}
	sc := p.scratch()
	defer scratchPool.Put(sc)
	f, _ := p.decide(sc, keys, lo, hi)
	return f
}

// decide is Fanout's search on scratch sc. It returns the fanout and how
// many fanouts other than 1 it scored.
func (p *CostPolicy) decide(sc *fanoutScratch, keys []uint64, lo, hi uint64) (int, int) {
	prune := p.Env.Wt >= 0 && p.Env.Wm >= 0
	sc.cands = sc.cands[:0]
	for i, f := range p.Fanouts {
		if f <= 1 {
			continue // scores as fanout 1, which is never beaten by itself
		}
		c := candidate{f: f, order: i, bound: math.Inf(1)}
		if prune {
			c.bound = sc.look.Bound(keys, lo, hi, f)
		}
		sc.cands = append(sc.cands, c)
	}
	slices.SortStableFunc(sc.cands, func(a, b candidate) int { return cmp.Compare(b.bound, a.bound) })
	bestF, bestOrder, best := 1, -1, sc.look.Score(keys, lo, hi, 1)
	scored := 0
	for _, c := range sc.cands {
		if cannotBeat(c.bound, best) {
			break // the bounds behind c are no higher
		}
		scored++
		if r := sc.look.Score(keys, lo, hi, c.f); r > best || r == best && c.order < bestOrder {
			bestF, bestOrder, best = c.f, c.order, r
		}
	}
	return bestF, scored
}

// scratch returns pooled scratch set to the policy's environment.
func (p *CostPolicy) scratch() *fanoutScratch {
	sc := scratchPool.Get().(*fanoutScratch)
	sc.look.Reset(p.Env.Tau, p.Env.Alpha, p.Env.Wt, p.Env.Wm)
	return sc
}

// cannotBeat reports whether a candidate with this bound must score below
// best, with boundMargin to spare for rounding.
func cannotBeat(bound, best float64) bool {
	return bound+boundMargin*math.Abs(bound) < best
}

// CostDARE stands in for a trained DARE agent: it searches Algorithm 1's
// genome space, the root fanout p0 and the inner fanout g, scoring each
// candidate by instantiating the upper levels over a key sample and
// measuring the exact cost model — the quantity the DARE critic
// approximates. With exact, cheap scores a fixed grid replaces the paper's
// genetic algorithm (DESIGN.md §4 item 2).
type CostDARE struct{ Cfg DAREConfig }

// NewCostDARE returns the analytic DARE policy.
func NewCostDARE(cfg DAREConfig) *CostDARE { return &CostDARE{Cfg: cfg} }

// Parameters implements DAREPolicy with a deterministic grid over the
// genome space, every candidate scored by its reward on one key sample:
//
//  1. log2 p0 ∈ {0, 1, …, 20}, crossed (when h ≥ 3) with g = 2^c for
//     c ∈ {0, 1, …, 10};
//  2. log2 p0 in steps of 1/16 up to 15 steps either side of the best,
//     then in steps of 1/256 around the new best, g held.
//
// Candidates that build the same tree are scored once (at most 81 walks at
// h = 2 and 281 at h = 3), and ties go to the earliest candidate, so the
// answer does not depend on cfg.Workers, which bounds how many are scored
// at once. The c = 0 column is scored first; a candidate with c ≥ 1 is
// then skipped when a bound on its reward from the root's split of the
// sample alone cannot beat the best score (gridSearch.cutsDeep), which
// skips every one on the FACE, UDEN and OSMC samples of 2 M keys. The
// answer is the argmax over the whole grid all the same.
func (d *CostDARE) Parameters(keys []uint64, h int) (p0, g int) {
	best, _ := d.search(keys, h)
	k := best.shape()
	return k.p0, k.g
}

// search is Parameters' grid search. It returns the best point and how
// many trees it scored.
func (d *CostDARE) search(keys []uint64, h int) (gridPoint, int) {
	s := &gridSearch{
		cfg:    d.Cfg,
		sample: newCostSample(d.Cfg, keys),
		h:      h,
		scores: make(map[shape]float64),
		free:   make(chan *costmodel.Counters, par.Workers(d.Cfg.Workers)),
		top:    math.Inf(-1),
		roots:  make(map[int]costmodel.RootSplit),
	}
	s.prune = len(s.sample.keys) > 0 && s.sample.weights == nil && d.Cfg.Env.Wt >= 0 && d.Cfg.Env.Wm >= 0
	cs := 0
	if h >= 3 {
		cs = maxLogG
	}
	var pts []gridPoint
	for lp := 0; lp <= maxLogP0; lp++ {
		pts = append(pts, gridPoint{lp: float64(lp)})
	}
	s.best(pts)
	pts = pts[:0]
	for lp := 0; lp <= maxLogP0; lp++ {
		for c := 0; c <= cs; c++ {
			pts = append(pts, gridPoint{lp: float64(lp), c: c})
		}
	}
	best := s.best(pts)
	for _, step := range []float64{1.0 / 16, 1.0 / 256} {
		pts = append(pts[:0], best)
		for k := -refineSteps; k <= refineSteps; k++ {
			if lp := best.lp + float64(k)*step; k != 0 && lp >= 0 && lp <= maxLogP0 {
				pts = append(pts, gridPoint{lp: lp, c: best.c})
			}
		}
		best = s.best(pts)
	}
	return best, s.scored
}

// FixedDARE emits a constant root fanout (2^10 when Root < 1) and inner
// fanout 32 — the ablation baseline ChaB of Table V uses it ("EBH only, no
// TSMDP and DARE"): at height 2 the upper structure is a single
// interpolation root.
type FixedDARE struct{ Root int }

// Parameters implements DAREPolicy.
func (f FixedDARE) Parameters([]uint64, int) (p0, g int) {
	if f.Root < 1 {
		return 1 << 10, 1 << 5
	}
	return f.Root, 1 << 5
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
