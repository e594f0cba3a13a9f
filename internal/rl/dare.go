package rl

import (
	"math"

	"chameleon/internal/costmodel"
	"chameleon/internal/par"
)

// DAREConfig collects the DARE hyper-parameters of Table IV.
type DAREConfig struct {
	SampleCap int // max keys used when measuring ground-truth cost
	Workers   int // goroutines scoring candidates: 0 = one per CPU, 1 = serial
	Env       Env
	// QueryWeights, when non-nil, supplies per-key query frequencies for a
	// cost-model sample, enabling the query-distribution-aware reward the
	// paper sketches in Section IV-B2 (see costmodel.Counters.TreeCost).
	QueryWeights func(sample []uint64) []float64
}

// DefaultDAREConfig mirrors Table IV at laptop scale.
func DefaultDAREConfig() DAREConfig {
	return DAREConfig{SampleCap: 1 << 16, Env: DefaultEnv()}
}

// The search space of Section IV-C: log2 p0 ∈ [0, 20] (root fanout up to
// 2^20) and log2 of an inner fanout ∈ [0, 10] (up to 2^10).
const (
	maxLogP0 = 20
	maxLogG  = 10
	// refineSteps is how many steps either side of the best log2 p0 each
	// refinement pass scores: 15 steps of 1/16 reach just short of the
	// neighbouring integers, 15 of 1/256 just short of the neighbouring
	// sixteenths, both scored already.
	refineSteps = 15
)

// gridPoint is one candidate of the search: lp = log2 p0, and c = log2 g.
type gridPoint struct {
	lp float64
	c  int
}

// shape identifies the tree a point builds: points that round to the same
// p0 build the same tree, and with p0 = 1 the root is one leaf whose cost
// never reads g.
func (pt gridPoint) shape() shape {
	p0 := decodeP0(pt.lp)
	if p0 == 1 {
		return shape{p0: 1, g: 1}
	}
	return shape{p0: p0, g: 1 << pt.c}
}

// shape is a decoded grid point: the DARE outputs p0 and g.
type shape struct{ p0, g int }

// decodeP0 is the root fanout 2^lp rounded, within [1, 2^20].
func decodeP0(lp float64) int {
	return min(max(int(math.Round(math.Exp2(lp))), 1), 1<<maxLogP0)
}

// costSample is the key sample DARE's ground truth is measured on, with its
// per-key query weights (nil for uniform queries). It is drawn once per
// decision and shared, read-only, by every candidate scored on it.
type costSample struct {
	keys    []uint64
	weights []float64
}

// newCostSample strides keys down to at most cfg.SampleCap keys and asks
// cfg.QueryWeights, once, for their weights.
func newCostSample(cfg DAREConfig, keys []uint64) costSample {
	s := costSample{keys: keys}
	if cfg.SampleCap > 0 && len(keys) > cfg.SampleCap {
		stride := len(keys) / cfg.SampleCap
		s.keys = make([]uint64, 0, cfg.SampleCap+1)
		for i := 0; i < len(keys); i += stride {
			s.keys = append(s.keys, keys[i])
		}
	}
	if cfg.QueryWeights != nil && len(s.keys) > 0 {
		s.weights = cfg.QueryWeights(s.keys)
	}
	return s
}

// measureCost is the DARE ground truth: build the upper levels 1..h−1 that
// p0 and g describe over the sample, level-h nodes terminating as leaves
// (the TSMDP refinement is evaluated separately), and evaluate them with
// the analytic cost model. This is what the paper's "Instantiate
// Chameleon-Index" step measures (Algorithm 2, line 11). It is safe for
// concurrent use with distinct counters.
func measureCost(cfg DAREConfig, s costSample, h, p0, g int, counters *costmodel.Counters) costmodel.Cost {
	if len(s.keys) == 0 {
		return costmodel.Cost{}
	}
	mk, Mk := s.keys[0], s.keys[len(s.keys)-1]
	return counters.TreeCost(s.keys, s.weights, mk, Mk, h-1, p0, g, cfg.Env.Tau, cfg.Env.Alpha)
}

// gridSearch is one Parameters call: the sample every candidate is scored
// on, and the score of every tree scored so far.
type gridSearch struct {
	cfg    DAREConfig
	sample costSample
	h      int
	scores map[shape]float64
	// free holds the slot counters of walks not running: at most one walk
	// per worker runs at a time, so the workers share that many buffers.
	free chan *costmodel.Counters

	// prune is whether deep trees are skipped by their bound (see
	// cutsDeep), top the best score so far, scored how many trees were
	// walked, and roots each root fanout's split of the sample.
	prune  bool
	top    float64
	scored int
	roots  map[int]costmodel.RootSplit
}

// cutsDeep reports whether the tree of k, whose level-2 nodes all have
// fanout k.g ≥ 2, must score below the best score so far: its reward is
// at most that of costmodel.RootSplit.DeepBound, which needs only how the
// root splits the sample. The bound holds for unweighted queries and
// w_t, w_m ≥ 0.
func (s *gridSearch) cutsDeep(k shape) bool {
	if !s.prune || k.g < 2 || k.p0 < 2 || s.h < 3 {
		return false
	}
	split, ok := s.roots[k.p0]
	if !ok {
		keys := s.sample.keys
		split = costmodel.SplitRoot(keys, keys[0], keys[len(keys)-1], k.p0)
		s.roots[k.p0] = split
	}
	env := s.cfg.Env
	bound := costmodel.Reward(split.DeepBound(k.p0, k.g, env.Tau, env.Alpha), env.Wt, env.Wm)
	return cannotBeat(bound, s.top)
}

// best scores the points whose trees were neither scored nor cut before,
// concurrently, and returns the highest-scoring point, ties going to the
// earliest in pts. A tree cut by its bound scores −∞: it could not have
// tied the best score, so the answer is the one scoring it would give.
func (s *gridSearch) best(pts []gridPoint) gridPoint {
	var todo []shape
	for _, pt := range pts {
		k := pt.shape()
		if _, ok := s.scores[k]; ok {
			continue
		}
		if s.cutsDeep(k) {
			s.scores[k] = math.Inf(-1)
			continue
		}
		s.scores[k] = 0 // a placeholder, so a repeat is not queued twice
		todo = append(todo, k)
	}
	s.scored += len(todo)
	got := make([]float64, len(todo))
	par.Do(len(todo), par.Workers(s.cfg.Workers), func(i int) {
		var counters *costmodel.Counters
		select {
		case counters = <-s.free:
		default:
			counters = new(costmodel.Counters)
		}
		k := todo[i]
		got[i] = costmodel.Reward(measureCost(s.cfg, s.sample, s.h, k.p0, k.g, counters), s.cfg.Env.Wt, s.cfg.Env.Wm)
		select {
		case s.free <- counters:
		default:
		}
	})
	for i, k := range todo {
		s.scores[k] = got[i]
		s.top = max(s.top, got[i])
	}
	best, bestScore := gridPoint{}, math.Inf(-1)
	for _, pt := range pts {
		if sc := s.scores[pt.shape()]; sc > bestScore {
			best, bestScore = pt, sc
		}
	}
	return best
}
