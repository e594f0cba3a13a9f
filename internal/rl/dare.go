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
	// paper sketches in Section IV-B2 (see costmodel.Counters.WeightedTreeCost).
	QueryWeights func(sample []uint64) []float64
}

// DefaultDAREConfig mirrors Table IV at laptop scale. The parameter
// matrix's row width L (Table IV: 256) is not part of it: the caller passes
// it to Parameters (internal/core builds with 64).
func DefaultDAREConfig() DAREConfig {
	return DAREConfig{SampleCap: 1 << 16, Env: DefaultEnv()}
}

// The search space of Section IV-C: log2 p0 ∈ [0, 20] (root fanout up to
// 2^20) and log2 of an inner fanout ∈ [0, 10] (up to 2^10).
const (
	maxLogP0 = 20
	maxLogM  = 10
	// refineSteps is how many steps either side of the best log2 p0 each
	// refinement pass scores: 15 steps of 1/16 reach just short of the
	// neighbouring integers, 15 of 1/256 just short of the neighbouring
	// sixteenths, both scored already.
	refineSteps = 15
)

// gridPoint is one candidate of the search: log2 p0 and c, with every
// entry of M equal to 2^c.
type gridPoint struct {
	g float64
	c int
}

// shape identifies the tree a point builds: points that round to the same
// p0 build the same tree, and with p0 = 1 the root is one leaf whose cost
// never reads M.
func (pt gridPoint) shape() shape {
	p0 := decodeP0(pt.g)
	if p0 == 1 {
		return shape{p0: 1}
	}
	return shape{p0: p0, c: pt.c}
}

// shape is a decoded grid point: the root fanout p0, and c with every entry
// of M equal to 2^c.
type shape struct{ p0, c int }

// params returns the DARE outputs s stands for: p0 and the parameter matrix
// M (h−2 rows × L entries).
func (s shape) params(h, L int) (p0 int, m [][]float64) {
	m = make([][]float64, max(h-2, 0))
	for r := range m {
		m[r] = make([]float64, L)
		for j := range m[r] {
			m[r][j] = math.Exp2(float64(s.c))
		}
	}
	return s.p0, m
}

// decodeP0 is the root fanout 2^g rounded, within [1, 2^20].
func decodeP0(g float64) int {
	return min(max(int(math.Round(math.Exp2(g))), 1), 1<<maxLogP0)
}

// UpperFanoutFn converts DARE parameters into a costmodel.FanoutFn: the root
// uses p0, level i ∈ [2, h−1] uses row i−2 of M via the Eq. (4)
// interpolation, and level h nodes terminate as leaves (the TSMDP refinement
// is evaluated separately).
func UpperFanoutFn(p0 int, m [][]float64, mk, Mk uint64, L int) costmodel.FanoutFn {
	return func(level int, lo, hi uint64, n int) int {
		if level == 1 {
			return p0
		}
		row := level - 2
		if row >= len(m) {
			return 1
		}
		x := NodePosition(lo, hi, mk, Mk, L)
		return interpolateFanout(m[row], x)
	}
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

// measureCost is the DARE ground truth: build the upper-level tree p0 and M
// describe over the sample and evaluate it with the analytic cost model.
// This is what the paper's "Instantiate Chameleon-Index" step measures
// (Algorithm 2, line 11). It is safe for concurrent use with distinct
// counters.
func measureCost(cfg DAREConfig, s costSample, h, L int, p0 int, m [][]float64, counters *costmodel.Counters) costmodel.Cost {
	if len(s.keys) == 0 {
		return costmodel.Cost{}
	}
	mk, Mk := s.keys[0], s.keys[len(s.keys)-1]
	fan := UpperFanoutFn(p0, m, mk, Mk, L)
	// Nil weights make WeightedTreeCost the plain TreeCost.
	return counters.WeightedTreeCost(s.keys, s.weights, mk, Mk, h-1, fan, cfg.Env.Tau, cfg.Env.Alpha)
}

// gridSearch is one Parameters call: the sample every candidate is scored
// on, and the score of every tree scored so far.
type gridSearch struct {
	cfg    DAREConfig
	sample costSample
	h, L   int
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
// fanout 2^k.c ≥ 2, must score below the best score so far: its reward is
// at most that of costmodel.RootSplit.DeepBound, which needs only how the
// root splits the sample. The bound holds for unweighted queries and
// w_t, w_m ≥ 0.
func (s *gridSearch) cutsDeep(k shape) bool {
	if !s.prune || k.c < 1 || k.p0 < 2 || s.h < 3 {
		return false
	}
	split, ok := s.roots[k.p0]
	if !ok {
		keys := s.sample.keys
		split = costmodel.SplitRoot(keys, keys[0], keys[len(keys)-1], k.p0)
		s.roots[k.p0] = split
	}
	env := s.cfg.Env
	bound := costmodel.Reward(split.DeepBound(k.p0, 1<<k.c, env.Tau, env.Alpha), env.Wt, env.Wm)
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
		p0, m := todo[i].params(s.h, s.L)
		got[i] = costmodel.Reward(measureCost(s.cfg, s.sample, s.h, s.L, p0, m, counters), s.cfg.Env.Wt, s.cfg.Env.Wm)
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
