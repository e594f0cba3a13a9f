package rl

import (
	"math"

	"chameleon/internal/costmodel"
	"chameleon/internal/ga"
)

// DAREConfig collects the DARE hyper-parameters of Table IV.
type DAREConfig struct {
	Seed      uint64
	GA        ga.Config
	SampleCap int // max keys used when measuring ground-truth cost
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
	return DAREConfig{
		Seed:      1,
		GA:        ga.Config{Pop: 20, Generations: 24, Patience: 8},
		SampleCap: 1 << 16,
		Env:       DefaultEnv(),
	}
}

// genomeBounds returns the GA search space for a given tree height: gene 0
// is log2(p0) ∈ [0, 20] (root fanout up to 2^20) and the remaining
// (h−2)·L genes are log2 of inner fanouts ∈ [0, 10] (up to 2^10), matching
// the ranges of Section IV-C.
func genomeBounds(h, L int) []ga.Bound {
	rows := h - 2
	if rows < 0 {
		rows = 0
	}
	b := make([]ga.Bound, 1+rows*L)
	b[0] = ga.Bound{Lo: 0, Hi: 20}
	for i := 1; i < len(b); i++ {
		b[i] = ga.Bound{Lo: 0, Hi: 10}
	}
	return b
}

// DecodeGenome converts a GA genome into the DARE outputs: the root fanout
// p0 and the parameter matrix M (h−2 rows × L decoded fanout values).
func DecodeGenome(genome []float64, h, L int) (p0 int, m [][]float64) {
	p0 = decodeP0(genome[0])
	rows := (len(genome) - 1) / max(L, 1)
	m = make([][]float64, rows)
	for r := 0; r < rows; r++ {
		row := make([]float64, L)
		for c := 0; c < L; c++ {
			row[c] = math.Exp2(genome[1+r*L+c])
		}
		m[r] = row
	}
	return p0, m
}

// decodeP0 is the root fanout gene 0 encodes: 2^g rounded, within
// [1, 2^20].
func decodeP0(g float64) int {
	return min(max(int(math.Round(math.Exp2(g))), 1), 1<<20)
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
// decision and shared, read-only, by every genome scored on it.
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

// measureCost is the DARE ground truth: build the upper-level tree the
// genome describes over the sample and evaluate it with the analytic cost
// model. This is what the paper's "Instantiate Chameleon-Index" step
// measures (Algorithm 2, line 11). It is safe for concurrent use with
// distinct counters.
func measureCost(cfg DAREConfig, s costSample, h, L int, genome []float64, counters *costmodel.Counters) costmodel.Cost {
	if len(s.keys) == 0 {
		return costmodel.Cost{}
	}
	p0, m := DecodeGenome(genome, h, L)
	mk, Mk := s.keys[0], s.keys[len(s.keys)-1]
	fan := UpperFanoutFn(p0, m, mk, Mk, L)
	// Nil weights make WeightedTreeCost the plain TreeCost.
	return counters.WeightedTreeCost(s.keys, s.weights, mk, Mk, h-1, fan, cfg.Env.Tau, cfg.Env.Alpha)
}
