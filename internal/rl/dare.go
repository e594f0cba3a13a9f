package rl

import (
	"math"
	"math/rand/v2"

	"chameleon/internal/costmodel"
	"chameleon/internal/dataset"
	"chameleon/internal/ga"
	"chameleon/internal/mlp"
)

// DAREConfig collects the DARE hyper-parameters of Table IV.
type DAREConfig struct {
	L         int // parameter-matrix row width (Table IV: 256)
	BD        int // PDF bucket count b_D for DARE states
	Hidden    int
	LR        float64
	Seed      uint64
	GA        ga.Config
	SampleCap int // max keys used when measuring ground-truth cost
	Env       Env
	// QueryWeights, when non-nil, supplies per-key query frequencies for a
	// cost-model sample, enabling the query-distribution-aware reward the
	// paper sketches in Section IV-B2 (see costmodel.Counters.WeightedTreeCost).
	QueryWeights func(sample []uint64) []float64
}

// DefaultDAREConfig mirrors Table IV at laptop scale (b_D 16384 → 256 by
// default; both are flags in cmd/chameleon-train).
func DefaultDAREConfig() DAREConfig {
	return DAREConfig{
		L:         64,
		BD:        256,
		Hidden:    64,
		LR:        1e-4,
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
// decision or episode and shared, read-only, by every genome scored on it.
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
func measureCost(cfg DAREConfig, s costSample, h int, genome []float64, counters *costmodel.Counters) costmodel.Cost {
	if len(s.keys) == 0 {
		return costmodel.Cost{}
	}
	p0, m := DecodeGenome(genome, h, cfg.L)
	mk, Mk := s.keys[0], s.keys[len(s.keys)-1]
	fan := UpperFanoutFn(p0, m, mk, Mk, cfg.L)
	// Nil weights make WeightedTreeCost the plain TreeCost.
	return counters.WeightedTreeCost(s.keys, s.weights, mk, Mk, h-1, fan, cfg.Env.Tau, cfg.Env.Alpha)
}

// DARE is the Dynamic-Reward RL agent: a GA actor over the parameter space
// and a DQN critic Q_D(s_D, a_D) that predicts the cost vector
// (query, memory). The DRF r_D = Σ w_i·cost_i is applied on top of the
// predicted costs, so the agent adapts to new weightings without retraining
// (Section IV-C "Reward").
type DARE struct {
	cfg    DAREConfig
	h      int // tree height the critic was shaped for
	critic *mlp.Net
	rng    *rand.Rand
}

// NewDARE creates an untrained agent for indexes of height h.
func NewDARE(cfg DAREConfig, h int) *DARE {
	if cfg.L <= 0 || cfg.BD <= 0 {
		cfg = DefaultDAREConfig()
	}
	if h < 2 {
		h = 2
	}
	genomeLen := len(genomeBounds(h, cfg.L))
	stateSize := cfg.BD + 2
	return &DARE{
		cfg:    cfg,
		h:      h,
		critic: mlp.New(cfg.Seed^0xda3e, stateSize+genomeLen, cfg.Hidden, cfg.Hidden, 2),
		rng:    rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x94d049bb133111eb)),
	}
}

// criticInput concatenates the normalized state and genome.
func (d *DARE) criticInput(state, genome []float64) []float64 {
	in := make([]float64, 0, len(state)+len(genome))
	in = append(in, state...)
	in = append(in, genome[0]/20)
	for _, g := range genome[1:] {
		in = append(in, g/10)
	}
	return in
}

// PredictCost evaluates the critic for a state/genome pair.
func (d *DARE) PredictCost(state, genome []float64) costmodel.Cost {
	out := d.critic.Forward(d.criticInput(state, genome))
	return costmodel.Cost{Query: out[0], Memory: out[1]}
}

// Best runs the GA actor (Algorithm 1) against the critic under DRF weights
// (wt, wm) and returns the fittest genome.
func (d *DARE) Best(state []float64, wt, wm float64, seed uint64) []float64 {
	bounds := genomeBounds(d.h, d.cfg.L)
	gaCfg := d.cfg.GA
	gaCfg.Seed = seed
	genome, _ := ga.Optimize(gaCfg, bounds, func(g []float64) float64 {
		return costmodel.Reward(d.PredictCost(state, g), wt, wm)
	})
	return genome
}

// Parameters implements DAREPolicy: extract features, run the actor with the
// environment's DRF weights, and decode.
func (d *DARE) Parameters(keys []uint64, h, L int) (int, [][]float64) {
	state := dataset.Extract(keys, d.cfg.BD).Vector()
	genome := d.Best(state, d.cfg.Env.Wt, d.cfg.Env.Wm, d.cfg.Seed)
	return DecodeGenome(genome, h, d.cfg.L)
}

// TrainEpisode runs one Algorithm 2 episode body for DARE: given a dataset,
// choose a_D = (1−er)·a_best + er·a_random, measure the true cost, and train
// the critic with the MAE loss of Eq. (5). It returns the training loss.
func (d *DARE) TrainEpisode(keys []uint64, er float64) float64 {
	state := dataset.Extract(keys, d.cfg.BD).Vector()
	// Random DRF weights (Algorithm 2 line 7) keep the critic valid across
	// weightings.
	wt := d.rng.Float64()
	wm := 1 - wt
	bounds := genomeBounds(d.h, d.cfg.L)
	aBest := d.Best(state, wt, wm, d.rng.Uint64())
	aRand := make([]float64, len(bounds))
	for i, b := range bounds {
		aRand[i] = b.Lo + d.rng.Float64()*(b.Hi-b.Lo)
	}
	aD := make([]float64, len(bounds))
	for i := range aD {
		aD[i] = (1-er)*aBest[i] + er*aRand[i]
	}
	truth := measureCost(d.cfg, newCostSample(d.cfg, keys), d.h, aD, new(costmodel.Counters))
	xs := [][]float64{d.criticInput(state, aD)}
	ys := [][]float64{{truth.Query, truth.Memory}}
	return d.critic.TrainBatch(xs, ys, d.cfg.LR, mlp.MAE)
}

// Net returns the critic network for persistence.
func (d *DARE) Net() *mlp.Net { return d.critic }

// SetNet installs trained critic parameters.
func (d *DARE) SetNet(n *mlp.Net) { d.critic = n }
