package rl

import (
	"math"
	"testing"

	"chameleon/internal/costmodel"
	"chameleon/internal/dataset"
)

func TestInterpolateFanoutEq4(t *testing.T) {
	// Paper's worked example under Eq. (4): x = 0.5 between p_0 = 5.1 and
	// p_1 = 1.3 gives (0.5−0)·1.3 + (1−0.5)·5.1 = 3.2 → 3.
	row := []float64{5.1, 1.3, 2.0, 4.0}
	if got := interpolateFanout(row, 0.5); got != 3 {
		t.Fatalf("interpolateFanout = %d, want 3 (paper example)", got)
	}
	if got := interpolateFanout(row, 0); got != 5 {
		t.Fatalf("x=0: got %d, want 5", got)
	}
	if got := interpolateFanout(row, 99); got != 4 {
		t.Fatalf("x beyond end: got %d, want last entry", got)
	}
	if got := interpolateFanout(nil, 1); got != 1 {
		t.Fatalf("empty row: got %d, want 1", got)
	}
	if got := interpolateFanout([]float64{9999}, 0); got != 1<<10 {
		t.Fatalf("clamp: got %d, want %d", got, 1<<10)
	}
}

func TestEnvStepTerminalAndSplit(t *testing.T) {
	env := DefaultEnv()
	keys := dataset.Uniform(10_000, 1)
	lo, hi := keys[0], keys[len(keys)-1]

	r, children := env.Step(keys, lo, hi, 1)
	if children != nil {
		t.Fatal("terminal action produced children")
	}
	if r >= 0 {
		t.Fatalf("leaf reward %v must be negative (it is a cost)", r)
	}

	r, children = env.Step(keys, lo, hi, 8)
	if len(children) == 0 {
		t.Fatal("split produced no children")
	}
	totalKeys, totalWeight := 0, 0.0
	for _, c := range children {
		totalKeys += len(c.Keys)
		totalWeight += c.Weight
		if len(c.Keys) == 0 {
			t.Fatal("empty child emitted")
		}
		for _, k := range c.Keys {
			if k < c.Lo || k > c.Hi {
				t.Fatalf("key %d outside child interval [%d,%d]", k, c.Lo, c.Hi)
			}
		}
	}
	if totalKeys != len(keys) {
		t.Fatalf("children cover %d keys, want %d", totalKeys, len(keys))
	}
	if math.Abs(totalWeight-1) > 1e-9 {
		t.Fatalf("child weights sum to %v, want 1 (Eq. 3)", totalWeight)
	}
}

func TestCostPolicySplitsSkewTerminatesSmall(t *testing.T) {
	p := NewCostPolicy(DefaultEnv())
	small := dataset.Uniform(100, 3)
	if f := p.Fanout(small, small[0], small[len(small)-1], 1); f != 1 {
		t.Fatalf("small node fanout %d, want 1", f)
	}
	big := dataset.Generate(dataset.FACE, 200_000, 3)
	f := p.Fanout(big, big[0], big[len(big)-1], 1)
	if f <= 1 {
		t.Fatalf("200k-key node fanout %d; policy refused to partition", f)
	}
}

func TestDecodeGenomeBoundsAndShape(t *testing.T) {
	h, L := 3, 8
	p0, m := gridPoint{g: maxLogP0, c: maxLogM}.shape().params(h, L)
	if p0 != 1<<20 {
		t.Fatalf("p0 = %d, want 2^20", p0)
	}
	if len(m) != 1 || len(m[0]) != L {
		t.Fatalf("matrix shape %dx%d, want 1x%d", len(m), len(m[0]), L)
	}
	for _, v := range m[0] {
		if v != 1<<10 {
			t.Fatalf("matrix entry %v, want 2^10", v)
		}
	}
	// h=2: no matrix rows.
	if _, m := (gridPoint{g: 3}).shape().params(2, L); len(m) != 0 {
		t.Fatalf("h=2 produced %d matrix rows", len(m))
	}
	// p0 = 1 makes the root one leaf: M is never read, so every c is one tree.
	if a, b := (gridPoint{g: 0, c: 7}).shape(), (gridPoint{g: 0.2, c: 0}).shape(); a != b {
		t.Fatalf("p0 = 1 points differ: %+v, %+v", a, b)
	}
}

// searchScore is the reward of (p0, m) on the sample a search with cfg
// scores its candidates on.
func searchScore(cfg DAREConfig, keys []uint64, h, L, p0 int, m [][]float64) float64 {
	c := measureCost(cfg, newCostSample(cfg, keys), h, L, p0, m, new(costmodel.Counters))
	return costmodel.Reward(c, cfg.Env.Wt, cfg.Env.Wm)
}

func TestCostDAREProducesUsableParameters(t *testing.T) {
	cfg := DefaultDAREConfig()
	cfg.SampleCap = 4096
	d := NewCostDARE(cfg)
	keys := dataset.Generate(dataset.LOGN, 50_000, 5)
	p0, m := d.Parameters(keys, 3, 16)
	if p0 < 1 || p0 > 1<<20 {
		t.Fatalf("p0 = %d out of range", p0)
	}
	if len(m) != 1 || len(m[0]) != 16 {
		t.Fatalf("matrix shape wrong: %d rows", len(m))
	}
	// The chosen parameters must score at least as well as a degenerate
	// single-leaf structure, which is a grid point.
	chosen := searchScore(cfg, keys, 3, 16, p0, m)
	single := searchScore(cfg, keys, 3, 16, 1, m)
	if chosen < single {
		t.Fatalf("chosen parameters (p0 %d, reward %v) lose to a single leaf (%v)", p0, chosen, single)
	}
}

func TestNodePosition(t *testing.T) {
	// Paper's worked example: node [0,1] of dataset [0,3] with L=4:
	// x = ((0+1)/2 − 0)/(3 − 0)·3 = 0.5.
	// (Integer midpoint arithmetic floors 1/2 to 0 for such tiny spans; use
	// a scaled-up version of the same proportions.)
	x := NodePosition(0, 1_000_000, 0, 3_000_000, 4)
	if math.Abs(x-0.5) > 0.01 {
		t.Fatalf("NodePosition = %v, want 0.5 (paper example)", x)
	}
	if NodePosition(5, 5, 5, 5, 4) != 0 {
		t.Fatal("degenerate span must map to 0")
	}
}

func TestQueryWeightedConstruction(t *testing.T) {
	// The Section IV-B2 extension: with a hot-head query distribution, the
	// search should pick parameters whose *weighted* cost, on its own
	// sample, is at least as good as the uniform-guided choice's.
	keys := dataset.Generate(dataset.LOGN, 40_000, 8)
	zipf := func(sample []uint64) []float64 {
		w := make([]float64, len(sample))
		for i := range w {
			w[i] = 1 / float64(i+1) // hot head at low keys
		}
		return w
	}

	base := DefaultDAREConfig()
	base.SampleCap = 8192

	weighted := base
	weighted.QueryWeights = zipf

	p0u, mu := NewCostDARE(base).Parameters(keys, 3, 16)
	p0w, mw := NewCostDARE(weighted).Parameters(keys, 3, 16)

	ru := searchScore(weighted, keys, 3, 16, p0u, mu)
	rw := searchScore(weighted, keys, 3, 16, p0w, mw)
	if rw < ru {
		t.Fatalf("weighted-guided construction (p0 %d) loses under its own metric to uniform (p0 %d): %v vs %v",
			p0w, p0u, rw, ru)
	}
}
