package rl

import (
	"math"
	"testing"

	"chameleon/internal/costmodel"
	"chameleon/internal/dataset"
)

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
	if k := (gridPoint{lp: maxLogP0, c: maxLogG}).shape(); k.p0 != 1<<20 || k.g != 1<<10 {
		t.Fatalf("top corner decodes to p0 %d, g %d; want 2^20, 2^10", k.p0, k.g)
	}
	if k := (gridPoint{lp: 9.5, c: 3}).shape(); k.p0 != 724 || k.g != 8 {
		t.Fatalf("log2 p0 9.5, c 3 decodes to p0 %d, g %d; want 724, 8", k.p0, k.g)
	}
	// p0 = 1 makes the root one leaf: g is never read, so every c is one tree.
	if a, b := (gridPoint{lp: 0, c: 7}).shape(), (gridPoint{lp: 0.2, c: 0}).shape(); a != b {
		t.Fatalf("p0 = 1 points differ: %+v, %+v", a, b)
	}
}

// searchScore is the reward of (p0, g) on the sample a search with cfg
// scores its candidates on.
func searchScore(cfg DAREConfig, keys []uint64, h, p0, g int) float64 {
	c := measureCost(cfg, newCostSample(cfg, keys), h, p0, g, new(costmodel.Counters))
	return costmodel.Reward(c, cfg.Env.Wt, cfg.Env.Wm)
}

func TestCostDAREProducesUsableParameters(t *testing.T) {
	cfg := DefaultDAREConfig()
	cfg.SampleCap = 4096
	d := NewCostDARE(cfg)
	keys := dataset.Generate(dataset.LOGN, 50_000, 5)
	p0, g := d.Parameters(keys, 3)
	if p0 < 1 || p0 > 1<<20 {
		t.Fatalf("p0 = %d out of range", p0)
	}
	if g < 1 || g > 1<<10 {
		t.Fatalf("g = %d out of range", g)
	}
	// The chosen parameters must score at least as well as a degenerate
	// single-leaf structure, which is a grid point.
	chosen := searchScore(cfg, keys, 3, p0, g)
	single := searchScore(cfg, keys, 3, 1, g)
	if chosen < single {
		t.Fatalf("chosen parameters (p0 %d, reward %v) lose to a single leaf (%v)", p0, chosen, single)
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

	p0u, gu := NewCostDARE(base).Parameters(keys, 3)
	p0w, gw := NewCostDARE(weighted).Parameters(keys, 3)

	ru := searchScore(weighted, keys, 3, p0u, gu)
	rw := searchScore(weighted, keys, 3, p0w, gw)
	if rw < ru {
		t.Fatalf("weighted-guided construction (p0 %d) loses under its own metric to uniform (p0 %d): %v vs %v",
			p0w, p0u, rw, ru)
	}
}
