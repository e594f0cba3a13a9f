package rl

import (
	"fmt"
	"math"
	"testing"

	"chameleon/internal/costmodel"
	"chameleon/internal/dataset"
)

// bruteDARE is CostDARE.Parameters without its sharing: every candidate of
// every stage scored serially, repeats included, on the search's own
// sample, the first strict improvement kept.
func bruteDARE(cfg DAREConfig, keys []uint64, h int) (p0, g int, best float64) {
	s := newCostSample(cfg, keys)
	score := func(lp float64, c int) float64 {
		k := gridPoint{lp: lp, c: c}.shape()
		return costmodel.Reward(measureCost(cfg, s, h, k.p0, k.g, new(costmodel.Counters)), cfg.Env.Wt, cfg.Env.Wm)
	}
	cs := 0
	if h >= 3 {
		cs = 10
	}
	bestLP, bestC := 0.0, 0
	best = math.Inf(-1)
	for lp := 0; lp <= 20; lp++ {
		for c := 0; c <= cs; c++ {
			if r := score(float64(lp), c); r > best {
				bestLP, bestC, best = float64(lp), c, r
			}
		}
	}
	for _, step := range []float64{1.0 / 16, 1.0 / 256} {
		center := bestLP
		for k := -15; k <= 15; k++ {
			lp := center + float64(k)*step
			if k == 0 || lp < 0 || lp > 20 {
				continue
			}
			if r := score(lp, bestC); r > best {
				bestLP, best = lp, r
			}
		}
	}
	k := gridPoint{lp: bestLP, c: bestC}.shape()
	return k.p0, k.g, best
}

// TestCostDAREMatchesBruteForce checks that Parameters returns the argmax
// of its grid, as a serial walk over every candidate finds it, for any
// worker count.
func TestCostDAREMatchesBruteForce(t *testing.T) {
	cases := []struct {
		gen string
		h   int
	}{
		{dataset.FACE, 2}, {dataset.LOGN, 2}, {dataset.OSMC, 3}, {dataset.UDEN, 3},
		{dataset.FACE, 3}, {dataset.LOGN, 3},
	}
	for _, c := range cases {
		keys := dataset.Generate(c.gen, 60_000, 42)
		cfg := DefaultDAREConfig()
		cfg.SampleCap = 8192
		wantP0, wantG, wantScore := bruteDARE(cfg, keys, c.h)
		t.Logf("%s h=%d: p0 %d, g %d, reward %.6f", c.gen, c.h, wantP0, wantG, wantScore)
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/h%d/workers%d", c.gen, c.h, workers), func(t *testing.T) {
				cfg := cfg
				cfg.Workers = workers
				p0, g := NewCostDARE(cfg).Parameters(keys, c.h)
				if p0 != wantP0 || g != wantG {
					t.Fatalf("Parameters: p0 %d, g %d; brute force: p0 %d, g %d", p0, g, wantP0, wantG)
				}
				if got := searchScore(cfg, keys, c.h, p0, g); got != wantScore {
					t.Fatalf("reward %v, brute force %v", got, wantScore)
				}
			})
		}
	}
}

// TestCostDAREPrunesDeepTrees pins that the bound on trees with c ≥ 1
// keeps skipping their walks on the 2 M-key samples: a FACE, UDEN or OSMC
// search at h = 3 scores the c = 0 column and the two refinements, at most
// 81 trees, where scoring every candidate takes 281. On LOGN, where some
// deep trees come close, it skips 89 of the 200 with c ≥ 1.
func TestCostDAREPrunesDeepTrees(t *testing.T) {
	cases := []struct {
		gen    string
		atMost int
	}{
		{dataset.FACE, 81}, {dataset.UDEN, 81}, {dataset.OSMC, 81}, {dataset.LOGN, 192},
	}
	for _, c := range cases {
		keys := dataset.Generate(c.gen, 2_000_000, 42)
		cfg := DefaultDAREConfig()
		cfg.Workers = 2
		_, scored := NewCostDARE(cfg).search(keys, 3)
		t.Logf("%s h=3: %d trees scored", c.gen, scored)
		if scored > c.atMost {
			t.Errorf("%s h=3: %d trees scored, want at most %d", c.gen, scored, c.atMost)
		}
	}
}
