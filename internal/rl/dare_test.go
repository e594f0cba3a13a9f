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
func bruteDARE(cfg DAREConfig, keys []uint64, h, L int) (int, [][]float64, float64) {
	s := newCostSample(cfg, keys)
	score := func(g float64, c int) float64 {
		p0, m := gridPoint{g: g, c: c}.shape().params(h, L)
		return costmodel.Reward(measureCost(cfg, s, h, L, p0, m, new(costmodel.Counters)), cfg.Env.Wt, cfg.Env.Wm)
	}
	cs := 0
	if h >= 3 {
		cs = 10
	}
	bestG, bestC, best := 0.0, 0, math.Inf(-1)
	for g := 0; g <= 20; g++ {
		for c := 0; c <= cs; c++ {
			if r := score(float64(g), c); r > best {
				bestG, bestC, best = float64(g), c, r
			}
		}
	}
	for _, step := range []float64{1.0 / 16, 1.0 / 256} {
		center := bestG
		for k := -15; k <= 15; k++ {
			g := center + float64(k)*step
			if k == 0 || g < 0 || g > 20 {
				continue
			}
			if r := score(g, bestC); r > best {
				bestG, best = g, r
			}
		}
	}
	p0, m := gridPoint{g: bestG, c: bestC}.shape().params(h, L)
	return p0, m, best
}

// TestCostDAREMatchesBruteForce checks that Parameters returns the argmax
// of its grid, as a serial walk over every candidate finds it, for any
// worker count.
func TestCostDAREMatchesBruteForce(t *testing.T) {
	const L = 16
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
		wantP0, wantM, wantScore := bruteDARE(cfg, keys, c.h, L)
		t.Logf("%s h=%d: p0 %d, M ≡ %v, reward %.6f", c.gen, c.h, wantP0, firstEntry(wantM), wantScore)
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/h%d/workers%d", c.gen, c.h, workers), func(t *testing.T) {
				cfg := cfg
				cfg.Workers = workers
				p0, m := NewCostDARE(cfg).Parameters(keys, c.h, L)
				if p0 != wantP0 || matrixHash(m) != matrixHash(wantM) {
					t.Fatalf("Parameters: p0 %d, M ≡ %v; brute force: p0 %d, M ≡ %v",
						p0, firstEntry(m), wantP0, firstEntry(wantM))
				}
				if got := searchScore(cfg, keys, c.h, L, p0, m); got != wantScore {
					t.Fatalf("reward %v, brute force %v", got, wantScore)
				}
			})
		}
	}
}

// firstEntry is M's first entry, every entry of a grid point's M, or 0 when
// M has no rows.
func firstEntry(m [][]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	return m[0][0]
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
		_, scored := NewCostDARE(cfg).search(keys, 3, matrixWidth)
		t.Logf("%s h=3: %d trees scored", c.gen, scored)
		if scored > c.atMost {
			t.Errorf("%s h=3: %d trees scored, want at most %d", c.gen, scored, c.atMost)
		}
	}
}
