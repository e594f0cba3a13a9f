package rl

import (
	"testing"

	"chameleon/internal/dataset"
)

// reconstructBudget is the smaller sample internal/core's default search
// scores a runtime reconstruction on.
func reconstructBudget() DAREConfig {
	cfg := DefaultDAREConfig()
	cfg.SampleCap = 1 << 14
	return cfg
}

// TestCostDAREGolden pins the decisions CostDARE makes, at both sample
// sizes, on every generator: p0 and g must match the recorded values,
// which come from the grid search over a Partition-based cost walk. Any
// drift changes every tree, snapshot and segment built from these inputs. At h = 3 every row picks g = 1; at h = 2 no node reads g, and the
// search, which then scores only g = 1, returns it.
func TestCostDAREGolden(t *testing.T) {
	cases := []struct {
		gen    string
		n      int
		sample string
		p0, g  int
	}{
		{dataset.UDEN, 400_000, "full", 11124, 1},
		{dataset.UDEN, 400_000, "reconstruct", 2744, 1},
		{dataset.OSMC, 400_000, "full", 6266, 1},
		{dataset.OSMC, 400_000, "reconstruct", 1888, 1},
		{dataset.LOGN, 400_000, "full", 16340, 1},
		{dataset.LOGN, 400_000, "reconstruct", 3272, 1},
		{dataset.FACE, 400_000, "full", 6033, 1},
		{dataset.FACE, 400_000, "reconstruct", 1512, 1},
		{dataset.UDEN, 1_100_000, "full", 11399, 1},
		{dataset.UDEN, 1_100_000, "reconstruct", 2714, 1},
		{dataset.OSMC, 1_100_000, "full", 7573, 1},
		{dataset.OSMC, 1_100_000, "reconstruct", 2191, 1},
		{dataset.LOGN, 1_100_000, "full", 13193, 1},
		{dataset.LOGN, 1_100_000, "reconstruct", 2873, 1},
		{dataset.FACE, 1_100_000, "full", 6926, 1},
		{dataset.FACE, 1_100_000, "reconstruct", 2110, 1},
	}
	var gen string // cases on one input are adjacent: generate it once
	var ks []uint64
	for _, c := range cases {
		if testing.Short() && c.n > 400_000 {
			continue
		}
		if gen != c.gen || len(ks) != c.n {
			gen, ks = c.gen, dataset.Generate(c.gen, c.n, 42)
		}
		h := 2
		if c.n > 1<<20 {
			h = 3
		}
		cfg := DefaultDAREConfig()
		if c.sample == "reconstruct" {
			cfg = reconstructBudget()
		}
		if p0, g := NewCostDARE(cfg).Parameters(ks, h); p0 != c.p0 || g != c.g {
			t.Errorf("%s %d keys, %s sample: p0 %d, g %d; want %d, %d",
				c.gen, c.n, c.sample, p0, g, c.p0, c.g)
		}
	}
}
