package rl

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"chameleon/internal/dataset"
)

// reconstructBudget is the smaller sample core.New gives runtime
// reconstructions.
func reconstructBudget() DAREConfig {
	cfg := DefaultDAREConfig()
	cfg.SampleCap = 1 << 14
	return cfg
}

// matrixHash is FNV-1a over the bit patterns of M, row by row.
func matrixHash(m [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range m {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// matrixWidth is the row width L of DARE's parameter matrix that
// internal/core builds with (its matrixWidth).
const matrixWidth = 64

// TestCostDAREGolden pins the decisions CostDARE makes, at both sample
// sizes, on every generator: p0 and a hash of M must match the recorded
// values, which come from the grid search over a Partition-based cost walk.
// Any drift changes every tree, snapshot and segment built from these
// inputs. At h = 2 M has no rows, so its hash is FNV-1a's offset basis; at
// h = 3 every row picks M ≡ 1.
func TestCostDAREGolden(t *testing.T) {
	cases := []struct {
		gen    string
		n      int
		sample string
		p0     int
		mHash  uint64
	}{
		{dataset.UDEN, 400_000, "full", 11124, 0xcbf29ce484222325},
		{dataset.UDEN, 400_000, "reconstruct", 2744, 0xcbf29ce484222325},
		{dataset.OSMC, 400_000, "full", 6266, 0xcbf29ce484222325},
		{dataset.OSMC, 400_000, "reconstruct", 1888, 0xcbf29ce484222325},
		{dataset.LOGN, 400_000, "full", 16340, 0xcbf29ce484222325},
		{dataset.LOGN, 400_000, "reconstruct", 3272, 0xcbf29ce484222325},
		{dataset.FACE, 400_000, "full", 6033, 0xcbf29ce484222325},
		{dataset.FACE, 400_000, "reconstruct", 1512, 0xcbf29ce484222325},
		{dataset.UDEN, 1_100_000, "full", 11399, 0xb6337f141f2fe725},
		{dataset.UDEN, 1_100_000, "reconstruct", 2714, 0xb6337f141f2fe725},
		{dataset.OSMC, 1_100_000, "full", 7573, 0xb6337f141f2fe725},
		{dataset.OSMC, 1_100_000, "reconstruct", 2191, 0xb6337f141f2fe725},
		{dataset.LOGN, 1_100_000, "full", 13193, 0xb6337f141f2fe725},
		{dataset.LOGN, 1_100_000, "reconstruct", 2873, 0xb6337f141f2fe725},
		{dataset.FACE, 1_100_000, "full", 6926, 0xb6337f141f2fe725},
		{dataset.FACE, 1_100_000, "reconstruct", 2110, 0xb6337f141f2fe725},
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
		p0, m := NewCostDARE(cfg).Parameters(ks, h, matrixWidth)
		if got := matrixHash(m); p0 != c.p0 || got != c.mHash {
			t.Errorf("%s %d keys, %s sample: p0 %d, M hash %#x; want %d, %#x",
				c.gen, c.n, c.sample, p0, got, c.p0, c.mHash)
		}
	}
}
