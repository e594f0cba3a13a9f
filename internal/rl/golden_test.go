package rl

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"chameleon/internal/dataset"
)

// reconstructBudget is the reduced search core.Config.Defaults gives runtime
// reconstructions.
func reconstructBudget() DAREConfig {
	cfg := DefaultDAREConfig()
	cfg.GA.Generations = 8
	cfg.GA.Pop = 10
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

// TestCostDAREGolden pins the decisions CostDARE makes, at both budgets, on
// every generator: p0 and a hash of M must match the recorded values, which
// come from the serial search over a Partition-based cost walk. Any drift
// changes every tree, snapshot and segment built from these inputs. At h = 2
// M has no rows, so its hash is FNV-1a's offset basis.
func TestCostDAREGolden(t *testing.T) {
	cases := []struct {
		gen    string
		n      int
		budget string
		p0     int
		mHash  uint64
	}{
		{dataset.UDEN, 400_000, "full", 11127, 0xcbf29ce484222325},
		{dataset.UDEN, 400_000, "reconstruct", 2898, 0xcbf29ce484222325},
		{dataset.OSMC, 400_000, "full", 6380, 0xcbf29ce484222325},
		{dataset.OSMC, 400_000, "reconstruct", 1823, 0xcbf29ce484222325},
		{dataset.LOGN, 400_000, "full", 14785, 0xcbf29ce484222325},
		{dataset.LOGN, 400_000, "reconstruct", 2947, 0xcbf29ce484222325},
		{dataset.FACE, 400_000, "full", 5651, 0xcbf29ce484222325},
		{dataset.FACE, 400_000, "reconstruct", 1503, 0xcbf29ce484222325},
		{dataset.UDEN, 1_100_000, "full", 1, 0x227fad06388fbb31},
		{dataset.UDEN, 1_100_000, "reconstruct", 1, 0x767a8836d57f5798},
		{dataset.OSMC, 1_100_000, "full", 1, 0x227fad06388fbb31},
		{dataset.OSMC, 1_100_000, "reconstruct", 1, 0x767a8836d57f5798},
		{dataset.LOGN, 1_100_000, "full", 1, 0x227fad06388fbb31},
		{dataset.LOGN, 1_100_000, "reconstruct", 1, 0x767a8836d57f5798},
		{dataset.FACE, 1_100_000, "full", 1, 0x227fad06388fbb31},
		{dataset.FACE, 1_100_000, "reconstruct", 1, 0x767a8836d57f5798},
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
		if c.budget == "reconstruct" {
			cfg = reconstructBudget()
		}
		p0, m := NewCostDARE(cfg).Parameters(ks, h, matrixWidth)
		if got := matrixHash(m); p0 != c.p0 || got != c.mHash {
			t.Errorf("%s %d keys, %s budget: p0 %d, M hash %#x; want %d, %#x",
				c.gen, c.n, c.budget, p0, got, c.p0, c.mHash)
		}
	}
}
