package rl

import (
	"testing"

	"chameleon/internal/dataset"
)

// BenchmarkCostDAREDecide times one full-budget construction decision —
// the GA search over the cost model that chooses p0 and M — for the 2M-key
// FACE dataset the repository benchmark loads (h = 3). Run with -cpu to see
// the parallel fitness scoring scale.
func BenchmarkCostDAREDecide(b *testing.B) {
	keys := dataset.Generate(dataset.FACE, 2_000_000, 42)
	cfg := DefaultDAREConfig()
	d := NewCostDARE(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Parameters(keys, 3, cfg.L)
	}
}
