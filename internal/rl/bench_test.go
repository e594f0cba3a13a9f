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
	d := NewCostDARE(DefaultDAREConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Parameters(keys, 3, matrixWidth)
	}
}

// BenchmarkCostPolicyFanout times CostPolicy's decision at the root of the
// same 2M-key FACE bulk load, where CostDARE picks p0 = 1 and the whole key
// set reaches the fanout policy: fanout 1 scored as one leaf, the other ten
// bounded and scored only while they can still win.
func BenchmarkCostPolicyFanout(b *testing.B) {
	keys := dataset.Generate(dataset.FACE, 2_000_000, 42)
	p := NewCostPolicy(DefaultEnv())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Fanout(keys, keys[0], keys[len(keys)-1], 3)
	}
}
