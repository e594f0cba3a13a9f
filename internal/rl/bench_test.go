package rl

import (
	"testing"

	"chameleon/internal/dataset"
)

// BenchmarkCostDAREDecide times one construction decision — the grid
// search over the cost model that chooses p0 and g — for the 2M-key FACE
// dataset the repository benchmark loads (h = 3). Run with -cpu to see the
// parallel candidate scoring scale.
func BenchmarkCostDAREDecide(b *testing.B) {
	keys := dataset.Generate(dataset.FACE, 2_000_000, 42)
	d := NewCostDARE(DefaultDAREConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Parameters(keys, 3)
	}
}

// BenchmarkCostPolicyFanout times CostPolicy's decision over the whole
// 2M-key FACE key set, the largest node it can be handed (a tree whose DARE
// root is one leaf hands it every key): fanout 1 scored as one leaf, the
// other ten bounded and scored only while they can still win.
func BenchmarkCostPolicyFanout(b *testing.B) {
	keys := dataset.Generate(dataset.FACE, 2_000_000, 42)
	p := NewCostPolicy(DefaultEnv())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Fanout(keys, keys[0], keys[len(keys)-1], 3)
	}
}
