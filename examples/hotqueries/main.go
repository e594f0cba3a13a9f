// Query-distribution-aware construction: the Section IV-B2 extension. A
// Zipf-skewed query workload concentrates on a hot key region; feeding the
// matching weights into DARE's reward makes the construction spend its
// budget where the queries actually land. The program builds both variants
// and replays the same Zipf stream against each.
package main

import (
	"fmt"
	"time"

	"chameleon/internal/core"
	"chameleon/internal/dataset"
	"chameleon/internal/rl"
	"chameleon/internal/workload"
)

const (
	n       = 400_000
	queries = 300_000
	zipfS   = 1.3
)

func main() {
	keys := dataset.Generate(dataset.LOGN, n, 21)
	stream := workload.ZipfReads(keys, queries, zipfS, 5)

	build := func(weighted bool) *core.Index {
		dcfg := rl.DefaultDAREConfig()
		dcfg.SampleCap = 1 << 15
		if weighted {
			dcfg.QueryWeights = func(sample []uint64) []float64 {
				// The sample preserves rank order, so Zipf-by-rank weights
				// transfer directly.
				return workload.ZipfWeights(len(sample), zipfS)
			}
		}
		ix := core.New(core.Config{
			Name:   "Chameleon",
			Dare:   rl.NewCostDARE(dcfg),
			Policy: rl.NewCostPolicy(rl.DefaultEnv()),
		})
		if err := ix.BulkLoad(keys, nil); err != nil {
			panic(err)
		}
		return ix
	}

	measure := func(ix *core.Index) time.Duration {
		start := time.Now()
		for _, op := range stream {
			ix.Lookup(op.Key)
		}
		return time.Since(start) / time.Duration(len(stream))
	}

	uniform := build(false)
	weighted := build(true)
	// Warm both, then interleave measurements to cancel machine drift.
	measure(uniform)
	measure(weighted)
	var uSum, wSum time.Duration
	const rounds = 3
	for i := 0; i < rounds; i++ {
		uSum += measure(uniform)
		wSum += measure(weighted)
	}

	fmt.Printf("Zipf(s=%.1f) stream of %d lookups over %d LOGN keys\n", zipfS, queries, n)
	fmt.Printf("  uniform-reward construction:  %v/lookup  (%d nodes)\n",
		uSum/rounds, uniform.Stats().Nodes)
	fmt.Printf("  query-weighted construction:  %v/lookup  (%d nodes)\n",
		wSum/rounds, weighted.Stats().Nodes)
	fmt.Println("\nThe weighted build shapes the hot head's subtrees for the access")
	fmt.Println("pattern (Section IV-B2: \"other factors such as the query distribution")
	fmt.Println("can be added to the reward function\").")
}
