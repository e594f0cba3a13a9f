// Structure inspection: builds the paper's Table V ablations — ChaB (EBH
// only), ChaDA (EBH + DARE), and ChaDATS (the full system with TSMDP) — over
// each dataset and prints their structural metrics side by side, showing how
// each agent tightens the structure.
package main

import (
	"fmt"

	"chameleon/internal/core"
	"chameleon/internal/dataset"
	"chameleon/internal/rl"
)

const n = 300_000

func main() {
	fmt.Printf("%-6s %-8s %9s %8s %9s %8s %8s\n",
		"data", "variant", "MaxH", "MaxErr", "AvgH", "AvgErr", "#Nodes")
	for _, ds := range dataset.Names {
		keys := dataset.Generate(ds, n, 13)
		for _, build := range []func() *core.Index{
			core.NewChaB,
			func() *core.Index { return core.NewChaDA(fastDare()) },
			func() *core.Index { return core.NewChaDATS(fastDare(), rl.NewCostPolicy(rl.DefaultEnv())) },
		} {
			ix := build()
			if err := ix.BulkLoad(keys, nil); err != nil {
				panic(err)
			}
			s := ix.Stats()
			fmt.Printf("%-6s %-8s %9d %8d %9.2f %8.2f %8d\n",
				ds, ix.Name(), s.MaxHeight, s.MaxError, s.AvgHeight, s.AvgError, s.Nodes)
		}
	}
	fmt.Println("\nShape to expect (paper Table V): adding DARE then TSMDP lowers the")
	fmt.Println("error columns and keeps heights at 2–4 across every distribution.")
}

func fastDare() rl.DAREPolicy {
	cfg := rl.DefaultDAREConfig()
	cfg.SampleCap = 1 << 15
	return rl.NewCostDARE(cfg)
}
