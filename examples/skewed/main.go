// Skewed-workload comparison: the paper's Fig. 8/9 scenario in miniature.
// Builds Chameleon, ALEX, and a B+Tree over datasets of rising local
// skewness and prints each structure's mean lookup latency — Chameleon's
// latency should stay nearly flat while the baselines degrade.
package main

import (
	"fmt"
	"time"

	"chameleon"
	"chameleon/internal/baselines/alex"
	"chameleon/internal/baselines/bptree"
	"chameleon/internal/dataset"
	"chameleon/internal/index"
	"chameleon/internal/workload"
)

const n = 500_000

func main() {
	fmt.Printf("%-10s %-8s %12s %12s %12s\n", "dataset", "lsn", "B+Tree", "ALEX", "Chameleon")
	for _, name := range dataset.Names {
		keys := dataset.Generate(name, n, 7)
		lsn := dataset.LocalSkewness(keys)
		probes := workload.ReadOnly(keys, 200_000, 11)

		bt := measure(bptree.New(0), keys, probes)
		al := measure(alex.New(), keys, probes)

		ch := chameleon.New(chameleon.Options{})
		if err := ch.BulkLoad(keys, nil); err != nil {
			panic(err)
		}
		start := time.Now()
		for _, op := range probes {
			ch.Lookup(op.Key)
		}
		cham := time.Since(start) / time.Duration(len(probes))
		ch.Close()

		fmt.Printf("%-10s %-8.3f %10dns %10dns %10dns\n", name, lsn, bt, al, cham)
	}
	fmt.Println("\nShape to expect (paper Fig. 8): Chameleon flat across rows; ALEX and")
	fmt.Println("B+Tree latency climbing with lsn, with the largest gap on FACE.")
}

func measure(ix index.Index, keys []uint64, probes []workload.Op) time.Duration {
	if err := ix.BulkLoad(keys, nil); err != nil {
		panic(err)
	}
	start := time.Now()
	for _, op := range probes {
		ix.Lookup(op.Key)
	}
	return time.Since(start) / time.Duration(len(probes))
}
