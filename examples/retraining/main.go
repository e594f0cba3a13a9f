// Live-update demo: the paper's Section V scenario. A foreground loop
// streams skew-shifting inserts and deletes while the background retraining
// goroutine — synchronized only through Interval Locks — keeps the structure
// healthy. The program reports query latency and retraining activity as the
// distribution drifts.
package main

import (
	"fmt"
	"time"

	"chameleon"
	"chameleon/internal/dataset"
	"chameleon/internal/workload"
)

func main() {
	base := dataset.Generate(dataset.OSMC, 400_000, 5)
	ix := chameleon.New(chameleon.Options{})
	defer ix.Close()
	if err := ix.BulkLoad(base, nil); err != nil {
		panic(err)
	}

	// Retrain every 50ms (the paper uses 10s at 200M keys; scaled down).
	ix.StartRetrainer(50 * time.Millisecond)

	fmt.Printf("%-8s %10s %12s %10s %12s %10s\n",
		"wave", "inserts", "query lat", "retrains", "retrain time", "lsn")

	probes := workload.ReadOnly(base, 50_000, 6)
	next := base[len(base)-1]
	for wave := 1; wave <= 6; wave++ {
		// Each wave hammers a fresh dense region — exactly the "updates
		// cause or aggravate local skewness" motivation of Fig. 1.
		inserted := 0
		for i := 0; i < 100_000; i++ {
			next += 3
			if err := ix.Insert(next, next); err == nil {
				inserted++
			}
		}
		start := time.Now()
		for _, op := range probes {
			ix.Lookup(op.Key)
		}
		lat := time.Since(start) / time.Duration(len(probes))
		// Give the retrainer a beat to observe the drift.
		time.Sleep(120 * time.Millisecond)
		n, total := ix.RetrainStats()
		fmt.Printf("%-8d %10d %10dns %10d %12s %10.3f\n",
			wave, inserted, lat, n, total.Round(time.Millisecond), ix.LocalSkewness())
	}

	// Deleting the hammered region shifts the distribution back.
	fmt.Println("\ndeleting the inserted region…")
	removed := 0
	for k := base[len(base)-1] + 3; k <= next; k += 3 {
		if err := ix.Delete(k); err == nil {
			removed++
		}
	}
	time.Sleep(150 * time.Millisecond)
	n, total := ix.RetrainStats()
	fmt.Printf("removed %d keys; total retrains %d (%s); final len %d\n",
		removed, n, total.Round(time.Millisecond), ix.Len())
}
