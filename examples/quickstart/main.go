// Quickstart: bulk load a Chameleon index, run point queries, updates, and a
// range scan through the public API.
package main

import (
	"fmt"
	"log"

	"chameleon"
	"chameleon/internal/dataset"
)

func main() {
	// One million sorted unique keys from the FACE-like generator (the
	// paper's most locally skewed dataset).
	keys := dataset.Generate(dataset.FACE, 1_000_000, 42)

	ix := chameleon.New(chameleon.Options{})
	defer ix.Close()
	if err := ix.BulkLoad(keys, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d keys, lsn=%.3f, height=%d, size=%.1f MB\n",
		ix.Len(), ix.LocalSkewness(), ix.Height(), float64(ix.Bytes())/(1<<20))

	// Point queries.
	for _, k := range []uint64{keys[0], keys[len(keys)/2], keys[len(keys)-1]} {
		v, ok := ix.Lookup(k)
		fmt.Printf("lookup %d → %d (%v)\n", k, v, ok)
	}
	if _, ok := ix.Lookup(keys[0] + 1); ok && keys[1] != keys[0]+1 {
		log.Fatal("phantom hit")
	}

	// Updates.
	fresh := keys[len(keys)-1] + 12345
	if err := ix.Insert(fresh, 777); err != nil {
		log.Fatal(err)
	}
	if v, ok := ix.Lookup(fresh); !ok || v != 777 {
		log.Fatal("inserted key not found")
	}
	if err := ix.Insert(fresh, 0); err != chameleon.ErrDuplicateKey {
		log.Fatalf("expected duplicate-key error, got %v", err)
	}
	if err := ix.Delete(fresh); err != nil {
		log.Fatal(err)
	}

	// Range scan (EBH leaves are unordered; Range materializes and sorts the
	// overlapping leaves — point workloads are the design target).
	count := 0
	ix.Range(keys[100], keys[200], func(k, v uint64) bool {
		count++
		return true
	})
	fmt.Printf("range [keys[100], keys[200]] → %d keys\n", count)

	s := ix.Stats()
	fmt.Printf("structure: MaxHeight=%d AvgHeight=%.2f MaxError=%d AvgError=%.2f Nodes=%d\n",
		s.MaxHeight, s.AvgHeight, s.MaxError, s.AvgError, s.Nodes)
}
