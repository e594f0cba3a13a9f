//go:build ignore

// mkv2 writes snapshot-v2.ckpt, a CHAMSNP2 snapshot: the root package's
// TestRetiredFormatsRefused expects OpenDir to refuse it, and FuzzReadFrom
// seeds with it. It must run against a commit whose WriteTo still writes
// CHAMSNP2; the committed file was made from 6d3019c with:
//
//	tmp=$(mktemp -d) && git archive 6d3019c | tar -x -C "$tmp"
//	cp internal/core/testdata/mkv2.go "$tmp"/
//	(cd "$tmp" && go run ./mkv2.go) > internal/core/testdata/snapshot-v2.ckpt
package main

import (
	"log"
	"os"

	"chameleon/internal/core"
	"chameleon/internal/rl"
)

func main() {
	// Fixed policies keep the tree small and its shape independent of the
	// construction search: 16 gates, each split 4 ways below the gate level.
	ix := core.New(core.Config{
		Dare:   rl.FixedDARE{Root: 16},
		Policy: rl.FixedFanout{F: 4, MinSplit: 100},
	})
	// 32 dense runs of 64 keys, 2^24 apart: locally skewed, with empty
	// leaves between the runs.
	keys := make([]uint64, 2048)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = uint64(i/64)<<24 | uint64(i%64)*3
		vals[i] = keys[i] ^ 0x5A5A
	}
	if err := ix.BulkLoad(keys, vals); err != nil {
		log.Fatal(err)
	}
	// Churn, so leaves carry deleted slots and insert-displaced keys.
	for i, k := range keys {
		if i%3 == 0 {
			if err := ix.Insert(k+1, (k+1)^0x5A5A); err != nil {
				log.Fatal(err)
			}
		}
		if i%5 == 0 {
			if err := ix.Delete(k); err != nil {
				log.Fatal(err)
			}
		}
	}
	if _, err := ix.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
