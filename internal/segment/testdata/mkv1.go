//go:build ignore

// mkv1 writes seg-v1.seg, a CHAMSEG1 segment: the root package's
// TestRetiredFormatsRefused expects OpenDir to refuse it. It must run
// against a commit whose Write still produces CHAMSEG1; the committed file was made from 5c21d14 with:
//
//	tmp=$(mktemp -d) && git archive 5c21d14 | tar -x -C "$tmp"
//	cp internal/segment/testdata/mkv1.go "$tmp"/
//	(cd "$tmp" && go run ./mkv1.go) > internal/segment/testdata/seg-v1.seg
package main

import (
	"log"
	"os"

	"chameleon/internal/segment"
)

func main() {
	// 300 keys in six runs of 50 whose spacing grows run by run, 2^32
	// apart: at ε = 4 the model needs several pieces. Every seventh entry
	// is a tombstone (value 0).
	keys := make([]uint64, 300)
	vals := make([]uint64, len(keys))
	tombs := make([]bool, len(keys))
	for i := range keys {
		run := uint64(i / 50)
		keys[i] = (run+1)<<32 | uint64(i%50)*(run*run*40+3)
		vals[i] = keys[i] ^ 0xC0FFEE
		if i%7 == 3 {
			tombs[i], vals[i] = true, 0
		}
	}
	if _, err := segment.Write(os.Stdout, keys, vals, tombs, 1, 1, 500, 4); err != nil {
		log.Fatal(err)
	}
}
