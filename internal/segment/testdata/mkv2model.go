//go:build ignore

// mkv2model writes seg-v2-model.seg, a CHAMSEG2 run that still carries the
// per-run learned model (a greedy ε-bounded PLA) that files written before
// fence-key lookup have, and manifest-v2-model.mft, the CHAMMAN1 envelope of
// the manifest that names it as segment 1 (its Meta records "eps": 4), into
// the current directory. The root package's TestRetiredFormatsRefused
// expects OpenDir to refuse the pair. It must run against a commit whose
// Write still builds the model; the committed files were made from c8189b6 with:
//
//	tmp=$(mktemp -d) && git archive c8189b6 | tar -x -C "$tmp"
//	cp internal/segment/testdata/mkv2model.go "$tmp"/
//	(cd "$tmp" && go run ./mkv2model.go)
//	cp "$tmp"/seg-v2-model.seg "$tmp"/manifest-v2-model.mft internal/segment/testdata/
package main

import (
	"bytes"
	"log"
	"os"

	"chameleon/internal/segment"
)

func main() {
	// 300 keys in six runs of 50 whose spacing grows run by run, 2^32
	// apart: at ε = 4 the model needs several pieces, and the run spans five
	// 64-rank blocks. Every seventh entry is a tombstone (value 0).
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
	var seg bytes.Buffer
	m, err := segment.Write(&seg, keys, vals, tombs, 1, 1, 500, 4)
	if err != nil {
		log.Fatal(err)
	}
	man, err := segment.EncodeManifest(&segment.Manifest{
		Gen: 1, FlushedSeq: m.Seq, LiveCount: int64(m.Live), NextID: 2, Segments: []segment.Meta{m},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("seg-v2-model.seg", seg.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("manifest-v2-model.mft", man, 0o644); err != nil {
		log.Fatal(err)
	}
}
