//go:build ignore

// mkseqmeta writes seqmeta-legacy/ and seqmeta-tiered/, two data directories
// in the layout written before snapshot and WAL names carried their base
// commit sequence: snapshot-<rot>.ckpt and wal-<rot>.log, with the bases in a
// seq-<gen>.meta sidecar. It must run against a commit that still writes
// that layout; the committed directories were made from 36058bd with:
//
//	tmp=$(mktemp -d) && git archive 36058bd | tar -x -C "$tmp"
//	cp testdata/mkseqmeta.go "$tmp"/
//	(cd "$tmp" && go run ./mkseqmeta.go)
//	cp -r "$tmp"/seqmeta-legacy "$tmp"/seqmeta-tiered testdata/
//
// TestRetiredFormatsRefused expects OpenDir to refuse both, and
// OpenShardedDir seqmeta-legacy.
package main

import (
	"log"

	"chameleon"
)

func main() {
	// Legacy: a bulk-loaded snapshot, a checkpoint after 30 inserts and 10
	// deletes (snapshot-2 at commit 40), and a WAL tail of 11 more (commit
	// 51), so the clock is neither the key count nor the tail length.
	d, err := chameleon.OpenDir("seqmeta-legacy", chameleon.DirOptions{})
	if err != nil {
		log.Fatal(err)
	}
	bulk := make([]uint64, 200)
	for i := range bulk {
		bulk[i] = uint64(i)*10 + 1
	}
	must(d.BulkLoad(bulk, nil))
	for i := uint64(0); i < 30; i++ {
		must(d.Insert(10_000+i, i))
	}
	for i := uint64(0); i < 10; i++ {
		must(d.Delete(i*10 + 1))
	}
	must(d.Checkpoint())
	for i := uint64(0); i < 7; i++ {
		must(d.Insert(20_000+i, 2*i))
	}
	for i := uint64(0); i < 4; i++ {
		must(d.Delete(10_000 + i))
	}
	must(d.Close())

	// Tiered: a bulk-loaded base, one flush at commit 48 (its WAL rotation
	// recorded in the sidecar with base 48), and an unflushed tail of 17
	// more, deletes of segment-resident keys among them (commit 65).
	d, err = chameleon.OpenDir("seqmeta-tiered", chameleon.DirOptions{
		Tiered: true, MemtableBytes: 1 << 30,
	})
	if err != nil {
		log.Fatal(err)
	}
	bulk = make([]uint64, 300)
	for i := range bulk {
		bulk[i] = uint64(i)*7 + 3
	}
	must(d.BulkLoad(bulk, nil))
	for i := uint64(0); i < 40; i++ {
		must(d.Insert(50_000+i, i))
	}
	for i := uint64(0); i < 8; i++ {
		must(d.Delete(uint64(i)*7 + 3))
	}
	must(d.Flush())
	for i := uint64(0); i < 12; i++ {
		must(d.Insert(60_000+i, 3*i))
	}
	for i := uint64(0); i < 5; i++ {
		must(d.Delete(50_000 + i))
	}
	must(d.Close())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
