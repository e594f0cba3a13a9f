//go:build ignore

// mkv1 writes wal-v1.log, a WAL of v1 frames ending in a torn frame: the
// root package's TestRetiredFormatsRefused expects OpenDir to refuse it as
// a live and as a rotated log, and FuzzReplay seeds with it. It must run
// against a commit whose wal package still writes v1 frames
// ([4 len][4 CRC32C][1 op][8 key][8 val]); the committed file was made from
// 30ae0e2 with:
//
//	tmp=$(mktemp -d) && git archive 30ae0e2 | tar -x -C "$tmp"
//	cp internal/wal/testdata/mkv1.go "$tmp"/
//	(cd "$tmp" && go run ./mkv1.go) > internal/wal/testdata/wal-v1.log
package main

import (
	"log"
	"os"
	"path/filepath"

	"chameleon/internal/wal"
)

func main() {
	dir, err := os.MkdirTemp("", "mkv1")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "wal.log")
	l, _, err := wal.Open(path, wal.Options{Policy: wal.SyncNone}, nil)
	if err != nil {
		log.Fatal(err)
	}
	key := func(i int) uint64 { return 0xA000_0000 + uint64(i)*0x1_0001 }
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	// 48 inserts, then a delete of every third key, then an all-ones key and
	// a re-insert of a deleted key under a new value: 66 records.
	for i := 0; i < 48; i++ {
		must(l.AppendInsert(key(i), key(i)^0x5EED))
	}
	for i := 0; i < 48; i += 3 {
		must(l.AppendDelete(key(i)))
	}
	must(l.AppendInsert(^uint64(0), ^uint64(0)))
	must(l.AppendInsert(key(0), 7))
	// A last insert torn 14 bytes into its 25-byte frame.
	must(l.AppendInsert(0xFFFF_FFFF, 1))
	must(l.Close())
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := os.Stdout.Write(data[:len(data)-11]); err != nil {
		log.Fatal(err)
	}
}
