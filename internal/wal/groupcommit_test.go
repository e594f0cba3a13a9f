package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestAppendAllReplayCompatible pins the group-commit frame layout: a batched
// AppendAll writes bytes indistinguishable from the same records appended one
// at a time, so logs written by either path replay identically.
func TestAppendAllReplayCompatible(t *testing.T) {
	recs := []Record{
		{OpInsert, 1, 100},
		{OpInsert, 2, 200},
		{OpDelete, 1, 0},
		{OpInsert, 1 << 60, ^uint64(0)},
	}
	dir := t.TempDir()
	onePath := filepath.Join(dir, "one.log")
	batchPath := filepath.Join(dir, "batch.log")

	one, _ := openCollect(t, onePath, Options{})
	for _, r := range recs {
		if err := one.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := one.Close(); err != nil {
		t.Fatal(err)
	}
	batch, _ := openCollect(t, batchPath, Options{})
	if err := batch.AppendAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := batch.Close(); err != nil {
		t.Fatal(err)
	}

	oneBytes, err := os.ReadFile(onePath)
	if err != nil {
		t.Fatal(err)
	}
	batchBytes, err := os.ReadFile(batchPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oneBytes, batchBytes) {
		t.Fatalf("batched log differs from serial log (%d vs %d bytes)", len(batchBytes), len(oneBytes))
	}

	l, got := openCollect(t, batchPath, Options{})
	defer l.Close()
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if r != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, r, recs[i])
		}
	}
}

func TestAppendAllEmptyIsNoOp(t *testing.T) {
	l, _ := openCollect(t, filepath.Join(t.TempDir(), "wal.log"), Options{})
	defer l.Close()
	if err := l.AppendAll(nil); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("Size = %d after empty AppendAll", l.Size())
	}
}

// TestReplayMatchesScan drives the pipelined Replay over logs big enough to
// engage the producer goroutine and asserts full equivalence with Scan: same
// records in the same order, same torn-tail offset — intact, torn, and
// corrupt cases alike.
func TestReplayMatchesScan(t *testing.T) {
	// Large enough to clear Replay's pipelining threshold several times over.
	n := 8 * replayBatch
	var buf []byte
	for i := 0; i < n; i++ {
		r := Record{Op: OpInsert, Key: uint64(i), Val: uint64(i) * 3}
		if i%5 == 0 {
			r = Record{Op: OpDelete, Key: uint64(i)}
		}
		buf = appendFrame(buf, r)
	}
	cases := map[string][]byte{
		"intact": buf,
		"torn":   buf[:len(buf)-7],
		"empty":  nil,
	}
	corrupt := append([]byte(nil), buf...)
	corrupt[len(buf)/2] ^= 0xff // flip a bit mid-log: CRC must cut replay there
	cases["corrupt"] = corrupt

	for name, data := range cases {
		want, wantValid := Scan(data)
		var got []Record
		n, valid := Replay(data, func(r Record) { got = append(got, r) })
		if n != len(want) || valid != wantValid {
			t.Fatalf("%s: Replay = (%d, %d), Scan = (%d, %d)", name, n, valid, len(want), wantValid)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: applied %d records, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
}
