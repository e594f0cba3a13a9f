package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// v1FixturePath is a log of v1 frames written by testdata/mkv1.go before the
// writer switched to v2, ending in a torn frame.
const v1FixturePath = "testdata/wal-v1.log"

// v1FixtureRecords are the intact records testdata/mkv1.go wrote: keep the
// two in step.
func v1FixtureRecords() []Record {
	key := func(i int) uint64 { return 0xA000_0000 + uint64(i)*0x1_0001 }
	var recs []Record
	for i := 0; i < 48; i++ {
		recs = append(recs, Record{OpInsert, key(i), key(i) ^ 0x5EED})
	}
	for i := 0; i < 48; i += 3 {
		recs = append(recs, Record{Op: OpDelete, Key: key(i)})
	}
	return append(recs,
		Record{OpInsert, ^uint64(0), ^uint64(0)},
		Record{OpInsert, key(0), 7})
}

// appendV1Frame encodes r as the v1 frame the writer emitted before v2:
// [4 length = 17][4 CRC32C of the payload][op, key, val].
// TestV1FixtureBytes pins it to the fixture.
func appendV1Frame(dst []byte, r Record) []byte {
	var f [v1Frame]byte
	binary.LittleEndian.PutUint32(f[0:], v1Payload)
	f[v1Header] = byte(r.Op)
	binary.LittleEndian.PutUint64(f[v1Header+1:], r.Key)
	binary.LittleEndian.PutUint64(f[v1Header+9:], r.Val)
	binary.LittleEndian.PutUint32(f[4:], crc32.Checksum(f[v1Header:], castagnoli))
	return append(dst, f[:]...)
}

// mixedLog is the fixture's intact v1 prefix followed by v2 frames of
// inserts and deletes, with the records it holds and each frame's end offset.
func mixedLog(t *testing.T) (data []byte, recs []Record, ends []int) {
	t.Helper()
	raw, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	recs = v1FixtureRecords()
	data = raw[:len(recs)*v1Frame]
	for i := range recs {
		ends = append(ends, (i+1)*v1Frame)
	}
	for i := uint64(0); i < 12; i++ {
		r := Record{OpInsert, i << 50, i}
		if i%3 == 2 {
			r = Record{Op: OpDelete, Key: (i - 1) << 50}
		}
		data = appendFrame(data, r)
		recs = append(recs, r)
		ends = append(ends, len(data))
	}
	return data, recs, ends
}

// TestV1FixtureBytes: appendV1Frame reproduces the fixture's intact prefix
// byte for byte, so the mixed logs the tests and fuzz seeds build from it are
// the real v1 format.
func TestV1FixtureBytes(t *testing.T) {
	raw, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, r := range v1FixtureRecords() {
		want = appendV1Frame(want, r)
	}
	if len(raw) != len(want)+14 {
		t.Fatalf("fixture is %d bytes, want %d intact + a 14-byte tear", len(raw), len(want))
	}
	if !bytes.Equal(raw[:len(want)], want) {
		t.Fatal("appendV1Frame differs from the fixture's v1 frames")
	}
}

// TestV1FixtureReplaysAndTruncatesTear: opening the v1 fixture replays every
// intact record in order and truncates the torn last frame.
func TestV1FixtureReplaysAndTruncatesTear(t *testing.T) {
	raw, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, got := openCollect(t, path, Options{})
	defer l.Close()
	want := v1FixtureRecords()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if size := int64(len(want) * v1Frame); l.Size() != size {
		t.Fatalf("Size = %d, want the intact prefix %d", l.Size(), size)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(want)*v1Frame) {
		t.Fatalf("file not truncated to the intact prefix: %v %v", fi.Size(), err)
	}
}

// TestV1LogContinuesWithV2Frames: appends to a reopened v1 log are v2 frames
// after the v1 prefix, and a second reopen replays both in order.
func TestV1LogContinuesWithV2Frames(t *testing.T) {
	raw, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, want := openCollect(t, path, Options{})
	more := []Record{
		{OpInsert, 1, 10},
		{Op: OpDelete, Key: 0xA000_0000},
		{OpInsert, 0xFFFF_FFFF, 1},
	}
	if err := l.Append(more[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAll(more[1:]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want = append(want, more...)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(v1FixtureRecords())*v1Frame + insertFrame + deleteFrame + insertFrame; len(data) != n {
		t.Fatalf("log is %d bytes, want %d", len(data), n)
	}
	l2, got := openCollect(t, path, Options{})
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestMixedLogTearAtEveryOffset cuts a log of v1 then v2 frames at every byte
// offset: Scan and Replay recover exactly the frames that end at or before
// the cut, and stop at the last such boundary.
func TestMixedLogTearAtEveryOffset(t *testing.T) {
	data, recs, ends := mixedLog(t)
	whole := 0
	for cut := 0; cut <= len(data); cut++ {
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		boundary := 0
		if whole > 0 {
			boundary = ends[whole-1]
		}
		got, valid := Scan(data[:cut])
		if len(got) != whole || valid != boundary {
			t.Fatalf("cut=%d: Scan kept %d records to %d, want %d to %d", cut, len(got), valid, whole, boundary)
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("cut=%d: record %d = %+v, want %+v", cut, i, got[i], recs[i])
			}
		}
	}
}

// TestFlippedOpNeverDecodes rewrites the op byte of one frame in a mixed log
// to every other value — the other op, the v1 tag, anything — and checks
// that the frame never decodes as a record: the CRC covers the op byte, and
// with it the frame's kind and length. Replay stops at the mutated frame.
func TestFlippedOpNeverDecodes(t *testing.T) {
	// An insert whose value starts with the CRC of its bare key: read as a
	// delete, its first 13 bytes would be a valid frame if the CRC skipped
	// the op byte.
	var key [8]byte
	binary.LittleEndian.PutUint64(key[:], 0x1234_0000_0000_0000)
	bare := uint64(crc32.Checksum(key[:], castagnoli))
	for _, tc := range []struct {
		name  string
		frame []byte
		opAt  int
	}{
		{"v2 insert", appendFrame(nil, Record{OpInsert, 0x1234_0000_0000_0000, 9}), 0},
		{"v2 insert, value = bare key CRC", appendFrame(nil, Record{OpInsert, 0x1234_0000_0000_0000, bare}), 0},
		{"v2 delete", appendFrame(nil, Record{Op: OpDelete, Key: 0x1234_0000_0000_0000}), 0},
		{"v1 insert", appendV1Frame(nil, Record{OpInsert, 0x1234_0000_0000_0000, 9}), v1Header},
		{"v1 delete", appendV1Frame(nil, Record{Op: OpDelete, Key: 0x1234_0000_0000_0000}), v1Header},
	} {
		head := appendFrame(nil, Record{OpInsert, 1, 1})
		tail := appendFrame(nil, Record{Op: OpDelete, Key: 1})
		for b := 0; b < 256; b++ {
			if byte(b) == tc.frame[tc.opAt] {
				continue
			}
			mid := append([]byte(nil), tc.frame...)
			mid[tc.opAt] = byte(b)
			data := append(append(append([]byte(nil), head...), mid...), tail...)
			got, valid := Scan(data)
			if len(got) != 1 || valid != len(head) {
				t.Fatalf("%s, op byte %#x: Scan kept %d records to %d (%+v), want 1 to %d",
					tc.name, b, len(got), valid, got, len(head))
			}
		}
	}
}
