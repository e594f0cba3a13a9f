package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to both log readers and requires them to
// agree exactly: the pipelined Replay (parse/CRC on a producer goroutine,
// apply on the caller's) must report the same record sequence and the same
// torn-tail truncation point as the serial Scan. A divergence would mean
// recovery depends on which reader ran — the pipelining would have changed
// semantics, not just overlap. Every accepted record must also re-encode as
// a frame that decodes back to itself. Frames of the retired v1 format are
// seeded too: both readers must stop at the first one alike.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, Record{Op: OpDelete, Key: 9}))
	f.Add(appendV1Frame(nil, Record{Op: OpDelete, Key: 9}))
	v1, err := os.ReadFile("testdata/wal-v1.log")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1) // v1 frames ending in a tear
	f.Add(appendFrame(append([]byte(nil), v1[:len(v1)-14]...), Record{OpInsert, 5, 6}))

	// Logs big enough to cross Replay's pipelining threshold — all current
	// frames, and current and v1 frames interleaved — plus torn and
	// corrupted variants, so the fuzzer explores both the serial and the
	// pipelined path from the first generation.
	var big, mixed []byte
	for i := 0; i < 4*replayBatch; i++ {
		r := Record{Op: OpInsert, Key: uint64(i), Val: uint64(i * 3)}
		if i%4 == 3 {
			r = Record{Op: OpDelete, Key: uint64(i - 1)}
		}
		big = appendFrame(big, r)
		if i%2 == 1 {
			mixed = appendV1Frame(mixed, r)
		} else {
			mixed = appendFrame(mixed, r)
		}
	}
	for _, log := range [][]byte{big, mixed} {
		f.Add(log)
		f.Add(log[:len(log)-7]) // torn mid-frame
		flipped := append([]byte(nil), log...)
		flipped[len(flipped)/2] ^= 0x40 // CRC mismatch mid-log
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantValid := Scan(data)
		var got []Record
		n, valid := Replay(data, func(r Record) { got = append(got, r) })
		if n != len(want) || valid != wantValid {
			t.Fatalf("Replay = (%d records, valid %d), Scan = (%d, %d)",
				n, valid, len(want), wantValid)
		}
		if len(got) != len(want) {
			t.Fatalf("Replay applied %d records, Scan parsed %d", len(got), len(want))
		}
		var enc []byte
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d: Replay applied %+v, Scan parsed %+v", i, got[i], want[i])
			}
			enc = appendFrame(enc, want[i])
		}
		again, againValid := Scan(enc)
		if len(again) != len(want) || againValid != len(enc) {
			t.Fatalf("re-encoding scanned %d records to %d of %d, want %d",
				len(again), againValid, len(enc), len(want))
		}
		for i := range want {
			if again[i] != want[i] {
				t.Fatalf("record %d: re-encoding decoded %+v, want %+v", i, again[i], want[i])
			}
		}
	})
}

// appendV1Frame encodes r as a frame of the retired v1 format:
// [4 length = 17][4 CRC32C of the payload][op, key, val].
func appendV1Frame(dst []byte, r Record) []byte {
	var fr [v1Frame]byte
	binary.LittleEndian.PutUint32(fr[0:], v1Payload)
	fr[8] = byte(r.Op)
	binary.LittleEndian.PutUint64(fr[9:], r.Key)
	binary.LittleEndian.PutUint64(fr[17:], r.Val)
	binary.LittleEndian.PutUint32(fr[4:], crc32.Checksum(fr[8:], castagnoli))
	return append(dst, fr[:]...)
}
