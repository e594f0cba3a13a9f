package segment

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"chameleon/internal/faultfs"
)

// ErrUnsortedRun is returned by Write when keys are not strictly ascending —
// a run's sort order is the invariant everything else (the fences, the
// merge, the block search) rests on.
var ErrUnsortedRun = errors.New("segment: run keys not strictly ascending")

// Write encodes one immutable run to w as CHAMSEG2: keys (strictly
// ascending), parallel values, and parallel tombstone flags (tombs may be
// nil for an all-live run). The whole envelope is sealed by one CRC.
// Returns the Meta the manifest should record. Write does not sync; Create
// is the durable variant.
//
// eps is ignored: it was the error bound of a learned model the file no
// longer carries, and stays because the benchmark harness (bench/), which
// changes only with the benchmark, passes it.
func Write(w io.Writer, keys, vals []uint64, tombs []bool, id uint64, level int, seq uint64, eps int) (Meta, error) {
	n := uint64(len(keys))
	if uint64(len(vals)) != n || (tombs != nil && uint64(len(tombs)) != n) {
		return Meta{}, fmt.Errorf("segment: mismatched run sections: %d keys, %d vals, %d tombs",
			len(keys), len(vals), len(tombs))
	}
	// One pass checks the order and sizes the data section, which the
	// header carries ahead of it.
	var dataLen uint64
	for i := range keys {
		switch {
		case i > 0 && keys[i] <= keys[i-1]:
			return Meta{}, ErrUnsortedRun
		case i%blockRanks == 0:
			dataLen += 16
		default:
			dataLen += uint64(uvarintLen(keys[i]-keys[i-1])) + 8
		}
	}
	live := n
	tombBytes := make([]byte, (n+7)/8)
	if tombs != nil {
		for i, t := range tombs {
			if t {
				tombBytes[i/8] |= 1 << (i % 8)
				live--
			}
		}
	}
	m := Meta{ID: id, Level: level, Count: n, Live: live, Seq: seq, Bytes: fileSize(n, dataLen)}
	if n > 0 {
		m.MinKey, m.MaxKey = keys[0], keys[n-1]
	}

	crc := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)

	var hdr [headerSize]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:], version)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(level))
	binary.LittleEndian.PutUint64(hdr[16:], n)
	binary.LittleEndian.PutUint64(hdr[24:], m.MinKey)
	binary.LittleEndian.PutUint64(hdr[32:], m.MaxKey)
	binary.LittleEndian.PutUint64(hdr[40:], seq)
	binary.LittleEndian.PutUint64(hdr[48:], live)
	// hdr[56:64], ε and the model piece count, stay 0: no model.
	binary.LittleEndian.PutUint64(hdr[64:], dataLen)
	if _, err := bw.Write(hdr[:]); err != nil {
		return Meta{}, err
	}
	table := make([]byte, 8, (numBlocks(n)+1)*8) // entry 0: offset 0
	var blk []byte
	var off uint64
	for lo := 0; lo < len(keys); lo += blockRanks {
		hi := min(lo+blockRanks, len(keys))
		blk = appendBlock(blk[:0], keys[lo:hi], vals[lo:hi])
		if _, err := bw.Write(blk); err != nil {
			return Meta{}, err
		}
		off += uint64(len(blk))
		table = binary.LittleEndian.AppendUint64(table, off)
	}
	if _, err := bw.Write(table); err != nil {
		return Meta{}, err
	}
	if _, err := bw.Write(tombBytes); err != nil {
		return Meta{}, err
	}
	// The footer is written past the CRC accumulator: flush the data first
	// so the digest is complete, then append CRC + end magic directly.
	if err := bw.Flush(); err != nil {
		return Meta{}, err
	}
	var foot [footerSize]byte
	binary.LittleEndian.PutUint32(foot[:4], crc.Sum32())
	copy(foot[4:], magic)
	if _, err := w.Write(foot[:]); err != nil {
		return Meta{}, err
	}
	return m, nil
}

// appendBlock appends the data block of keys and their values to dst: the
// first key as a u64, each later key's delta from its predecessor as a
// uvarint, then the values as u64s.
func appendBlock(dst []byte, keys, vals []uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, keys[0])
	for i := 1; i < len(keys); i++ {
		dst = binary.AppendUvarint(dst, keys[i]-keys[i-1])
	}
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// Create writes the run as FileName(id) in dir, fsyncs the file, and closes
// it; eps is ignored, as in Write. It does NOT SyncDir: the flush/compaction
// commit protocol seals every new segment's directory entry with one SyncDir
// immediately before the manifest that references them is written.
func Create(fsys faultfs.FS, dir string, keys, vals []uint64, tombs []bool, id uint64, level int, seq uint64, eps int) (Meta, error) {
	path := filepath.Join(dir, FileName(id))
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return Meta{}, err
	}
	m, err := Write(f, keys, vals, tombs, id, level, seq, eps)
	if err != nil {
		f.Close()         //nolint:errcheck
		fsys.Remove(path) //nolint:errcheck
		return Meta{}, err
	}
	if err := f.Sync(); err != nil {
		f.Close()         //nolint:errcheck
		fsys.Remove(path) //nolint:errcheck
		return Meta{}, err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(path) //nolint:errcheck
		return Meta{}, err
	}
	return m, nil
}
