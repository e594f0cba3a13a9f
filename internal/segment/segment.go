// Package segment implements the immutable on-disk runs of the tiered
// storage engine (DESIGN.md §15): sorted key/value/tombstone files in a
// CRC-checked, versioned envelope. A run is a sequence of 64-rank data
// blocks, each starting with its first key in full, and an open run keeps
// every block's first key in memory — its fence keys — so a cold point
// lookup is a binary search over the fences plus one pread of the one block
// they name, with no full-run scan. Fences cannot say "absent" without that
// read, so each open run also keeps an in-memory membership filter
// (filter.go) in regions of 64 blocks, and a lookup asks the key's region
// before it searches that region's fences: most misses end at the filter.
//
// File layout (CHAMSEG2, all little-endian):
//
//	[8]  magic "CHAMSEG2"
//	[4]  version (2)
//	[4]  level
//	[8]  count n           — entries, tombstones included
//	[8]  minKey
//	[8]  maxKey
//	[8]  seq watermark     — highest commit sequence folded into this run
//	[8]  live              — non-tombstone entries
//	[4]  ε                 — 0; ignored on read
//	[4]  model piece count — 0 (see below)
//	[8]  data-section length d
//	[d]          data: ⌈n/64⌉ blocks of 64 consecutive ranks (the last may
//	             be short), each its first key as a u64, uvarint deltas
//	             (≥ 1, shortest form) for the rest of its keys, then its
//	             values as u64s (tombstones carry 0)
//	[(⌈n/64⌉+1)*8] block-offset table: block b is data bytes [t[b], t[b+1])
//	[⌈n/8⌉]      tombstone bitmap, bit r set ⇒ entry r is a delete marker
//	[4]  CRC32C (Castagnoli) over everything above
//	[8]  magic "CHAMSEG2" again (end marker: a torn tail cannot masquerade)
//
// A key costs its delta (1–2 bytes on dense data) plus its value, so a run
// takes ~10 bytes a key where fixed-width keys took 16; and since a block's
// values sit beside its keys, a hit reads one contiguous span. Two older
// kinds of file are refused with format.ErrNeedsUpgrade: CHAMSEG1, the
// layout before this one, and a CHAMSEG2 file written before fence-key
// lookup, whose non-zero piece count announces a learned-model section
// before the footer.
//
// Segments are immutable once written: the full-file CRC is verified by one
// sequential pass at Open, which also decodes every key, retains the header,
// fence keys, tombstone bitmap and block-offset table in memory, and builds
// the membership filter — the keys and values stay on disk and are fetched
// by pread. Durability ordering is the caller's job: segment files are fsynced
// and their directory entry sealed with SyncDir *before* the manifest that
// references them is written, so a manifest never names a file that a crash
// could lose.
package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"

	"chameleon/internal/faultfs"
	"chameleon/internal/format"
)

// magic leads (and ends) every segment, on disk and in a snapshot stream.
const magic = "CHAMSEG2"

const (
	version    = 2
	headerSize = 8 + 4 + 4 + 5*8 + 4 + 4 + 8 // the 72-byte header laid out above
	footerSize = 4 + 8                       // CRC + end magic

	// blockRanks is how many consecutive ranks one data block holds: the
	// unit a read fetches and decodes, and what one fence key spans. A
	// constant of the format, chosen by bytes per key on the benchmark's
	// keys: 32 / 64 / 128 ranks per block cost 10.22 / 9.99 / 9.88 bytes a
	// key on disk plus 0.25 / 0.125 / 0.0625 of fences in memory, and a hit
	// reads one block, ~0.65 KB at 64.
	blockRanks = 64

	// maxBlockBytes bounds one block: its first key, blockRanks−1 deltas of
	// at most MaxVarintLen64 bytes, and the values. A probe reads its block
	// into a stack buffer this long.
	maxBlockBytes = 8 + (blockRanks-1)*binary.MaxVarintLen64 + blockRanks*8

	// regionBlocks is how many blocks one filter region spans.
	regionBlocks = filterRegionKeys / blockRanks

	// iterChunk is how many entries an iterator fetches per pread.
	iterChunk = 1024

	// A chunk must hold whole blocks: this fails to compile otherwise.
	_ uint = -(iterChunk % blockRanks)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is returned when a segment file fails its integrity checks
// (bad magic, impossible geometry, CRC mismatch, or unsorted keys).
var ErrCorrupt = errors.New("segment: corrupt or torn segment file")

// ErrClosed is returned by reads on a closed Reader.
var ErrClosed = errors.New("segment: reader closed")

// errChanged reports block bytes that no longer decode as they did when
// Open verified them: the file changed under the reader.
var errChanged = fmt.Errorf("%w: block bytes changed since open", ErrCorrupt)

// Entry is one logical record of a run: a live key→value pair or a
// tombstone (a persisted delete marker that shadows older runs until
// compaction elides it).
type Entry struct {
	Key, Val uint64
	Tomb     bool
}

// Meta is a segment's identity and summary statistics — what the manifest
// records per run and what min/max pruning reads before touching the file.
type Meta struct {
	// ID names the file (FileName) and is unique for the directory's
	// lifetime: the manifest's NextID only ever advances, so a stale file
	// resurrected by a crash can never collide with a live one.
	ID    uint64 `json:"id"`
	Level int    `json:"level"`
	// Count is total entries (tombstones included); Live excludes them.
	Count uint64 `json:"count"`
	Live  uint64 `json:"live"`
	// MinKey/MaxKey bound every key in the run — the read path prunes on
	// them before any I/O.
	MinKey uint64 `json:"min"`
	MaxKey uint64 `json:"max"`
	// Seq is the commit-sequence watermark: every record folded into this
	// run committed at or before it. Newer runs have strictly greater
	// watermarks, which is what makes newest-first shadowing well defined.
	Seq uint64 `json:"seq"`
	// ModelPieces is always 0: it sized the learned model older files
	// carried, which Open refuses. It stays because the benchmark harness
	// (bench/), which changes only with the benchmark, reads it.
	ModelPieces int   `json:"model_pieces"`
	Bytes       int64 `json:"bytes"`
}

// FileName renders a segment ID as its file name.
func FileName(id uint64) string { return fmt.Sprintf("seg-%016d.seg", id) }

// ParseFileName extracts the ID from a segment file name (the inverse of
// FileName); ok is false for anything else.
func ParseFileName(name string) (uint64, bool) {
	const prefix, suffix = "seg-", ".seg"
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var id uint64
	for _, c := range name[len(prefix) : len(name)-len(suffix)] {
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + uint64(c-'0')
	}
	return id, true
}

// numBlocks is how many data blocks hold n entries.
func numBlocks(n uint64) uint64 { return (n + blockRanks - 1) / blockRanks }

// fileSize is the length of a CHAMSEG2 file of n entries and a d-byte data
// section. Callers bound n and d first.
func fileSize(n, d uint64) int64 {
	return headerSize + int64(d) + int64(numBlocks(n)+1)*8 + int64((n+7)/8) + footerSize
}

// dataBounds is the range a data section of n entries can span: every
// delta takes 1 to MaxVarintLen64 bytes, every block 8 for its first key
// and 8 per value.
func dataBounds(n uint64) (lo, hi uint64) {
	nb := numBlocks(n)
	return 9*n + 7*nb, (8+binary.MaxVarintLen64)*n - (binary.MaxVarintLen64-8)*nb
}

// Reader serves point and range reads from one immutable segment file. The
// header, fence keys, tombstone bitmap, block-offset table and membership
// filter live in memory; keys and values are fetched by pread. Safe for
// concurrent use.
type Reader struct {
	meta   Meta
	tombs  []byte
	filter filter
	// fences holds every block's first key: the last fence at or below a
	// key names the one block that can hold it.
	fences []uint64
	// blocks is the block-offset table, data-section offsets of every
	// block and of the section's end.
	blocks []uint64

	f faultfs.File
	// osf is f when f is a plain *os.File: calling ReadAt on the concrete
	// type keeps a probe's stack window from escaping to the heap, which an
	// interface call would force.
	osf    *os.File
	closed atomic.Bool
}

// Open reads path sequentially once — verifying the envelope, the CRC and
// key order — and returns a Reader holding the metadata in memory. want,
// when non-nil, is the manifest's record of this segment; any disagreement
// with the file (its header fields, its length) is corruption. A file in a
// retired format (package comment) fails with format.ErrNeedsUpgrade.
func Open(fsys faultfs.FS, path string, want *Meta) (*Reader, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	r, err := open(f, path, want)
	if err != nil {
		f.Close() //nolint:errcheck
		return nil, err
	}
	return r, nil
}

// bytesFile adapts an in-memory byte slice to the faultfs.File surface so
// decode can run without touching disk (a tiered snapshot stream, fuzzing).
type bytesFile struct{ *bytes.Reader }

func (bytesFile) Write(p []byte) (int, error) { return 0, errors.New("segment: read-only") }
func (bytesFile) Close() error                { return nil }
func (bytesFile) Sync() error                 { return nil }
func (bytesFile) Truncate(int64) error        { return errors.New("segment: read-only") }

// OpenBytes is Open over an in-memory encoded segment, such as a tiered
// snapshot stream (with the same manifest cross-check when want is
// non-nil).
func OpenBytes(data []byte, want *Meta) (*Reader, error) {
	return open(bytesFile{bytes.NewReader(data)}, "(bytes)", want)
}

// open loads f and holds it to want, the manifest's record of it: every
// field but the ID, which the file does not carry, must agree.
func open(f faultfs.File, path string, want *Meta) (*Reader, error) {
	r, err := load(f, path)
	if err != nil || want == nil {
		return r, err
	}
	got := r.meta
	got.ID = want.ID
	if got != *want {
		return nil, fmt.Errorf("%w: %s disagrees with manifest: file %+v, manifest %+v", ErrCorrupt, path, got, *want)
	}
	r.meta.ID = want.ID
	return r, nil
}

// loader is the state of the one sequential verification pass: every byte
// read before the footer also goes into the CRC.
type loader struct {
	f    io.Reader
	crc  hash.Hash32
	path string
	buf  []byte // what the sections stream through
}

func (l *loader) corrupt(why string) error {
	return fmt.Errorf("%w: %s: %s", ErrCorrupt, l.path, why)
}

// read fills b from the file and the CRC; a short read is corruption.
func (l *loader) read(b []byte, what string) error {
	if _, err := io.ReadFull(l.f, b); err != nil {
		return l.corrupt("short " + what)
	}
	l.crc.Write(b) //nolint:errcheck
	return nil
}

// load performs the single verification pass. The file is read start to
// finish in chunks: the CRC accumulates over everything before the footer,
// keys are decoded and checked strictly ascending (and added to the
// membership filter) as they stream past, and the fence keys, tombstone
// bitmap and block-offset table are captured for retention.
func load(f faultfs.File, path string) (*Reader, error) {
	l := &loader{f: f, crc: crc32.New(castagnoli), path: path, buf: make([]byte, 64<<10)}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, l.corrupt("short header")
	}
	switch string(hdr[:8]) {
	case magic:
	case "CHAMSEG1":
		return nil, fmt.Errorf("segment: %s is CHAMSEG1: %w", path, format.ErrNeedsUpgrade)
	default:
		return nil, l.corrupt("bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != version {
		return nil, l.corrupt(fmt.Sprintf("unsupported version %d", v))
	}
	// hdr[56:60] is an older file's model ε, which nothing reads.
	if pieces := binary.LittleEndian.Uint32(hdr[60:]); pieces != 0 {
		return nil, fmt.Errorf("segment: %s carries a %d-piece model section: %w", path, pieces, format.ErrNeedsUpgrade)
	}
	m := Meta{
		Level:  int(int32(binary.LittleEndian.Uint32(hdr[12:]))),
		Count:  binary.LittleEndian.Uint64(hdr[16:]),
		MinKey: binary.LittleEndian.Uint64(hdr[24:]),
		MaxKey: binary.LittleEndian.Uint64(hdr[32:]),
		Seq:    binary.LittleEndian.Uint64(hdr[40:]),
		Live:   binary.LittleEndian.Uint64(hdr[48:]),
	}
	if m.Level < 0 {
		return nil, l.corrupt("impossible geometry")
	}
	if m.Count > (1<<55) || m.Live > m.Count {
		return nil, l.corrupt("impossible count")
	}
	if m.Count > 0 && m.MinKey > m.MaxKey {
		return nil, l.corrupt("min > max")
	}
	dataLen := binary.LittleEndian.Uint64(hdr[64:])
	if lo, hi := dataBounds(m.Count); dataLen < lo || dataLen > hi {
		return nil, l.corrupt("data-section length impossible for the entry count")
	}
	m.Bytes = fileSize(m.Count, dataLen)

	// The header is not yet trusted (the CRC comes last), and everything
	// sized from it below — the filter, the fences, the offset table, the
	// bitmap — must not be allocated until the file has proved it is that
	// long: a Count of 2⁵⁵ in a 100-byte file is a corrupt file, not a
	// 2⁵⁵-key filter.
	end, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(headerSize, io.SeekStart)
	}
	if err != nil {
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	if end != m.Bytes {
		return nil, l.corrupt("file length disagrees with header geometry")
	}
	l.crc.Write(hdr[:]) //nolint:errcheck

	flt := newFilter(m.Count)
	blocks, fences, err := l.blocks(&m, dataLen, flt)
	if err != nil {
		return nil, err
	}

	// Tombstone bitmap: retained.
	tombs := make([]byte, (m.Count+7)/8)
	if err := l.read(tombs, "tombstone bitmap"); err != nil {
		return nil, err
	}
	live := m.Count
	for _, b := range tombs {
		live -= uint64(popcount(b))
	}
	if live != m.Live {
		return nil, l.corrupt("tombstone bitmap disagrees with header live count")
	}

	var foot [footerSize]byte
	if _, err := io.ReadFull(f, foot[:]); err != nil {
		return nil, l.corrupt("short footer")
	}
	if binary.LittleEndian.Uint32(foot[:4]) != l.crc.Sum32() {
		return nil, l.corrupt("CRC mismatch")
	}
	if string(foot[4:]) != magic {
		return nil, l.corrupt("bad end magic")
	}
	// The length check above already pinned the footer to the file's end,
	// so there are no trailing bytes to look for.
	osf, _ := f.(*os.File)
	return &Reader{meta: m, tombs: tombs, filter: flt, fences: fences, blocks: blocks, f: f, osf: osf}, nil
}

// blocks streams the data section and the block-offset table after it. It
// decodes every block, checks the keys strictly ascending from the header's
// min to its max and adds them to the filter, and returns the table, once
// each of its entries has matched the offset at which a block decoded to
// its end, and the fence keys.
func (l *loader) blocks(m *Meta, dataLen uint64, flt filter) ([]uint64, []uint64, error) {
	nb := numBlocks(m.Count)
	offs := make([]uint64, nb+1)
	fences := make([]uint64, nb)
	buf := l.buf
	var keys [blockRanks]uint64
	var pos, have int     // buf[pos:have] is read but not yet decoded
	var read, prev uint64 // data bytes read so far; the last key decoded
	for b := uint64(0); b < nb; b++ {
		// Keep a whole block in view while the section has more.
		if have-pos < maxBlockBytes && read < dataLen {
			have = copy(buf, buf[pos:have])
			pos = 0
			n := min(uint64(len(buf)-have), dataLen-read)
			if err := l.read(buf[have:have+int(n)], "data section"); err != nil {
				return nil, nil, err
			}
			have += int(n)
			read += n
		}
		k := min(blockRanks, m.Count-b*blockRanks)
		n, why := decodeBlock(buf[pos:have], keys[:k], nil)
		if why != "" {
			return nil, nil, l.corrupt(fmt.Sprintf("block %d: %s", b, why))
		}
		if b == 0 && keys[0] != m.MinKey {
			return nil, nil, l.corrupt("first key differs from header min")
		}
		if b > 0 && keys[0] <= prev {
			return nil, nil, l.corrupt(fmt.Sprintf("block %d: keys not strictly ascending", b))
		}
		region := flt.region(b * blockRanks)
		for _, key := range keys[:k] {
			region.add(key)
		}
		fences[b] = keys[0]
		prev = keys[k-1]
		pos += n
		offs[b+1] = offs[b] + uint64(n)
	}
	if nb > 0 && prev != m.MaxKey {
		return nil, nil, l.corrupt("last key differs from header max")
	}
	if offs[nb] != dataLen {
		return nil, nil, l.corrupt("blocks do not fill the data section")
	}
	for i := uint64(0); i <= nb; {
		n := min(uint64(len(buf)/8), nb+1-i)
		if err := l.read(buf[:n*8], "block-offset table"); err != nil {
			return nil, nil, err
		}
		for j := uint64(0); j < n; j++ {
			if binary.LittleEndian.Uint64(buf[j*8:]) != offs[i+j] {
				return nil, nil, l.corrupt(fmt.Sprintf("block-offset table entry %d disagrees with the block ends", i+j))
			}
		}
		i += n
	}
	return offs, fences, nil
}

// decodeBlock decodes the block at the start of p into keys, whose length
// is the block's entry count, and into vals unless it is nil, and returns
// the block's length. why is non-empty when no block Write produces could be
// read that way: the block runs past p, a delta is zero or carries a key
// past 2⁶⁴, or a varint is not in its shortest form.
func decodeBlock(p []byte, keys, vals []uint64) (n int, why string) {
	if len(p) < 8 {
		return 0, "runs past the data section"
	}
	key := binary.LittleEndian.Uint64(p)
	keys[0] = key
	n = 8
	for j := 1; j < len(keys); j++ {
		d, w := uvarint(p[n:])
		switch {
		case w <= 0:
			return 0, "delta runs past the data section"
		case w > 1 && p[n+w-1] == 0:
			return 0, "delta not in shortest form"
		case d == 0 || key+d < key:
			return 0, "keys not strictly ascending"
		}
		key += d
		keys[j] = key
		n += w
	}
	if len(p)-n < 8*len(keys) {
		return 0, "values run past the data section"
	}
	for j := range vals {
		vals[j] = binary.LittleEndian.Uint64(p[n+8*j:])
	}
	return n + 8*len(keys), ""
}

// uvarint is binary.Uvarint with the one- and two-byte cases — nearly every
// delta of a dense run — inline.
func uvarint(b []byte) (uint64, int) {
	if len(b) > 1 && b[1] < 0x80 {
		if b[0] < 0x80 {
			return uint64(b[0]), 1
		}
		return uint64(b[0]&0x7f) | uint64(b[1])<<7, 2
	}
	return binary.Uvarint(b)
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// Meta returns the segment's summary record.
func (r *Reader) Meta() Meta { return r.meta }

// pread fills b from the file at off with one positional read — no shared
// offset, so concurrent probes of one run do not serialize. A read that
// loses a race with Close fails with ErrClosed.
func (r *Reader) pread(b []byte, off int64) error {
	if r.closed.Load() {
		return ErrClosed
	}
	var n int
	var err error
	if r.osf != nil {
		n, err = r.osf.ReadAt(b, off)
	} else {
		n, err = r.readAtCopy(b, off)
	}
	if n == len(b) {
		return nil
	}
	if r.closed.Load() {
		return ErrClosed
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// readAtCopy is pread for the files that are not *os.File (fault-injection
// wrappers, in-memory segments): it reads into a buffer of its own because
// passing b to an interface method would make every caller's b escape.
func (r *Reader) readAtCopy(b []byte, off int64) (int, error) {
	tmp := make([]byte, len(b))
	n, err := r.f.ReadAt(tmp, off)
	copy(b, tmp[:n])
	return n, err
}

// blockLen is how many entries block b holds: blockRanks, but the last
// block may be short.
func (r *Reader) blockLen(b int) int {
	return min(blockRanks, int(r.meta.Count)-b*blockRanks)
}

// tomb reports whether entry rank carries the delete marker.
func (r *Reader) tomb(rank uint64) bool {
	return r.tombs[rank/8]&(1<<(rank%8)) != 0
}

// MayContain reports whether key can be in this run: false is exact (outside
// [min, max], or rejected by the membership filter), true is right except
// for the filter's ~1 % false positives. No I/O.
func (r *Reader) MayContain(key uint64) bool {
	_, ok := r.window(key)
	return ok
}

// window is the in-memory part of a probe: the one block that can hold key.
// ok false means key is not in this run and nothing needs reading: it is
// outside [min, max], or the filter region key would have been added to has
// no trace of it. The region comes first, from the fences that start
// regions, and is asked before the search narrows to its ≤ regionBlocks
// fences, so a filtered miss touches a few cache lines and no more.
func (r *Reader) window(key uint64) (b int, ok bool) {
	m := &r.meta
	if m.Count == 0 || key < m.MinKey || key > m.MaxKey {
		return 0, false
	}
	reg := lastAtMost(r.fences, regionBlocks, key)
	if !r.filter.region(uint64(reg) * filterRegionKeys).has(key) {
		return 0, false
	}
	first := reg * regionBlocks
	return first + lastAtMost(r.fences[first:min(first+regionBlocks, len(r.fences))], 1, key), true
}

// lastAtMost returns the largest i with f[i*stride] ≤ key among the i with
// i*stride < len(f); f[0] ≤ key must hold.
func lastAtMost(f []uint64, stride int, key uint64) int {
	lo, hi := 0, (len(f)+stride-1)/stride
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if f[mid*stride] <= key {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Get resolves key against this run: the in-memory checks (min/max, the
// membership filter, the fences), then one pread of the one block that can
// hold key and a decode of it up to key; a hit's value comes from the same
// read. tomb reports a tombstone hit — the key is authoritatively deleted as
// of this run. dist is always 0: it reported a learned model's rank error,
// and stays because the benchmark harness (bench/), which changes only with
// the benchmark, reads it.
func (r *Reader) Get(key uint64) (val uint64, tomb, ok bool, dist int, err error) {
	b, may := r.window(key)
	if !may {
		return 0, false, false, 0, nil
	}
	rank, val, ok, err := r.find(key, b)
	if err != nil || !ok {
		return 0, false, false, 0, err
	}
	if r.tomb(uint64(rank)) {
		return 0, true, true, 0, nil
	}
	return val, false, true, 0, nil
}

// find looks key up in block b: one pread of the block,
// then a decode of its keys up to key. Open decoded every block, so the
// block fits the stack buffer.
func (r *Reader) find(key uint64, b int) (rank int, val uint64, ok bool, err error) {
	var buf [maxBlockBytes]byte
	blk := buf[:r.blocks[b+1]-r.blocks[b]]
	if err := r.pread(blk, headerSize+int64(r.blocks[b])); err != nil {
		return 0, 0, false, err
	}
	k := r.blockLen(b)
	vals := len(blk) - 8*k
	cur, i := binary.LittleEndian.Uint64(blk), 8
	for j := 0; ; j++ {
		if cur >= key {
			if cur != key {
				return 0, 0, false, nil
			}
			return b*blockRanks + j, binary.LittleEndian.Uint64(blk[vals+8*j:]), true, nil
		}
		if j == k-1 {
			return 0, 0, false, nil
		}
		d, w := uvarint(blk[i:max(vals, i)])
		if w <= 0 {
			return 0, 0, false, errChanged
		}
		cur += d
		i += w
	}
}

// Close releases the file. In-flight reads finish or fail with ErrClosed.
func (r *Reader) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	return r.f.Close()
}

// Iter returns an iterator over entries with keys in [lo, hi], ascending.
// Entries stream iterChunk at a time, one pread per chunk, and are decoded
// a block at a time; tombstones are yielded (the merge layers above decide
// their meaning).
func (r *Reader) Iter(lo, hi uint64) *Iter {
	it := &Iter{r: r, lo: lo, hi: hi}
	switch m := &r.meta; {
	case lo > hi || m.Count == 0 || lo > m.MaxKey:
		it.next = len(r.fences)
	case lo > m.MinKey:
		// The last block starting at or below lo: the first key ≥ lo is in
		// it or, when all its keys are below lo, at the next one's start.
		it.next = lastAtMost(r.fences, 1, lo)
	}
	return it
}

// Iter streams one segment's entries in key order.
type Iter struct {
	r      *Reader
	lo, hi uint64 // inclusive key bounds
	err    error
	cur    Entry

	next  int    // next block to decode
	chunk []byte // raw bytes of blocks [first, last) from the last pread
	first int
	last  int

	keys, vals [blockRanks]uint64 // the current block, decoded
	rank0      uint64             // rank of keys[0]
	n, i       int                // entries in the block; cursor
}

// Next advances to the next entry, reporting false at the end of the range
// or on error (check Err).
func (it *Iter) Next() bool {
	for it.err == nil {
		if it.i == it.n {
			if it.next == len(it.r.fences) {
				return false
			}
			it.err = it.decode()
			continue
		}
		k := it.keys[it.i]
		if k > it.hi {
			it.i, it.n, it.next = 0, 0, len(it.r.fences) // past the bound: exhausted
			return false
		}
		it.i++
		if k < it.lo {
			continue
		}
		it.cur = Entry{Key: k, Val: it.vals[it.i-1], Tomb: it.r.tomb(it.rank0 + uint64(it.i-1))}
		return true
	}
	return false
}

// decode makes block it.next the current block, fetching the next chunk
// first when the block is not in the one held.
func (it *Iter) decode() error {
	r, b := it.r, it.next
	if b >= it.last {
		if err := it.fetch(b, min(b+iterChunk/blockRanks, len(r.fences))); err != nil {
			return err
		}
	}
	k := r.blockLen(b)
	base := r.blocks[it.first]
	blk := it.chunk[r.blocks[b]-base : r.blocks[b+1]-base]
	if n, why := decodeBlock(blk, it.keys[:k], it.vals[:k]); why != "" || n != len(blk) {
		return errChanged
	}
	it.rank0 = uint64(b) * blockRanks
	it.n, it.i = k, 0
	it.next++
	return nil
}

// fetch reads blocks [first, last) into it.chunk.
func (it *Iter) fetch(first, last int) error {
	r := it.r
	n := int(r.blocks[last] - r.blocks[first])
	if cap(it.chunk) < n {
		it.chunk = make([]byte, n)
	}
	it.chunk = it.chunk[:n]
	if err := r.pread(it.chunk, headerSize+int64(r.blocks[first])); err != nil {
		return err
	}
	it.first, it.last = first, last
	return nil
}

// Entry returns the current entry after a true Next.
func (it *Iter) Entry() Entry { return it.cur }

// Err reports the first I/O failure the iteration hit, if any.
func (it *Iter) Err() error { return it.err }
