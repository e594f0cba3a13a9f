// Package segment implements the immutable on-disk runs of the tiered
// storage engine (DESIGN.md §15): sorted key/value/tombstone files in a
// CRC-checked, versioned envelope, each carrying its own tiny learned model
// — an ε-bounded piecewise-linear approximation of the run's rank function
// (internal/pla) — so a cold point lookup is one model evaluation plus one
// bounded pread and binary search, with no full-run scan. The SOSD line of
// work shows per-run models this small are accurate enough to replace
// conventional per-block fence pointers; here the model *is* the fence
// structure. A model cannot say "absent" without that read, so each open
// run also keeps an in-memory membership filter (filter.go) that is asked
// first.
//
// File layout (CHAMSEG1, all little-endian):
//
//	[8]  magic "CHAMSEG1"
//	[4]  version (1)
//	[4]  level
//	[8]  count n           — entries, tombstones included
//	[8]  minKey
//	[8]  maxKey
//	[8]  seq watermark     — highest commit sequence folded into this run
//	[8]  live              — non-tombstone entries
//	[4]  ε                 — model error bound (|predicted − true rank| ≤ ε)
//	[4]  model piece count m
//	[n*8]        keys, strictly ascending
//	[n*8]        values (tombstones carry 0)
//	[⌈n/8⌉]      tombstone bitmap, bit r set ⇒ entry r is a delete marker
//	[m*24]       model pieces: firstKey u64, slope f64 bits, start rank u64
//	[4]  CRC32C (Castagnoli) over everything above
//	[8]  magic "CHAMSEG1" again (end marker: a torn tail cannot masquerade)
//
// Segments are immutable once written: the full-file CRC is verified by one
// sequential pass at Open (which also retains the header, model, and
// tombstone bitmap in memory and builds the membership filter — the keys and
// values stay on disk and are fetched by pread). Durability ordering is the
// caller's job: segment files are fsynced and their directory entry sealed
// with SyncDir *before* the manifest that references them is written, so a
// manifest never names a file that a crash could lose.
package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
	"sync/atomic"

	"chameleon/internal/faultfs"
	"chameleon/internal/pla"
)

const (
	magic      = "CHAMSEG1"
	version    = 1
	headerSize = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 4 // 64
	footerSize = 4 + 8                                 // CRC + end magic
	pieceSize  = 24                                    // firstKey + slope bits + start

	// DefaultEps is the model error bound used when the caller passes 0: a
	// cold lookup preads at most 2ε+1 keys (520 bytes) — one page.
	DefaultEps = 32

	// stackWindow is the key window a probe reads into without allocating:
	// enough for ε ≤ DefaultEps, larger ε falls back to the heap.
	stackWindow = (2*DefaultEps + 1) * 8

	// iterChunk is how many entries an iterator fetches per pread.
	iterChunk = 1024

	// maxModelPieces rejects absurd model sizes before allocation during
	// decode; a valid model never has more pieces than keys.
	maxModelPieces = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is returned when a segment file fails its integrity checks
// (bad magic, impossible geometry, CRC mismatch, unsorted keys, or a model
// that violates its own invariants).
var ErrCorrupt = errors.New("segment: corrupt or torn segment file")

// ErrClosed is returned by reads on a closed Reader.
var ErrClosed = errors.New("segment: reader closed")

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
	// Eps is the model error bound; ModelPieces the learned model's size in
	// linear pieces (ModelPieces*24 bytes on disk).
	Eps         int   `json:"eps"`
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

// Reader serves point and range reads from one immutable segment file. The
// header, learned model, tombstone bitmap, and membership filter live in
// memory; keys and values are fetched by pread. Safe for concurrent use.
type Reader struct {
	meta   Meta
	model  []pla.Segment
	tombs  []byte
	filter filter

	f faultfs.File
	// osf is f when f is a plain *os.File: calling ReadAt on the concrete
	// type keeps a probe's stack window from escaping to the heap, which an
	// interface call would force.
	osf    *os.File
	closed atomic.Bool
}

// Open reads path sequentially once — verifying the envelope, the CRC, key
// order, and the model's invariants — and returns a Reader holding the
// metadata in memory. want, when non-nil, is the manifest's record of this
// segment; any disagreement (count, range, watermark, level) is corruption.
func Open(fsys faultfs.FS, path string, want *Meta) (*Reader, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	r, err := load(f, path)
	if err != nil {
		f.Close() //nolint:errcheck
		return nil, err
	}
	if want != nil {
		m := r.meta
		if m.Count != want.Count || m.Live != want.Live || m.MinKey != want.MinKey ||
			m.MaxKey != want.MaxKey || m.Seq != want.Seq || m.Level != want.Level || m.Eps != want.Eps {
			f.Close() //nolint:errcheck
			return nil, fmt.Errorf("%w: %s header disagrees with manifest", ErrCorrupt, path)
		}
		r.meta.ID = want.ID
	}
	return r, nil
}

// bytesFile adapts an in-memory byte slice to the faultfs.File surface so
// decode can run without touching disk (snapshot-bundle decoding, fuzzing).
type bytesFile struct{ *bytes.Reader }

func (bytesFile) Write(p []byte) (int, error) { return 0, errors.New("segment: read-only") }
func (bytesFile) Close() error                { return nil }
func (bytesFile) Sync() error                 { return nil }
func (bytesFile) Truncate(int64) error        { return errors.New("segment: read-only") }

// OpenBytes is Open over an in-memory encoded segment (with the same
// manifest cross-check when want is non-nil).
func OpenBytes(data []byte, want *Meta) (*Reader, error) {
	r, err := load(bytesFile{bytes.NewReader(data)}, "(bytes)")
	if err != nil {
		return nil, err
	}
	if want != nil {
		m := r.meta
		if m.Count != want.Count || m.Live != want.Live || m.MinKey != want.MinKey ||
			m.MaxKey != want.MaxKey || m.Seq != want.Seq || m.Level != want.Level || m.Eps != want.Eps {
			return nil, fmt.Errorf("%w: in-memory segment disagrees with manifest", ErrCorrupt)
		}
		r.meta.ID = want.ID
	}
	return r, nil
}

// WriteRaw copies the segment's exact on-disk bytes to w (the snapshot
// bundle's segment-streaming path). The copy preads in chunks, so it is safe
// against concurrent Gets.
func (r *Reader) WriteRaw(w io.Writer) (int64, error) {
	var written int64
	buf := make([]byte, 1<<16)
	for written < r.meta.Bytes {
		n := r.meta.Bytes - written
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		if err := r.pread(buf[:n], written); err != nil {
			return written, err
		}
		wn, err := w.Write(buf[:n])
		written += int64(wn)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// load performs the single verification pass. The file is read start to
// finish in chunks: the CRC accumulates over everything before the footer,
// keys are checked strictly ascending (and added to the membership filter)
// as they stream past, and the model and tombstone bitmap are captured for
// retention.
func load(f faultfs.File, path string) (*Reader, error) {
	corrupt := func(why string) error {
		return fmt.Errorf("%w: %s: %s", ErrCorrupt, path, why)
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, corrupt("short header")
	}
	if string(hdr[:8]) != magic {
		return nil, corrupt("bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != version {
		return nil, corrupt(fmt.Sprintf("unsupported version %d", v))
	}
	m := Meta{
		Level:       int(int32(binary.LittleEndian.Uint32(hdr[12:]))),
		Count:       binary.LittleEndian.Uint64(hdr[16:]),
		MinKey:      binary.LittleEndian.Uint64(hdr[24:]),
		MaxKey:      binary.LittleEndian.Uint64(hdr[32:]),
		Seq:         binary.LittleEndian.Uint64(hdr[40:]),
		Live:        binary.LittleEndian.Uint64(hdr[48:]),
		Eps:         int(int32(binary.LittleEndian.Uint32(hdr[56:]))),
		ModelPieces: int(int32(binary.LittleEndian.Uint32(hdr[60:]))),
	}
	if m.Level < 0 || m.Eps < 1 || m.ModelPieces < 0 || m.ModelPieces > maxModelPieces {
		return nil, corrupt("impossible geometry")
	}
	if m.Count > (1<<55) || m.Live > m.Count {
		return nil, corrupt("impossible count")
	}
	if m.Count > 0 && m.MinKey > m.MaxKey {
		return nil, corrupt("min > max")
	}
	if m.Count > 0 && m.ModelPieces < 1 {
		return nil, corrupt("non-empty run with no model")
	}
	if uint64(m.ModelPieces) > m.Count {
		return nil, corrupt("more model pieces than keys")
	}
	tombLen := int((m.Count + 7) / 8)
	m.Bytes = headerSize + int64(m.Count)*16 + int64(tombLen) + int64(m.ModelPieces)*pieceSize + footerSize

	// The header is not yet trusted (the CRC comes last), and everything
	// sized from it below — the filter, the bitmap, the model — must not be
	// allocated until the file has proved it is that long: a Count of 2⁵⁵
	// in a 100-byte file is a corrupt file, not a 2⁵⁵-key filter.
	end, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(headerSize, io.SeekStart)
	}
	if err != nil {
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	if end != m.Bytes {
		return nil, corrupt("file length disagrees with header geometry")
	}

	crc := crc32.New(castagnoli)
	crc.Write(hdr[:]) //nolint:errcheck

	// Keys: stream, CRC, verify strictly ascending and within [min, max].
	flt := newFilter(m.Count)
	buf := make([]byte, iterChunk*8)
	var prev uint64
	first := true
	remaining := m.Count
	for remaining > 0 {
		n := uint64(iterChunk)
		if remaining < n {
			n = remaining
		}
		b := buf[:n*8]
		if _, err := io.ReadFull(f, b); err != nil {
			return nil, corrupt("short key section")
		}
		crc.Write(b) //nolint:errcheck
		region := flt.region(m.Count - remaining)
		for i := uint64(0); i < n; i++ {
			k := binary.LittleEndian.Uint64(b[i*8:])
			if first {
				if k != m.MinKey {
					return nil, corrupt("first key differs from header min")
				}
				first = false
			} else if k <= prev {
				return nil, corrupt("keys not strictly ascending")
			}
			prev = k
			region.add(k)
		}
		remaining -= n
	}
	if m.Count > 0 && prev != m.MaxKey {
		return nil, corrupt("last key differs from header max")
	}

	// Values: stream and CRC only.
	remaining = m.Count
	for remaining > 0 {
		n := uint64(iterChunk)
		if remaining < n {
			n = remaining
		}
		b := buf[:n*8]
		if _, err := io.ReadFull(f, b); err != nil {
			return nil, corrupt("short value section")
		}
		crc.Write(b) //nolint:errcheck
		remaining -= n
	}

	// Tombstone bitmap: retained.
	tombs := make([]byte, tombLen)
	if _, err := io.ReadFull(f, tombs); err != nil {
		return nil, corrupt("short tombstone bitmap")
	}
	crc.Write(tombs) //nolint:errcheck
	live := m.Count
	for _, b := range tombs {
		live -= uint64(popcount(b))
	}
	if live != m.Live {
		return nil, corrupt("tombstone bitmap disagrees with header live count")
	}

	// Model: retained, with invariants checked.
	mb := make([]byte, m.ModelPieces*pieceSize)
	if _, err := io.ReadFull(f, mb); err != nil {
		return nil, corrupt("short model section")
	}
	crc.Write(mb) //nolint:errcheck
	model := make([]pla.Segment, m.ModelPieces)
	for i := range model {
		off := i * pieceSize
		fk := binary.LittleEndian.Uint64(mb[off:])
		slope := math.Float64frombits(binary.LittleEndian.Uint64(mb[off+8:]))
		start := binary.LittleEndian.Uint64(mb[off+16:])
		if math.IsNaN(slope) || math.IsInf(slope, 0) || slope < 0 {
			return nil, corrupt("model slope not finite")
		}
		if start >= m.Count && m.Count > 0 {
			return nil, corrupt("model start rank out of range")
		}
		if i > 0 && fk <= model[i-1].FirstKey {
			return nil, corrupt("model pieces not ascending")
		}
		if i > 0 && start < uint64(model[i-1].Start) {
			return nil, corrupt("model ranks not monotonic")
		}
		model[i] = pla.Segment{FirstKey: fk, Slope: slope, Start: int(start)}
	}
	if m.ModelPieces > 0 && model[0].FirstKey != m.MinKey {
		return nil, corrupt("model does not start at min key")
	}

	var foot [footerSize]byte
	if _, err := io.ReadFull(f, foot[:]); err != nil {
		return nil, corrupt("short footer")
	}
	if binary.LittleEndian.Uint32(foot[:4]) != crc.Sum32() {
		return nil, corrupt("CRC mismatch")
	}
	if string(foot[4:]) != magic {
		return nil, corrupt("bad end magic")
	}
	// The length check above already pinned the footer to the file's end,
	// so there are no trailing bytes to look for.
	osf, _ := f.(*os.File)
	return &Reader{meta: m, model: model, tombs: tombs, filter: flt, f: f, osf: osf}, nil
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

// ModelMaxError probes the model against the on-disk keys and returns the
// worst |predicted − true| rank error (the inspect tool's verification;
// costs one sequential pass).
func (r *Reader) ModelMaxError() (int, error) {
	worst := 0
	it := r.Iter(0, math.MaxUint64)
	rank := 0
	for it.Next() {
		pred := r.predict(it.Entry().Key)
		d := pred - rank
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
		rank++
	}
	return worst, it.Err()
}

// predict returns the model's rank estimate for key, clamped to [0, n-1].
func (r *Reader) predict(key uint64) int {
	if len(r.model) == 0 {
		return 0
	}
	p := r.model[pla.Find(r.model, key)].Predict(key)
	if p < 0 {
		p = 0
	}
	if max := int(r.meta.Count) - 1; p > max {
		p = max
	}
	return p
}

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
// wrappers, in-memory bundles): it reads into a buffer of its own because
// passing b to an interface method would make every caller's b escape.
func (r *Reader) readAtCopy(b []byte, off int64) (int, error) {
	tmp := make([]byte, len(b))
	n, err := r.f.ReadAt(tmp, off)
	copy(b, tmp[:n])
	return n, err
}

func (r *Reader) keyOff(rank uint64) int64 { return headerSize + int64(rank)*8 }
func (r *Reader) valOff(rank uint64) int64 {
	return headerSize + int64(r.meta.Count)*8 + int64(rank)*8
}

// tomb reports whether entry rank carries the delete marker.
func (r *Reader) tomb(rank uint64) bool {
	return r.tombs[rank/8]&(1<<(rank%8)) != 0
}

// MayContain reports whether key can be in this run: false is exact (outside
// [min, max], or rejected by the membership filter), true is right except
// for the filter's ~1 % false positives. No I/O.
func (r *Reader) MayContain(key uint64) bool {
	_, _, _, ok := r.window(key)
	return ok
}

// window is the in-memory part of a probe: the predicted rank of key and
// the rank window [lo, hi] (at most 2ε+1 wide) a read must cover to find it.
// ok false means key is not in this run and nothing needs reading: it is
// outside [min, max], or the membership filter has no trace of it at any
// rank of the window.
func (r *Reader) window(key uint64) (pred, lo, hi int, ok bool) {
	m := &r.meta
	if m.Count == 0 || key < m.MinKey || key > m.MaxKey {
		return 0, 0, 0, false
	}
	pred = r.predict(key)
	lo = max(pred-m.Eps, 0)
	hi = min(pred+m.Eps, int(m.Count)-1)
	return pred, lo, hi, r.filter.has(uint64(lo), uint64(hi), key)
}

// Get resolves key against this run: the in-memory checks (min/max, model,
// membership filter), then one pread of the ≤ 2ε+1 candidate keys, a binary
// search inside that window, and (on a hit) one pread for the value. dist is
// |predicted − actual| rank error on hits (the cold-read model-error signal
// Health aggregates); tomb reports a tombstone hit — the key is
// authoritatively deleted as of this run.
func (r *Reader) Get(key uint64) (val uint64, tomb, ok bool, dist int, err error) {
	pred, lo, hi, may := r.window(key)
	if !may {
		return 0, false, false, 0, nil
	}
	n := hi - lo + 1
	var win [stackWindow]byte
	buf := win[:]
	if n*8 <= len(win) {
		buf = buf[:n*8]
	} else {
		buf = make([]byte, n*8)
	}
	if err := r.pread(buf, r.keyOff(uint64(lo))); err != nil {
		return 0, false, false, 0, err
	}
	// Binary search the window for key.
	i := sort.Search(n, func(i int) bool {
		return binary.LittleEndian.Uint64(buf[i*8:]) >= key
	})
	if i == n || binary.LittleEndian.Uint64(buf[i*8:]) != key {
		return 0, false, false, 0, nil
	}
	rank := uint64(lo + i)
	dist = pred - int(rank)
	if dist < 0 {
		dist = -dist
	}
	if r.tomb(rank) {
		return 0, true, true, dist, nil
	}
	var vb [8]byte
	if err := r.pread(vb[:], r.valOff(rank)); err != nil {
		return 0, false, false, dist, err
	}
	return binary.LittleEndian.Uint64(vb[:]), false, true, dist, nil
}

// Close releases the file. In-flight reads finish or fail with ErrClosed.
func (r *Reader) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	return r.f.Close()
}

// startRank returns the rank of the first key ≥ lo, resolved with the model
// and one bounded window read. The ε bound only holds for indexed keys, so
// for an arbitrary lo the window is additionally clamped to the covering
// model piece's rank span — piece Start ranks are exact by construction, so
// the insertion point provably lies in [pred−ε, pred+ε+1] ∩ [pieceStart,
// nextPieceStart].
func (r *Reader) startRank(lo uint64) (uint64, error) {
	m := &r.meta
	if m.Count == 0 || lo <= m.MinKey {
		return 0, nil
	}
	if lo > m.MaxKey {
		return m.Count, nil
	}
	pi := pla.Find(r.model, lo)
	pieceLo := r.model[pi].Start
	pieceHi := int(m.Count)
	if pi+1 < len(r.model) {
		pieceHi = r.model[pi+1].Start
	}
	pred := r.model[pi].Predict(lo)
	wlo := pred - m.Eps
	if wlo < pieceLo {
		wlo = pieceLo
	}
	whi := pred + m.Eps + 1
	if whi > pieceHi {
		whi = pieceHi
	}
	if whi < wlo {
		whi = wlo // defensive: cannot happen for a writer-produced model
	}
	n := whi - wlo
	if n <= 0 {
		return uint64(whi), nil
	}
	var win [stackWindow]byte
	buf := win[:]
	if n*8 <= len(win) {
		buf = buf[:n*8]
	} else {
		buf = make([]byte, n*8)
	}
	if err := r.pread(buf, r.keyOff(uint64(wlo))); err != nil {
		return 0, err
	}
	i := sort.Search(n, func(i int) bool {
		return binary.LittleEndian.Uint64(buf[i*8:]) >= lo
	})
	// i == n means every window key is < lo; the bounds above then pin the
	// insertion point to exactly whi.
	return uint64(wlo + i), nil
}

// Iter returns an iterator over entries with keys in [lo, hi], ascending.
// Entries stream in chunks of iterChunk preads; tombstones are yielded (the
// merge layers above decide their meaning).
func (r *Reader) Iter(lo, hi uint64) *Iter {
	start, err := r.startRank(lo)
	return &Iter{r: r, next: start, hi: hi, err: err}
}

// Iter streams one segment's entries in key order.
type Iter struct {
	r    *Reader
	next uint64 // next rank to yield
	hi   uint64 // inclusive key bound
	err  error

	cur Entry

	keys, vals []byte // current chunk
	base       uint64 // rank of chunk start
	n          int    // entries in chunk
	i          int    // cursor within chunk
}

// Next advances to the next entry, reporting false at the end of the range
// or on error (check Err).
func (it *Iter) Next() bool {
	if it.err != nil {
		return false
	}
	r := it.r
	if it.i >= it.n {
		if it.next >= r.meta.Count {
			return false
		}
		n := r.meta.Count - it.next
		if n > iterChunk {
			n = iterChunk
		}
		if cap(it.keys) < int(n*8) {
			it.keys = make([]byte, n*8)
			it.vals = make([]byte, n*8)
		}
		it.keys = it.keys[:n*8]
		it.vals = it.vals[:n*8]
		if err := r.pread(it.keys, r.keyOff(it.next)); err != nil {
			it.err = err
			return false
		}
		if err := r.pread(it.vals, r.valOff(it.next)); err != nil {
			it.err = err
			return false
		}
		it.base = it.next
		it.n = int(n)
		it.i = 0
		it.next += n
	}
	k := binary.LittleEndian.Uint64(it.keys[it.i*8:])
	if k > it.hi {
		it.i = it.n
		it.next = r.meta.Count // past the bound: exhausted
		return false
	}
	rank := it.base + uint64(it.i)
	it.cur = Entry{
		Key:  k,
		Val:  binary.LittleEndian.Uint64(it.vals[it.i*8:]),
		Tomb: r.tomb(rank),
	}
	it.i++
	return true
}

// Entry returns the current entry after a true Next.
func (it *Iter) Entry() Entry { return it.cur }

// Err reports the first I/O failure the iteration hit, if any.
func (it *Iter) Err() error { return it.err }

// LoadEntries reads the whole run into memory — the inspect tool's and the
// tests' convenience, not a serving path.
func (r *Reader) LoadEntries() ([]Entry, error) {
	out := make([]Entry, 0, r.meta.Count)
	it := r.Iter(0, math.MaxUint64)
	for it.Next() {
		out = append(out, it.Entry())
	}
	return out, it.Err()
}
