package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"chameleon/internal/ebh"
	"chameleon/internal/format"
	"chameleon/internal/ilock"
	"chameleon/internal/par"
)

// Persistence: WriteTo streams the learned structure — tree shape, gate
// positions, and for every leaf its geometry and its entries in key order —
// and ReadFrom rebuilds it, re-placing each leaf's keys into a probe of the
// saved capacity, so a loaded index serves with the structure the MARL
// construction produced and no retraining on startup. Retraining state (drift
// counters) intentionally resets: a freshly loaded index has nothing to
// retrain yet.
//
// The CHAMSNP3 layout (fixed-width fields little-endian, uv an unsigned
// varint):
//
//	[8]  magic "CHAMSNP3"
//	[4]  format version 3
//	     payload:
//	[uv] name length, then the name
//	[8]  τ, [8] α (float64 bits)
//	[uv] height, [uv] key count at the last full build
//	     the nodes in pre-order from the root, each one of
//	       inner: [1] 1, [8] lo, [8] hi, [uv] fanout, [uv] gate base + 1 (0: no gate)
//	       leaf:  [1] 0, [8] lo, [8] hi,
//	              [8] hash lo, [8] hash hi, [uv] capacity, [8] α, [8] τ, [1] saturated,
//	              [uv] n, n keys ascending as uv deltas (the first from 0), n values [8]
//	[uv] key count
//	[8]  payload length ┐
//	[4]  CRC32C payload ├ footer
//	[8]  "CHAMEND3"     ┘
//
// The footer turns every torn write, truncation, or bit flip into a clean
// decode error instead of a structurally-plausible-but-wrong index, which is
// what lets the checkpointer trust rename-based recovery: a snapshot either
// verifies end to end or is skipped in favor of the previous one. ReadFrom
// refuses CHAMSNP2, the gob format before this one, with
// format.ErrNeedsUpgrade.
//
// WriteTo is safe during live writes: it holds the rebuild lock shared (no
// structure swap mid-walk) and copies each gate subtree's leaves as Range
// does (optimistically, validated by the interval's sequence, else under its
// read lock, which also excludes the retrainer), then sorts and encodes them
// with no lock held. The snapshot is consistent per
// interval — each leaf is an atomic cut, no torn leaf states — and the key
// count is summed from the encoded leaves themselves, so the file is always
// self-consistent even while concurrent writers advance other intervals.

const (
	// snapMagic leads every snapshot WriteTo writes.
	snapMagic     = "CHAMSNP3"
	snapEndMagic  = "CHAMEND3"
	snapVersion   = 3
	snapHeaderLen = len(snapMagic) + 4
	snapFooterLen = 8 + 4 + len(snapEndMagic)

	tagLeaf  = 0
	tagInner = 1

	// snapBufSize is the writer's chunk and the reader's window.
	snapBufSize = 64 << 10

	// restoreKeys and restoreLeaves bound the window of decoded leaves the
	// reader restores at once: it restores them before a leaf that would
	// take them past restoreKeys keys, and once they number restoreLeaves
	// or one leaf alone fills the window.
	restoreKeys   = 1 << 15
	restoreLeaves = 1 << 10

	// maxHeight, maxFanout and maxNameLen bound decoded structure parameters;
	// a corrupt or adversarial file fails fast instead of driving allocation
	// or recursion off a cliff. heightFor caps real heights around 7 even at
	// 2^64 keys; real fanouts top out near the DARE root budget (2^20).
	maxHeight    = 64
	maxNodeDepth = 1 << 10
	maxFanout    = 1 << 26
	maxNameLen   = 1 << 10
)

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrSnapshotCorrupt wraps every integrity failure ReadFrom detects, so the
// recovery path can distinguish "this snapshot is damaged, try the previous
// one" from I/O errors.
var ErrSnapshotCorrupt = errors.New("core: corrupt index snapshot")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
}

// WriteTo implements io.WriterTo: it streams the index structure in the
// CHAMSNP3 format. It may run during live Insert/Delete traffic and alongside
// the retrainer — see the consistency notes above.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	ix.rebuildMu.RLock()
	defer ix.rebuildMu.RUnlock()
	name := ix.cfg.Name
	if len(name) > maxNameLen {
		return 0, fmt.Errorf("core: index name of %d bytes exceeds %d", len(name), maxNameLen)
	}
	var hdr [snapHeaderLen]byte
	copy(hdr[:], snapMagic)
	binary.LittleEndian.PutUint32(hdr[len(snapMagic):], snapVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	t := ix.tree.Load()
	sw := &snapWriter{w: w, buf: make([]byte, 0, snapBufSize)}
	sw.uv(uint64(len(name)))
	sw.room(len(name))
	sw.buf = append(sw.buf, name...)
	sw.f64(ix.cfg.Tau)
	sw.f64(ix.cfg.Alpha)
	sw.uv(uint64(t.h))
	sw.uv(uint64(ix.baseN.Load()))
	sw.tree(t)
	sw.uv(uint64(sw.keys))
	sw.flush()
	n := int64(snapHeaderLen) + sw.n
	if sw.err != nil {
		return n, sw.err
	}
	var ftr [snapFooterLen]byte
	binary.LittleEndian.PutUint64(ftr[0:], uint64(sw.n))
	binary.LittleEndian.PutUint32(ftr[8:], sw.crc)
	copy(ftr[12:], snapEndMagic)
	m, err := w.Write(ftr[:])
	return n + int64(m), err
}

// snapWriter encodes the payload into one fixed chunk, folding each chunk
// into the running CRC as it goes out, so no payload-sized buffer exists.
type snapWriter struct {
	w    io.Writer
	buf  []byte
	crc  uint32
	n    int64 // payload bytes handed to w
	err  error
	keys int // keys encoded

	c cut // the interval being encoded
}

// room flushes the chunk unless k more bytes fit in it.
func (sw *snapWriter) room(k int) {
	if len(sw.buf)+k > cap(sw.buf) {
		sw.flush()
	}
}

func (sw *snapWriter) flush() {
	if sw.err == nil && len(sw.buf) > 0 {
		sw.crc = crc32.Update(sw.crc, snapCRC, sw.buf)
		sw.n += int64(len(sw.buf))
		_, sw.err = sw.w.Write(sw.buf)
	}
	sw.buf = sw.buf[:0]
}

func (sw *snapWriter) u8(b byte) {
	sw.room(1)
	sw.buf = append(sw.buf, b)
}

func (sw *snapWriter) u64(v uint64) {
	sw.room(8)
	sw.buf = binary.LittleEndian.AppendUint64(sw.buf, v)
}

func (sw *snapWriter) f64(f float64) { sw.u64(math.Float64bits(f)) }

func (sw *snapWriter) uv(v uint64) {
	sw.room(binary.MaxVarintLen64)
	sw.buf = binary.AppendUvarint(sw.buf, v)
}

// tree encodes t in pre-order. Each interval's leaves are copied as a
// validated cut and encoded with no lock held. Inner nodes below a gate
// are never modified in place (a retrain swaps the whole gate child), so the
// encode walks the copied subtree's shape unlocked.
func (sw *snapWriter) tree(t *tree) {
	inner := func(n *node, _ int) { sw.inner(n) }
	sw.c.each(t, 0, math.MaxUint64, inner, func(c *cut) bool {
		i := 0
		visit(c.sub, 0, 0, math.MaxUint64, func(n *node, _ int) bool {
			if n.leaf == nil {
				sw.inner(n)
			} else {
				sw.leaf(n, c, i)
				i++
			}
			return true
		})
		return true
	})
}

// leaf encodes leaf node n, the i-th leaf of c.
func (sw *snapWriter) leaf(n *node, c *cut, i int) {
	g := c.leaves[i].g
	ks, vs := c.run(i)
	sw.u8(tagLeaf)
	sw.u64(n.lo)
	sw.u64(n.hi)
	sw.u64(g.Lo)
	sw.u64(g.Hi)
	sw.uv(uint64(g.Cap))
	sw.f64(g.Alpha)
	sw.f64(g.Tau)
	sat := byte(0)
	if g.Saturated {
		sat = 1
	}
	sw.u8(sat)
	sw.uv(uint64(len(ks)))
	prev := uint64(0)
	for _, k := range ks {
		sw.uv(k - prev)
		prev = k
	}
	for _, v := range vs {
		sw.u64(v)
	}
	sw.keys += len(ks)
}

func (sw *snapWriter) inner(nd *node) {
	sw.u8(tagInner)
	sw.u64(nd.lo)
	sw.u64(nd.hi)
	sw.uv(uint64(nd.fanout))
	sw.uv(nd.gateBase + 1) // noGate wraps to 0
}

// snapshot is a decoded snapshot before installation, in either format.
type snapshot struct {
	name         string
	tau, alpha   float64
	h            int
	baseN, count uint64
	root         *node
}

// check rejects absurd header parameters.
func (s *snapshot) check() error {
	if s.h < 1 || s.h > maxHeight {
		return corruptf("height %d out of range", s.h)
	}
	if !(s.tau > 0 && s.tau < 1) {
		return corruptf("tau %v out of (0,1)", s.tau)
	}
	if !(s.alpha > 0) || s.alpha > 1e18 {
		return corruptf("alpha %v out of range", s.alpha)
	}
	if s.baseN > math.MaxInt64 {
		return corruptf("baseN %d out of range", s.baseN)
	}
	return nil
}

// ReadFrom implements io.ReaderFrom: it replaces the index contents with a
// structure written by WriteTo, verifying the CRC footer and rejecting absurd
// structural parameters before anything is installed. On error the index is
// unchanged. The decode is serial; the decoded leaves are restored in
// bounded windows, up to Config.Workers at a time. The receiver's
// construction policies are kept for future retraining/reconstruction. Any
// running retrainer is stopped; restarting it
// is the caller's choice (the public chameleon.Load restarts it per
// Options.RetrainEvery).
func (ix *Index) ReadFrom(r io.Reader) (int64, error) {
	sr := &snapReader{src: r, buf: make([]byte, snapBufSize), workers: ix.cfg.Workers}
	s, err := sr.snapshot()
	if err != nil {
		return sr.consumed(), err
	}
	t := &tree{root: s.root, h: s.h}
	if err := rebuildGates(t); err != nil {
		return sr.consumed(), err
	}
	ix.lifecycle.Lock()
	defer ix.lifecycle.Unlock()
	ix.stopRetrainerLocked()
	ix.rebuildMu.Lock()
	ix.cfg.Name = s.name
	ix.cfg.Tau, ix.cfg.Alpha = s.tau, s.alpha
	ix.installTree(t, int(s.count))
	ix.baseN.Store(int64(s.baseN))
	ix.rebuildMu.Unlock()
	return sr.consumed(), nil
}

// snapReader is the decoder's input: a refillable window over the source
// that folds consumed bytes into the running CRC at each refill, so only
// bytes the decoder has parsed are checksummed and the source is never read
// more than one window ahead. The decoder runs serially; the leaves it
// decodes wait in a bounded window and are restored together, up to
// workers at a time (see restore).
type snapReader struct {
	src      io.Reader
	buf      []byte
	pos, end int    // unread bytes are buf[pos:end]
	sum      int    // buf[sum:pos] is consumed but not yet in crc
	crc      uint32 // over the payload consumed so far
	base     int64  // bytes consumed before buf[0]
	err      error  // first failure; reads after it return zeros

	ks, vs  []uint64      // the pending leaves' entries, reused: Restore copies them
	pend    []pendingLeaf // decoded leaves not yet restored, in stream order
	workers int           // bounds restore's goroutines, as Config.Workers
	alpha   float64       // the index's configured α, which leaf α must be a rung of
	keys    uint64        // keys decoded
}

// pendingLeaf is a decoded leaf waiting for restore: its node, its
// geometry, its entries' span [start, end) in the reader's ks and vs, and
// what ebh.Restore said of it.
type pendingLeaf struct {
	n          *node
	g          ebh.Geometry
	start, end int
	err        error
}

func (r *snapReader) consumed() int64 { return r.base + int64(r.pos) }

func (r *snapReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// window returns the unread bytes, first refilling them to at least k
// (k ≤ len(buf)) unless the source ends or fails.
func (r *snapReader) window(k int) []byte {
	if r.end-r.pos < k && r.err == nil {
		r.crc = crc32.Update(r.crc, snapCRC, r.buf[r.sum:r.pos])
		r.base += int64(r.pos)
		r.end = copy(r.buf, r.buf[r.pos:r.end])
		r.pos, r.sum = 0, 0
		for r.end < k {
			m, err := r.src.Read(r.buf[r.end:])
			r.end += m
			if err == io.EOF {
				break
			}
			if err != nil {
				r.fail(err)
				break
			}
		}
	}
	return r.buf[r.pos:r.end]
}

// take consumes the next k bytes, or fails and returns nil.
func (r *snapReader) take(k int) []byte {
	b := r.window(k)
	if len(b) < k {
		r.fail(corruptf("truncated after %d bytes", r.consumed()+int64(len(b))))
		return nil
	}
	r.pos += k
	return b[:k]
}

func (r *snapReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *snapReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *snapReader) f64() float64 { return math.Float64frombits(r.u64()) }

// uv decodes a varint: one that does not fit a uint64 is corrupt, one the
// stream ends inside is truncated.
func (r *snapReader) uv() uint64 {
	b := r.window(binary.MaxVarintLen64)
	v, m := binary.Uvarint(b)
	switch {
	case m > 0:
		r.pos += m
		return v
	case len(b) >= binary.MaxVarintLen64:
		r.fail(corruptf("varint overflows at byte %d", r.consumed()))
	default:
		r.take(len(b) + 1) // fails: truncated
	}
	return 0
}

// snapshot decodes and verifies a whole stream, dispatching on the magic.
func (r *snapReader) snapshot() (*snapshot, error) {
	hdr := r.take(snapHeaderLen)
	if hdr == nil {
		return nil, r.err
	}
	magic, version := string(hdr[:len(snapMagic)]), binary.LittleEndian.Uint32(hdr[len(snapMagic):])
	switch {
	case magic == "CHAMSNP2":
		return nil, fmt.Errorf("core: CHAMSNP2 snapshot: %w", format.ErrNeedsUpgrade)
	case magic != snapMagic:
		return nil, corruptf("not a chameleon index snapshot")
	case version != snapVersion:
		return nil, fmt.Errorf("core: unsupported index snapshot version %d", version)
	}
	r.sum = r.pos // the header is outside the CRC

	s := &snapshot{}
	nameLen := r.uv()
	if nameLen > maxNameLen {
		return nil, corruptf("name of %d bytes", nameLen)
	}
	s.name = string(r.take(int(nameLen)))
	s.tau, s.alpha = r.f64(), r.f64()
	r.alpha = s.alpha
	h := r.uv()
	s.h = int(min(h, maxHeight+1))
	s.baseN = r.uv()
	if r.err != nil {
		return nil, r.err
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	// The window holds at most restoreKeys keys unless one leaf holds more;
	// baseN, which a damaged file may misstate, only sizes it below that.
	r.ks = make([]uint64, 0, min(s.baseN, restoreKeys))
	r.vs = make([]uint64, 0, cap(r.ks))
	s.root = r.node(0)
	r.restore()
	s.count = r.uv()
	if r.err != nil {
		return nil, r.err
	}

	r.crc = crc32.Update(r.crc, snapCRC, r.buf[r.sum:r.pos])
	r.sum = r.pos
	payload := uint64(r.consumed() - int64(snapHeaderLen))
	ftr := r.take(snapFooterLen)
	if ftr == nil {
		return nil, r.err
	}
	if string(ftr[12:]) != snapEndMagic {
		return nil, corruptf("missing end magic (torn write?)")
	}
	if got := binary.LittleEndian.Uint64(ftr[0:]); got != payload {
		return nil, corruptf("payload length %d, footer says %d", payload, got)
	}
	if got, want := r.crc, binary.LittleEndian.Uint32(ftr[8:]); got != want {
		return nil, corruptf("checksum mismatch (crc %08x, footer %08x)", got, want)
	}
	if rest := r.window(1); len(rest) > 0 {
		return nil, corruptf("trailing bytes after footer")
	}
	if r.err != nil {
		return nil, r.err
	}
	if s.count != r.keys {
		return nil, corruptf("leaves hold %d keys, trailer says %d", r.keys, s.count)
	}
	return s, nil
}

// node decodes one subtree. Nothing is allocated from a decoded count: the
// children and the entries grow as their bytes arrive, and the leaf's
// capacity is bounded by ebh.Restore.
func (r *snapReader) node(depth int) *node {
	if depth > maxNodeDepth {
		r.fail(corruptf("node nesting exceeds %d", maxNodeDepth))
		return nil
	}
	tag := r.u8()
	lo, hi := r.u64(), r.u64()
	if r.err != nil {
		return nil
	}
	switch tag {
	case tagInner:
		fanout, gate := r.uv(), r.uv()-1
		if r.err != nil {
			return nil
		}
		if fanout < 1 || fanout > maxFanout {
			r.fail(corruptf("inner node fanout %d", fanout))
			return nil
		}
		children := make([]*node, 0, min(fanout, 64))
		for uint64(len(children)) < fanout {
			c := r.node(depth + 1)
			if c == nil {
				return nil
			}
			children = append(children, c)
		}
		n := newInner(lo, hi, children)
		n.gateBase = gate
		return n
	case tagLeaf:
		g := ebh.Geometry{Lo: r.u64(), Hi: r.u64()}
		g.Cap = int(min(r.uv(), math.MaxInt32))
		g.Alpha, g.Tau = r.f64(), r.f64()
		sat := r.u8()
		g.Saturated = sat == 1
		n := r.uv()
		if len(r.pend) > 0 && n > restoreKeys-uint64(len(r.ks)) {
			if r.restore(); r.err != nil {
				return nil
			}
		}
		start := len(r.ks)
		r.ks = r.deltas(r.ks, n)
		r.vs = r.fixed(r.vs, n)
		if r.err != nil {
			return nil
		}
		if sat > 1 {
			r.fail(corruptf("saturated flag %d", sat))
			return nil
		}
		nd := &node{lo: lo, hi: hi, fanout: 1, gateBase: noGate}
		r.pend = append(r.pend, pendingLeaf{n: nd, g: g, start: start, end: len(r.ks)})
		r.keys += n
		if len(r.ks) >= restoreKeys || len(r.pend) >= restoreLeaves {
			if r.restore(); r.err != nil {
				return nil
			}
		}
		return nd
	}
	r.fail(corruptf("node tag %d", tag))
	return nil
}

// restore restores the pending leaves through ebh.Restore, up to r.workers
// at a time, and empties the window. A leaf Restore refuses fails the
// decode, the first such leaf in stream order, even when the decode failed
// already: every pending leaf precedes the bytes that failed it.
func (r *snapReader) restore() {
	pend := r.pend
	if len(pend) == 0 {
		return
	}
	par.Do(len(pend), par.Workers(r.workers), func(i int) {
		p := &pend[i]
		p.n.leaf, p.err = ebh.Restore(p.g, r.alpha, r.ks[p.start:p.end], r.vs[p.start:p.end])
	})
	for _, p := range pend {
		if p.err != nil {
			r.err = fmt.Errorf("%w: %v", ErrSnapshotCorrupt, p.err)
			break
		}
	}
	r.pend, r.ks, r.vs = pend[:0], r.ks[:0], r.vs[:0]
}

// deltas appends n keys decoded from uv deltas, the first from 0.
func (r *snapReader) deltas(dst []uint64, n uint64) []uint64 {
	k := uint64(0)
	for i := uint64(0); i < n && r.err == nil; i++ {
		k += r.uv()
		dst = append(dst, k)
	}
	return dst
}

// fixed appends n 8-byte values.
func (r *snapReader) fixed(dst []uint64, n uint64) []uint64 {
	for i := uint64(0); i < n && r.err == nil; i++ {
		dst = append(dst, r.u64())
	}
	return dst
}

// rebuildGates reconstructs the gate registry and lock table of a decoded
// tree from the persisted gateBase markers. Gate IDs must be dense (the
// builder assigns them sequentially); a corrupt file with inflated IDs is
// rejected rather than allocating an inflated registry.
func rebuildGates(t *tree) error {
	maxID := uint64(0)
	totalChildren := 0
	var collect []func(gates []*gate)
	visit(t.root, 0, 0, math.MaxUint64, func(n *node, _ int) bool {
		totalChildren += len(n.children)
		if n.gateBase != noGate {
			parent := n
			base := n.gateBase
			for j := range n.children {
				j := j
				child := n.children[j]
				id := base + uint64(j)
				if id < base {
					// gateBase near MaxUint64 wrapped around.
					maxID = ^uint64(0)
					continue
				}
				if id+1 > maxID {
					maxID = id + 1
				}
				collect = append(collect, func(gates []*gate) {
					g := &gate{id: id, parent: parent, slot: j, lo: child.lo, hi: child.hi}
					g.keys.Store(int64(subtreeKeys(child)))
					gates[id] = g
				})
			}
		}
		return true
	})
	if maxID > uint64(totalChildren) {
		return corruptf("gate ID %d exceeds %d child slots", maxID, totalChildren)
	}
	gates := make([]*gate, maxID)
	for _, fn := range collect {
		fn(gates)
	}
	// A well-formed file has dense IDs; fill any hole with an inert gate so
	// the hot path never nil-derefs.
	for i, g := range gates {
		if g == nil {
			gates[i] = &gate{id: uint64(i)}
		}
	}
	t.gates = gates
	t.locks = ilock.New(len(gates) + 1)
	return nil
}

func subtreeKeys(n *node) int {
	total := 0
	visit(n, 0, 0, math.MaxUint64, func(nd *node, _ int) bool {
		if nd.leaf != nil {
			total += nd.leaf.Len()
		}
		return true
	})
	return total
}
