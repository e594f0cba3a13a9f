package chameleon

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/segment"
	"chameleon/internal/wal"
)

// Tiered storage (DESIGN.md §15): instead of rewriting the whole index as a
// monolithic snapshot on every Checkpoint, the hot write set stays in the
// in-memory EBH tier (the memtable, backed by the existing WAL/group-commit
// path) and a background flusher periodically freezes it at a commit-sequence
// watermark and writes a delta-sized immutable L0 segment
// (internal/segment). A compactor merges the L0 runs with the older runs that
// are small enough to be worth rewriting (pickCompaction), dropping the
// tombstones nothing older needs. The manifest is the commit point for both;
// the WAL is truncated only past the flushed watermark, so every crash point
// leaves either the old manifest + a WAL that still covers the delta, or the
// new manifest with the delta inside segments.
//
// Read path (newest wins): memtable → dead-set (tombstones awaiting flush) →
// frozen run (flush in progress) → segments newest-to-oldest, pruned by
// min/max and each run's membership filter, resolved by its learned model.
// Cold lookups are lock-free and use a version counter (tierVer) to detect
// racing memtable↔dead transitions: a key being re-inserted over a flushed
// tombstone momentarily exists in neither the memtable nor the dead set, and
// without the version check a reader could fall through to a segment and
// resurrect the previous incarnation's value.
//
// Lock order: t.tmu → d.mu → d.qmu. t.segMu is independent and nests inside
// anything: readers hold segMu.RLock across segment I/O; a compaction takes
// segMu.Lock only as an empty barrier (Lock; Unlock) after publishing the
// new segment set, so retired readers are closed only after every in-flight
// cold read has drained. Nobody acquires other locks while holding segMu.
type tier struct {
	d *DurableIndex

	// tmu serializes flush, compaction, bulk load, and tier close — the
	// operations that advance the manifest generation. It is taken before
	// d.mu, never after.
	tmu sync.Mutex

	// dead is the set of deleted keys not yet flushed: a delete of a key that
	// (maybe) lives in a segment cannot just remove it from the memtable — a
	// cold read would fall through and resurrect it. Invariant: a key is
	// never in both the memtable and dead. Mutated only under d.mu.
	deadMu sync.RWMutex
	dead   map[uint64]struct{}

	// frozen is the run captured by the last freeze and not yet durable as a
	// segment; non-nil exactly while a flush is in progress (or has failed
	// and awaits retry). Readers consult it between the memtable and the
	// segments.
	frozen atomic.Pointer[frozenRun]

	// segs is the published segment set, newest first. Never nil.
	segMu sync.RWMutex // reader-retirement barrier; see package comment
	segs  atomic.Pointer[segset]

	// ver counts memtable/dead/frozen transitions; cold readers snapshot it
	// before probing and retry if it moved (see lookupCold).
	ver atomic.Uint64

	// Durable-state mirrors, written under tmu, readable anywhere (Health).
	gen         atomic.Uint64 // current manifest generation
	nextID      atomic.Uint64 // next unused segment file ID
	flushedSeq  atomic.Uint64 // manifest watermark F
	flushedLive atomic.Int64  // visible keys as of F

	// liveCount is the exact number of visible keys across all tiers,
	// maintained transactionally under d.mu.
	liveCount atomic.Int64

	// Background flusher.
	flushCh  chan struct{}
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Tunables resolved from DirOptions.
	memBytes  int64
	eps       int
	compactL0 int

	// Health counters.
	flushes       atomic.Uint64
	flushErrs     atomic.Uint64
	compactions   atomic.Uint64
	compactErrs   atomic.Uint64
	flushedBytes  atomic.Uint64 // segment bytes written by flushes
	compactBytes  atomic.Uint64 // segment bytes written by compactions
	lastFlushUS   atomic.Int64  // wall micros of the last successful flush
	lastCompactUS atomic.Int64
	coldReads     atomic.Uint64 // lookups resolved from a segment (hit or tombstone)
	coldErrs      atomic.Uint64 // segment I/O failures on the read path
	coldDist      atomic.Uint64 // cumulative |predicted − actual| rank error
	lastFlushErrv atomic.Value  // errBox
}

// frozenRun is an immutable memtable capture: merged live pairs and dead-set
// tombstones, key-ascending, with the commit-sequence watermark and exact
// live count taken at freeze time.
type frozenRun struct {
	keys, vals []uint64
	tombs      []bool
	seq        uint64
	live       int64
}

// get resolves key against the frozen run. ok distinguishes "this run is
// authoritative for key" (hit or tombstone) from "not present here".
func (fr *frozenRun) get(key uint64) (val uint64, tomb, ok bool) {
	i := sort.Search(len(fr.keys), func(i int) bool { return fr.keys[i] >= key })
	if i == len(fr.keys) || fr.keys[i] != key {
		return 0, false, false
	}
	return fr.vals[i], fr.tombs[i], true
}

// entries materializes the [lo, hi] window as merge input.
func (fr *frozenRun) entries(lo, hi uint64) []segment.Entry {
	i := sort.Search(len(fr.keys), func(i int) bool { return fr.keys[i] >= lo })
	var out []segment.Entry
	for ; i < len(fr.keys) && fr.keys[i] <= hi; i++ {
		out = append(out, segment.Entry{Key: fr.keys[i], Val: fr.vals[i], Tomb: fr.tombs[i]})
	}
	return out
}

// segset is the immutable published list of open segment readers, newest
// first (Seq descending, ID descending on ties).
type segset struct {
	readers []*segment.Reader
}

func (s *segset) metas() []segment.Meta {
	out := make([]segment.Meta, len(s.readers))
	for i, r := range s.readers {
		out[i] = r.Meta()
	}
	return out
}

func sortNewestFirst(readers []*segment.Reader) {
	sort.Slice(readers, func(i, j int) bool {
		mi, mj := readers[i].Meta(), readers[j].Meta()
		if mi.Seq != mj.Seq {
			return mi.Seq > mj.Seq
		}
		return mi.ID > mj.ID
	})
}

const (
	defaultMemtableBytes = 4 << 20
	defaultCompactL0     = 4
	// memtableEntryBytes is the WAL-frame-sized accounting cost of one
	// memtable entry or dead-set tombstone for the flush trigger.
	memtableEntryBytes = 16
	// compactRunMax splits compaction output into runs of at most this many
	// entries so a single L1 file stays pread-friendly.
	compactRunMax = 1 << 19
)

// ErrNotTiered is returned by tier-only operations (Compact, SegmentMetas)
// on a directory opened in legacy snapshot mode.
var ErrNotTiered = errors.New("chameleon: directory is not in tiered mode")

func newTier(d *DurableIndex, man *segment.Manifest, readers []*segment.Reader, dead map[uint64]struct{}, live int64) *tier {
	t := &tier{
		d:         d,
		dead:      dead,
		flushCh:   make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
		memBytes:  d.opts.MemtableBytes,
		eps:       d.opts.SegmentEps,
		compactL0: d.opts.CompactL0,
	}
	if t.memBytes <= 0 {
		t.memBytes = defaultMemtableBytes
	}
	if t.eps <= 0 {
		t.eps = segment.DefaultEps
	}
	if t.compactL0 <= 0 {
		t.compactL0 = defaultCompactL0
	}
	if t.dead == nil {
		t.dead = make(map[uint64]struct{})
	}
	sortNewestFirst(readers)
	t.segs.Store(&segset{readers: readers})
	if man != nil {
		t.gen.Store(man.Gen)
		t.nextID.Store(man.NextID)
		t.flushedSeq.Store(man.FlushedSeq)
		t.flushedLive.Store(man.LiveCount)
	} else {
		t.nextID.Store(1)
	}
	t.liveCount.Store(live)
	t.lastFlushErrv.Store(errBox{})
	t.wg.Add(1)
	go t.flusherLoop()
	return t
}

// ---------------------------------------------------------------------------
// Read path

// bumpVer marks a memtable/dead/frozen transition. Callers hold d.mu.
func (t *tier) bumpVer() { t.ver.Add(1) }

// lookup resolves key across every tier, lock-free. The probe order
// (memtable, dead, frozen, segments) combined with the apply order in
// applyRecordLocked makes delete races safe without coordination; insert
// races (a key leaving the dead set) are caught by the version check.
func (t *tier) lookup(key uint64) (uint64, bool) {
	if v, ok := t.d.ix.Lookup(key); ok {
		return v, true
	}
	return t.lookupCold(key)
}

// lookupCold resolves a memtable miss. Retries (rare: only under a racing
// flush or a re-insert over a flushed tombstone) re-probe the memtable too;
// after a few collisions it falls back to the serialized path under d.mu,
// where no transition can interleave.
func (t *tier) lookupCold(key uint64) (uint64, bool) {
	for attempt := 0; attempt < 8; attempt++ {
		ver := t.ver.Load()
		if attempt > 0 {
			if v, ok := t.d.ix.Lookup(key); ok {
				return v, true
			}
		}
		t.deadMu.RLock()
		_, deadHit := t.dead[key]
		t.deadMu.RUnlock()
		if deadHit {
			return 0, false
		}
		if fr := t.frozen.Load(); fr != nil {
			if v, tomb, ok := fr.get(key); ok {
				if tomb {
					return 0, false
				}
				return v, true
			}
		}
		if t.ver.Load() != ver {
			continue // a transition may have moved the key under us
		}
		// The volatile tiers were stable across the probes, so a miss there
		// is authoritative and the segments (logically immutable) decide.
		v, tomb, ok, err := t.segGet(key)
		if err != nil {
			t.coldErrs.Add(1)
			return 0, false
		}
		if !ok || tomb {
			return 0, false
		}
		return v, true
	}
	// Contended: resolve under d.mu where transitions are serialized.
	t.d.mu.Lock()
	defer t.d.mu.Unlock()
	v, ok, err := t.visibleLocked(key)
	if err != nil {
		t.coldErrs.Add(1)
		return 0, false
	}
	return v, ok
}

// segGet probes the published segments newest-to-oldest; a run whose
// min/max or membership filter rules key out costs no I/O. ok means some
// segment is authoritative for key (value or tombstone).
func (t *tier) segGet(key uint64) (val uint64, tomb, ok bool, err error) {
	t.segMu.RLock()
	defer t.segMu.RUnlock()
	for _, r := range t.segs.Load().readers {
		v, tb, hit, dist, gerr := r.Get(key)
		if gerr != nil {
			return 0, false, false, gerr
		}
		if hit {
			t.coldReads.Add(1)
			t.coldDist.Add(uint64(dist))
			return v, tb, true, nil
		}
	}
	return 0, false, false, nil
}

// visibleLocked resolves key's visible value under d.mu (no concurrent
// transitions). Shared by validation (presentLocked) and the contended
// lookup fallback.
func (t *tier) visibleLocked(key uint64) (val uint64, ok bool, err error) {
	if v, hit := t.d.ix.Lookup(key); hit {
		return v, true, nil
	}
	t.deadMu.RLock()
	_, deadHit := t.dead[key]
	t.deadMu.RUnlock()
	if deadHit {
		return 0, false, nil
	}
	if fr := t.frozen.Load(); fr != nil {
		if v, tomb, hit := fr.get(key); hit {
			return v, !tomb, nil
		}
	}
	v, tomb, hit, err := t.segGet(key)
	if err != nil {
		return 0, false, err
	}
	return v, hit && !tomb, nil
}

// rangeMerged streams [lo, hi] ascending across every tier. The volatile
// tiers (memtable, dead set, frozen run) are captured coherently under d.mu
// — capture only, not the scan — then the k-way merge runs against the
// immutable segments under segMu.RLock. The locks are NOT nested (the rule
// that keeps the reader-retirement barrier deadlock-free): the segment set
// consulted may be a flush or compaction ahead of the capture, which is
// harmless because those operations preserve logical content at or below
// the watermark, and any re-surfaced duplicate of captured data is shadowed
// by the capture's higher merge priority.
func (t *tier) rangeMerged(lo, hi uint64, fn func(key, val uint64) bool) {
	if hi < lo {
		return
	}
	t.d.mu.Lock()
	var mem []segment.Entry
	t.d.ix.Range(lo, hi, func(k, v uint64) bool {
		mem = append(mem, segment.Entry{Key: k, Val: v})
		return true
	})
	t.deadMu.RLock()
	for k := range t.dead {
		if k >= lo && k <= hi {
			mem = append(mem, segment.Entry{Key: k, Tomb: true})
		}
	}
	t.deadMu.RUnlock()
	fr := t.frozen.Load()
	t.d.mu.Unlock()

	t.segMu.RLock()
	defer t.segMu.RUnlock()
	set := t.segs.Load()

	// The memtable and dead set are disjoint, so appending tombstones and
	// re-sorting yields one strictly-ascending newest source.
	sort.Slice(mem, func(i, j int) bool { return mem[i].Key < mem[j].Key })

	sources := make([]segment.Iterator, 0, len(set.readers)+2)
	sources = append(sources, segment.NewSliceIter(mem))
	if fr != nil {
		sources = append(sources, segment.NewSliceIter(fr.entries(lo, hi)))
	}
	for _, r := range set.readers {
		m := r.Meta()
		if m.Count == 0 || m.MaxKey < lo || m.MinKey > hi {
			continue
		}
		sources = append(sources, r.Iter(lo, hi))
	}
	m := segment.NewMerge(sources...)
	for m.Next() {
		e := m.Entry()
		if e.Tomb {
			continue
		}
		if !fn(e.Key, e.Val) {
			return
		}
	}
	if err := m.Err(); err != nil {
		t.coldErrs.Add(1)
	}
}

// ---------------------------------------------------------------------------
// Write path (all under d.mu)

// presentLocked reports whether key is visible, consulting every tier in
// tiered mode. Callers hold d.mu.
func (d *DurableIndex) presentLocked(key uint64) (bool, error) {
	if d.tier == nil {
		_, p := d.ix.Lookup(key)
		return p, nil
	}
	_, ok, err := d.tier.visibleLocked(key)
	return ok, err
}

// applyRecordLocked applies one validated, logged record to the in-memory
// state. In tiered mode the orderings are load-bearing for lock-free
// readers: a delete publishes its dead-set tombstone BEFORE removing the key
// from the memtable (a reader that misses the memtable then finds the
// tombstone — never falls through to a stale segment value), and an insert
// lands in the memtable BEFORE clearing a dead-set tombstone (the version
// bump catches the reader that raced past both). Callers hold d.mu.
func (d *DurableIndex) applyRecordLocked(r wal.Record) error {
	if d.tier == nil {
		switch r.Op {
		case wal.OpInsert:
			return d.ix.Insert(r.Key, r.Val)
		case wal.OpDelete:
			return d.ix.Delete(r.Key)
		}
		return nil
	}
	t := d.tier
	switch r.Op {
	case wal.OpInsert:
		if err := d.ix.Insert(r.Key, r.Val); err != nil {
			return err
		}
		t.deadMu.Lock()
		delete(t.dead, r.Key)
		t.deadMu.Unlock()
		t.bumpVer()
		t.liveCount.Add(1)
	case wal.OpDelete:
		t.deadMu.Lock()
		t.dead[r.Key] = struct{}{}
		t.deadMu.Unlock()
		t.bumpVer()
		// The key may live only in frozen/segment tiers; a memtable miss is
		// expected then — the dead-set tombstone above is what shadows it.
		d.ix.inner.Delete(r.Key) //nolint:errcheck
		t.liveCount.Add(-1)
	}
	return nil
}

// maybeSignalFlush nudges the background flusher when the memtable plus
// pending tombstones cross the configured budget. Callers hold d.mu.
func (t *tier) maybeSignalFlush() {
	if int64(t.d.ix.Len()+len(t.dead))*memtableEntryBytes < t.memBytes {
		return
	}
	select {
	case t.flushCh <- struct{}{}:
	default:
	}
}

// ---------------------------------------------------------------------------
// Flush

// rotateWALLocked opens wal-<seq+1> as the live log, recording the current
// commit sequence as its base in the seq.meta sidecar. On failure the old
// log stays live and authoritative — at worst a crash leaves a stray empty
// wal file whose recorded base makes its (zero) records harmless to replay.
// Callers hold d.mu.
func (d *DurableIndex) rotateWALLocked() error {
	newSeq := d.seq + 1
	walPath := filepath.Join(d.dir, walName(newSeq))
	newLog, _, err := wal.Open(walPath, walOptions(d.opts, d.fs), nil)
	if err != nil {
		return err
	}
	if d.seqMeta == nil {
		d.seqMeta = make(map[uint64]uint64)
	}
	d.seqMeta[newSeq] = d.commitSeq.Load()
	if err := d.writeSeqMetaLocked(); err != nil {
		delete(d.seqMeta, newSeq)
		newLog.Close()       //nolint:errcheck
		d.fs.Remove(walPath) //nolint:errcheck
		return err
	}
	if err := d.fs.SyncDir(d.dir); err != nil {
		delete(d.seqMeta, newSeq)
		newLog.Close() //nolint:errcheck
		return err
	}
	old := d.log
	d.log = newLog
	d.seq = newSeq
	if old != nil {
		old.Close() //nolint:errcheck
	}
	// A fresh, empty log clears a wedged-WAL degradation, same as the legacy
	// checkpoint rotation.
	d.degraded.Store(false)
	d.walErrv.Store(errBox{})
	return nil
}

// mergeLiveDead merges live pairs and sorted dead-set tombstones into one
// ascending run. The sets are disjoint by invariant; if they ever collide the
// live value wins (failing open to data, not to loss).
func mergeLiveDead(keys, vals, dk []uint64) (mk, mv []uint64, mt []bool) {
	mk = make([]uint64, 0, len(keys)+len(dk))
	mv = make([]uint64, 0, len(keys)+len(dk))
	mt = make([]bool, 0, len(keys)+len(dk))
	i, j := 0, 0
	for i < len(keys) || j < len(dk) {
		switch {
		case j == len(dk) || (i < len(keys) && keys[i] <= dk[j]):
			if j < len(dk) && keys[i] == dk[j] {
				j++
			}
			mk = append(mk, keys[i])
			mv = append(mv, vals[i])
			mt = append(mt, false)
			i++
		default:
			mk = append(mk, dk[j])
			mv = append(mv, 0)
			mt = append(mt, true)
			j++
		}
	}
	return mk, mv, mt
}

// freeze captures the memtable and dead set as an immutable frozen run at
// the current commit sequence, rotates the WAL so the delta has a clean log
// boundary, and resets the volatile tiers. Returns (nil, nil) when there is
// nothing to flush. Callers hold t.tmu.
func (t *tier) freeze() (*frozenRun, error) {
	d := t.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usableLocked(); err != nil {
		return nil, err
	}
	keys, vals := d.ix.AppendPairs(nil, nil)
	t.deadMu.RLock()
	dk := make([]uint64, 0, len(t.dead))
	for k := range t.dead {
		dk = append(dk, k)
	}
	t.deadMu.RUnlock()
	if len(keys) == 0 && len(dk) == 0 {
		return nil, nil
	}
	sort.Slice(dk, func(i, j int) bool { return dk[i] < dk[j] })
	mk, mv, mt := mergeLiveDead(keys, vals, dk)

	fseq := d.commitSeq.Load()
	live := t.liveCount.Load()
	if err := d.rotateWALLocked(); err != nil {
		return nil, err // clean abort: nothing captured, old log still live
	}
	fr := &frozenRun{keys: mk, vals: mv, tombs: mt, seq: fseq, live: live}
	t.frozen.Store(fr)
	t.bumpVer()
	if err := d.ix.BulkLoad(nil, nil); err != nil {
		// Resetting an index to empty cannot fail; if it somehow does, memory
		// no longer matches the capture and the handle must fail stop.
		d.poisonLocked(fmt.Errorf("tier freeze reset: %w", err))
		return nil, d.fail
	}
	t.deadMu.Lock()
	t.dead = make(map[uint64]struct{})
	t.deadMu.Unlock()
	t.bumpVer()
	return fr, nil
}

// Flush freezes the memtable at the current commit-sequence watermark and
// writes it as one L0 segment, committing via a new manifest generation and
// then garbage-collecting WAL files the watermark has made redundant. A
// failed flush keeps the frozen run in memory (readable, retried by the next
// Flush); only a reader-open failure after the manifest commit poisons the
// handle. In legacy (non-tiered) mode Flush is Checkpoint.
func (d *DurableIndex) Flush() error {
	if d.tier == nil {
		return d.Checkpoint()
	}
	d.tier.tmu.Lock()
	defer d.tier.tmu.Unlock()
	return d.tier.flushLocked()
}

// flushLocked runs one flush attempt. Callers hold t.tmu.
func (t *tier) flushLocked() error {
	d := t.d
	fr := t.frozen.Load()
	if fr == nil {
		var err error
		fr, err = t.freeze()
		if err != nil {
			t.flushErrs.Add(1)
			t.lastFlushErrv.Store(errBox{err})
			return err
		}
		if fr == nil {
			return nil // nothing to flush
		}
	}
	start := time.Now()
	id := t.nextID.Load()
	meta, err := segment.Create(d.fs, d.dir, fr.keys, fr.vals, fr.tombs, id, 0, fr.seq, t.eps)
	if err == nil {
		// Seal the segment's directory entry before the manifest that
		// references it can be written.
		err = d.fs.SyncDir(d.dir)
	}
	if err != nil {
		t.flushErrs.Add(1)
		t.lastFlushErrv.Store(errBox{err})
		return err
	}
	old := t.segs.Load()
	man := &segment.Manifest{
		Gen:        t.gen.Load() + 1,
		FlushedSeq: fr.seq,
		LiveCount:  fr.live,
		NextID:     id + 1,
		Segments:   append(old.metas(), meta),
	}
	if err := segment.WriteManifest(d.fs, d.dir, man); err != nil {
		t.flushErrs.Add(1)
		t.lastFlushErrv.Store(errBox{err})
		return err
	}
	// The manifest is committed: the segment is authoritative. A failure to
	// open it for serving now means memory can no longer match disk.
	r, err := segment.Open(d.fs, filepath.Join(d.dir, segment.FileName(id)), &meta)
	if err != nil {
		d.mu.Lock()
		d.poisonLocked(fmt.Errorf("flush: reopen committed segment: %w", err))
		d.mu.Unlock()
		t.flushErrs.Add(1)
		t.lastFlushErrv.Store(errBox{err})
		return err
	}
	readers := append([]*segment.Reader{r}, old.readers...)
	sortNewestFirst(readers)
	t.segs.Store(&segset{readers: readers})
	t.frozen.Store(nil) // after segs: a reader missing frozen finds the segment
	t.gen.Store(man.Gen)
	t.nextID.Store(man.NextID)
	t.flushedSeq.Store(fr.seq)
	t.flushedLive.Store(fr.live)
	t.flushes.Add(1)
	t.flushedBytes.Add(uint64(meta.Bytes))
	t.lastFlushUS.Store(time.Since(start).Microseconds())
	t.lastFlushErrv.Store(errBox{})

	t.gcLocked()

	// Keep L0 bounded: compact synchronously once the pile is deep enough,
	// the classic LSM write-stall tradeoff. A failure is counted
	// (CompactErrs) and retried by the next flush; the flush itself stands.
	if t.l0Count() >= t.compactL0 {
		t.compactLocked(false) //nolint:errcheck
	}
	return nil
}

func (t *tier) l0Count() int {
	n := 0
	for _, r := range t.segs.Load().readers {
		if r.Meta().Level == 0 {
			n++
		}
	}
	return n
}

// gcLocked removes files the current manifest generation has made garbage.
// Callers hold t.tmu but not d.mu.
func (t *tier) gcLocked() {
	t.d.mu.Lock()
	defer t.d.mu.Unlock()
	t.gcInlineLocked()
}

// ---------------------------------------------------------------------------
// Compaction

// compactRatio is R in the size-ratio rule below: an older run joins a merge
// only while it is at most R times the bytes already taken. Chosen by
// measurement from {2, 4, 8} (DESIGN.md §15: bytes rewritten against how
// many runs, holding how much unmerged data, sit above the base); not a
// DirOptions field because no two callers want different values.
const compactRatio = 4

// sortedRun is one sorted run of the published set: a single L0 flush
// output, or the level-1 files one compaction wrote (they share its Seq and
// hold disjoint keys).
type sortedRun struct {
	files []*segment.Reader
	bytes int64
	l0    bool
}

// groupRuns splits a newest-first reader list into its runs, newest first.
func groupRuns(readers []*segment.Reader) []sortedRun {
	var runs []sortedRun
	for _, r := range readers {
		m := r.Meta()
		if n := len(runs); n == 0 || m.Level == 0 || runs[n-1].l0 || runs[n-1].files[0].Meta().Seq != m.Seq {
			runs = append(runs, sortedRun{l0: m.Level == 0})
		}
		run := &runs[len(runs)-1]
		run.files = append(run.files, r)
		run.bytes += m.Bytes
	}
	return runs
}

// pickCompaction applies the one input-selection rule to a newest-first
// reader list. Every L0 run is taken; then the older runs are walked newest
// first and the next one is taken only while its bytes ≤ compactRatio × the
// bytes taken so far, stopping at the first that does not fit (full lifts
// the bound: everything is taken). So a small delta is never the reason a
// large run is rewritten, and the taken runs are always the newest ones —
// which is what lets the output carry the newest input's Seq without
// reordering anything against the runs left out.
//
// Within the taken runs a file stays where it is (in rest) when no file of
// another taken run overlaps its key range and it carries no tombstone:
// merging it would copy it verbatim. inputs come back newest first.
func pickCompaction(readers []*segment.Reader, full bool) (inputs, rest []*segment.Reader) {
	runs := groupRuns(readers)
	taken, bytes := 0, int64(0)
	for ; taken < len(runs); taken++ {
		r := runs[taken]
		if !r.l0 && !full && r.bytes > compactRatio*bytes {
			break
		}
		bytes += r.bytes
	}
	overlapped := func(ri int, m segment.Meta) bool {
		for oi, o := range runs[:taken] {
			if oi == ri {
				continue
			}
			for _, f := range o.files {
				if om := f.Meta(); om.Count > 0 && om.MaxKey >= m.MinKey && om.MinKey <= m.MaxKey {
					return true
				}
			}
		}
		return false
	}
	for ri, r := range runs[:taken] {
		for _, f := range r.files {
			if m := f.Meta(); r.l0 || m.Live < m.Count || overlapped(ri, m) {
				inputs = append(inputs, f)
			} else {
				rest = append(rest, f)
			}
		}
	}
	for _, r := range runs[taken:] {
		rest = append(rest, r.files...)
	}
	return inputs, rest
}

// Compact is the operator's full merge: every run — L0, delta and base — is
// merged into one level-1 run and every tombstone dropped, committing via a
// new manifest generation. (The compaction a flush triggers is the same
// function with the size-ratio bound on; see pickCompaction.) Returns
// ErrNotTiered on a legacy directory; a no-op when the tier is already one
// tombstone-free run.
func (d *DurableIndex) Compact() error {
	if d.tier == nil {
		return ErrNotTiered
	}
	d.tier.tmu.Lock()
	defer d.tier.tmu.Unlock()
	return d.tier.compactLocked(true)
}

// compactLocked runs one compaction: pickCompaction chooses the inputs, a
// k-way newest-wins merge streams them into level-1 files of at most
// compactRunMax entries carrying the newest input's Seq, and one manifest
// commit swaps inputs for outputs.
//
// A tombstone is dropped iff no run left out of the merge MayContain its
// key. Every left-out run is older than every input (or shares no key range
// with any), so a tombstone exists only to shadow versions in them; the
// filter has no false negatives, so a dropped tombstone shadowed nothing,
// and a false positive merely keeps one a merge longer. Callers hold t.tmu.
func (t *tier) compactLocked(full bool) (err error) {
	defer func() {
		if err != nil {
			t.compactErrs.Add(1)
		}
	}()
	d := t.d
	inputs, rest := pickCompaction(t.segs.Load().readers, full)
	if len(inputs) == 0 {
		return nil
	}
	start := time.Now()

	iters := make([]segment.Iterator, len(inputs))
	total := uint64(0)
	for i, r := range inputs {
		iters[i] = r.Iter(0, ^uint64(0))
		total += r.Meta().Count
	}
	outSeq := inputs[0].Meta().Seq
	id := t.nextID.Load()
	var outs []segment.Meta
	cleanup := func() {
		for _, o := range outs {
			d.fs.Remove(filepath.Join(d.dir, segment.FileName(o.ID))) //nolint:errcheck
		}
	}
	// One output file's worth of entries is all the merge ever holds.
	bufCap := min(total, compactRunMax)
	ks := make([]uint64, 0, bufCap)
	vs := make([]uint64, 0, bufCap)
	ts := make([]bool, 0, bufCap)
	cut := func() error {
		meta, err := segment.Create(d.fs, d.dir, ks, vs, ts, id, 1, outSeq, t.eps)
		if err != nil {
			return err
		}
		outs = append(outs, meta)
		id++
		ks, vs, ts = ks[:0], vs[:0], ts[:0]
		return nil
	}
	shadows := func(key uint64) bool {
		for _, r := range rest {
			if r.MayContain(key) {
				return true
			}
		}
		return false
	}
	m := segment.NewMerge(iters...)
	for err == nil && m.Next() {
		e := m.Entry()
		if e.Tomb && !shadows(e.Key) {
			continue
		}
		ks = append(ks, e.Key)
		vs = append(vs, e.Val)
		ts = append(ts, e.Tomb)
		if len(ks) == compactRunMax {
			err = cut()
		}
	}
	if err == nil {
		err = m.Err()
	}
	if err == nil && len(ks) > 0 {
		err = cut()
	}
	if err == nil {
		err = d.fs.SyncDir(d.dir)
	}
	if err != nil {
		cleanup()
		return err
	}
	man := &segment.Manifest{
		Gen:        t.gen.Load() + 1,
		FlushedSeq: t.flushedSeq.Load(),
		LiveCount:  t.flushedLive.Load(),
		NextID:     id,
	}
	for _, r := range rest {
		man.Segments = append(man.Segments, r.Meta())
	}
	man.Segments = append(man.Segments, outs...)
	if err := segment.WriteManifest(d.fs, d.dir, man); err != nil {
		cleanup()
		return err
	}
	// Committed. Open the outputs for serving; failure here poisons.
	newReaders := append([]*segment.Reader(nil), rest...)
	for i := range outs {
		r, err := segment.Open(d.fs, filepath.Join(d.dir, segment.FileName(outs[i].ID)), &outs[i])
		if err != nil {
			for _, o := range newReaders[len(rest):] {
				o.Close() //nolint:errcheck // never published
			}
			d.mu.Lock()
			d.poisonLocked(fmt.Errorf("compaction: reopen committed segment: %w", err))
			d.mu.Unlock()
			return err
		}
		newReaders = append(newReaders, r)
	}
	sortNewestFirst(newReaders)
	t.segs.Store(&segset{readers: newReaders})
	// Barrier: wait out every in-flight cold read that may still hold the
	// retired readers, then close and remove them.
	t.segMu.Lock()
	t.segMu.Unlock() //nolint:staticcheck // empty critical section is the point
	for _, r := range inputs {
		r.Close()                                                        //nolint:errcheck
		d.fs.Remove(filepath.Join(d.dir, segment.FileName(r.Meta().ID))) //nolint:errcheck
	}
	t.gen.Store(man.Gen)
	t.nextID.Store(man.NextID)
	t.compactions.Add(1)
	t.lastCompactUS.Store(time.Since(start).Microseconds())
	for _, o := range outs {
		t.compactBytes.Add(uint64(o.Bytes))
	}
	t.gcLocked()
	return nil
}

// ---------------------------------------------------------------------------
// Background flusher

func (t *tier) flusherLoop() {
	defer t.wg.Done()
	for {
		select {
		case <-t.stopCh:
			return
		case <-t.flushCh:
		}
		t.tmu.Lock()
		err := t.flushLocked()
		t.tmu.Unlock()
		if err != nil {
			// Backoff: the trigger condition persists, so the next batch will
			// re-signal; sleeping here avoids a hot retry loop against a full
			// disk.
			select {
			case <-t.stopCh:
				return
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
}

// stop terminates the flusher (idempotent) and waits it out. Must be called
// WITHOUT d.mu held: a flush in progress needs d.mu to finish.
func (t *tier) stop() {
	t.stopOnce.Do(func() { close(t.stopCh) })
	t.wg.Wait()
}

// closeReaders drains in-flight cold reads and closes every segment reader.
// Called by DurableIndex.Close after readsClosed flips.
func (t *tier) closeReaders() {
	t.segMu.Lock()
	defer t.segMu.Unlock()
	for _, r := range t.segs.Load().readers {
		r.Close() //nolint:errcheck
	}
}

// ---------------------------------------------------------------------------
// Bulk load

// bulkLoadTiered rebuilds the tier from sorted keys: one fresh L1 segment
// replaces every existing segment, the memtable and dead set reset, and the
// WAL rotates so the (empty) delta has a clean boundary. Bulk data never
// passes through the WAL; the manifest commit is its durability point, and a
// failure before that commit leaves the previous state fully authoritative.
func (t *tier) bulkLoad(keys, vals []uint64) error {
	if vals != nil && len(vals) != len(keys) {
		return ErrMismatchedValues
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return ErrUnsortedKeys
		}
	}
	if vals == nil {
		vals = keys // identity payload, same as the in-memory BulkLoad
	}
	t.tmu.Lock()
	defer t.tmu.Unlock()
	d := t.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usableLocked(); err != nil {
		return err
	}

	id := t.nextID.Load()
	var segMetas []segment.Meta
	if len(keys) > 0 {
		meta, err := segment.Create(d.fs, d.dir, keys, vals, nil, id, 1, d.commitSeq.Load(), t.eps)
		if err != nil {
			return err
		}
		if err := d.fs.SyncDir(d.dir); err != nil {
			d.fs.Remove(filepath.Join(d.dir, segment.FileName(id))) //nolint:errcheck
			return err
		}
		segMetas = append(segMetas, meta)
		id++
	}
	if err := d.rotateWALLocked(); err != nil {
		if len(segMetas) > 0 {
			d.fs.Remove(filepath.Join(d.dir, segment.FileName(segMetas[0].ID))) //nolint:errcheck
		}
		return err
	}
	man := &segment.Manifest{
		Gen:        t.gen.Load() + 1,
		FlushedSeq: d.commitSeq.Load(),
		LiveCount:  int64(len(keys)),
		NextID:     id,
		Segments:   segMetas,
	}
	if err := segment.WriteManifest(d.fs, d.dir, man); err != nil {
		return err
	}
	var readers []*segment.Reader
	for i := range segMetas {
		r, err := segment.Open(d.fs, filepath.Join(d.dir, segment.FileName(segMetas[i].ID)), &segMetas[i])
		if err != nil {
			d.poisonLocked(fmt.Errorf("bulk load: reopen committed segment: %w", err))
			return d.fail
		}
		readers = append(readers, r)
	}

	// Commit in memory: reset volatile tiers, publish the new segment set,
	// retire every old reader.
	if err := d.ix.BulkLoad(nil, nil); err != nil {
		d.poisonLocked(fmt.Errorf("bulk load reset: %w", err))
		return d.fail
	}
	t.deadMu.Lock()
	t.dead = make(map[uint64]struct{})
	t.deadMu.Unlock()
	old := t.segs.Load()
	t.segs.Store(&segset{readers: readers})
	t.frozen.Store(nil)
	t.bumpVer()
	t.segMu.Lock()
	t.segMu.Unlock() //nolint:staticcheck // reader-retirement barrier
	for _, r := range old.readers {
		r.Close() //nolint:errcheck
	}
	t.gen.Store(man.Gen)
	t.nextID.Store(man.NextID)
	t.flushedSeq.Store(man.FlushedSeq)
	t.flushedLive.Store(man.LiveCount)
	t.liveCount.Store(int64(len(keys)))
	t.gcInlineLocked()
	return nil
}

// gcInlineLocked removes files the current manifest generation has made
// garbage: superseded manifests, unreferenced segment files, legacy
// snapshots fully covered by the flushed watermark, and WAL files removable
// because some later rotation's recorded base commit sequence is at or
// under the watermark — never because a checkpoint "succeeded". Best-effort
// (a crash mid-GC leaves garbage the next pass retries). Callers hold t.tmu
// and d.mu.
func (t *tier) gcInlineLocked() {
	d := t.d
	f := t.flushedSeq.Load()
	gen := t.gen.Load()
	live := make(map[uint64]bool)
	for _, r := range t.segs.Load().readers {
		live[r.Meta().ID] = true
	}
	// The newest rotation whose base is covered by the watermark: every WAL
	// file strictly older than it holds only records ≤ F, all of which the
	// segments now carry.
	var cutoff uint64
	for rot, base := range d.seqMeta {
		if base <= f && rot > cutoff {
			cutoff = rot
		}
	}
	entries, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return
	}
	pruned := false
	for _, e := range entries {
		name := e.Name()
		if s, ok := parseSeq(name, walPrefix, walSuffix); ok && s < cutoff && s != d.seq {
			d.fs.Remove(filepath.Join(d.dir, name)) //nolint:errcheck
			delete(d.seqMeta, s)
			pruned = true
		}
		if s, ok := parseSeq(name, snapPrefix, snapSuffix); ok && d.seqMeta[s] <= f {
			d.fs.Remove(filepath.Join(d.dir, name)) //nolint:errcheck
			delete(d.seqMeta, s)
			pruned = true
		}
		if g, ok := segment.ParseManifestName(name); ok && g < gen {
			d.fs.Remove(filepath.Join(d.dir, name)) //nolint:errcheck
		}
		if id, ok := segment.ParseFileName(name); ok && !live[id] && id < t.nextID.Load() {
			d.fs.Remove(filepath.Join(d.dir, name)) //nolint:errcheck
		}
	}
	if pruned {
		d.writeSeqMetaLocked() //nolint:errcheck // best-effort shrink
	}
}
