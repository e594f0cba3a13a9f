package chameleon

import (
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/baselines/bptree"
	"chameleon/internal/faultfs"
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
// tombstones nothing older needs, and a replace (bulk load, snapshot restore)
// swaps everything for one fresh run. The manifest is the commit point for
// all three, and after it they share one tail (install); the WAL is
// truncated only past the flushed watermark, so every crash point leaves
// either the old manifest + a WAL that still covers the delta, or the new
// manifest with the delta inside segments.
//
// Read path (newest wins): memtable → dead set (tombstones awaiting flush) →
// frozen run (the memtable a flush in progress swapped out) → segments
// newest-to-oldest, pruned by min/max and each run's membership filter,
// resolved by one block read. A memtable hit is lock-free; a miss re-probes
// the memtable and probes the dead set under one deadMu read hold (see get),
// so a key moving between the two is seen on at least one side and never
// resurrected from a segment.
//
// Lock order: t.tmu → d.mu → d.qmu → deadMu; deadMu is held only across
// in-memory probes, edits and the memtable swap, never across I/O. t.segMu
// is independent and nests inside anything: readers hold segMu.RLock across
// segment I/O; retire takes segMu.Lock only as an empty barrier (Lock;
// Unlock) after a new segment set is published, so retired readers are
// closed only after every in-flight cold read has drained. Nobody acquires
// other locks while holding segMu.
type tier struct {
	d *DurableIndex

	// tmu serializes flush, compaction, replace, and tier close — the
	// operations that advance the manifest generation. It is taken before
	// d.mu, never after.
	tmu sync.Mutex

	// mem is the live memtable. Writes to it hold d.mu, and dead-set writes
	// and the swap (swapMemtableLocked) deadMu too; point reads take deadMu
	// shared (get), and code under d.mu reads mem without deadMu.
	deadMu sync.RWMutex
	mem    atomic.Pointer[memtable]

	// frozen is the memtable the last freeze swapped out, read-only and not
	// yet durable as a segment; non-nil exactly while a flush is in progress
	// (or has failed and awaits retry). Readers consult it between the
	// memtable and the segments.
	frozen atomic.Pointer[memtable]

	// segs is the published segment set, newest first. Never nil.
	segMu sync.RWMutex // reader-retirement barrier; see package comment
	segs  atomic.Pointer[segset]

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
	lastFlushErrv atomic.Value  // errBox
}

// memtable is the paper's index over the hot writes, paired with the dead
// set: the deleted keys not yet flushed, one tombstone per key in key order
// (so a RANGE takes only its window's). A delete of a key that (maybe) lives
// in a segment cannot just remove it from the index — a cold read would
// fall through and resurrect it. Invariant: a key is never in both ix and
// dead, except inside applyLocked, where ix wins. seq and live are the
// commit-sequence watermark and the exact live count at the freeze that
// swapped the memtable out.
type memtable struct {
	ix   *Index
	dead *bptree.Tree
	seq  uint64
	live int64
}

func newMemtable(ix *Index) *memtable {
	return &memtable{ix: ix, dead: bptree.New(0)}
}

// window appends m's share of [lo, hi] to srcs as two ascending merge
// sources, its pairs, then its tombstones (so a collision keeps the pair);
// a nil m (no frozen run) adds none. Callers hold d.mu for the live
// memtable; a frozen one needs no lock.
func (m *memtable) window(lo, hi uint64, srcs []segment.Iterator) []segment.Iterator {
	if m == nil {
		return srcs
	}
	var pairs, tombs []segment.Entry
	m.ix.Range(lo, hi, func(k, v uint64) bool {
		pairs = append(pairs, segment.Entry{Key: k, Val: v})
		return true
	})
	m.dead.Range(lo, hi, func(k, _ uint64) bool {
		tombs = append(tombs, segment.Entry{Key: k, Tomb: true})
		return true
	})
	return append(srcs, segment.NewSliceIter(pairs), segment.NewSliceIter(tombs))
}

// run returns a frozen memtable as one ascending run, tombstones flagged, in
// the form segment.Create takes; a collision keeps the pair, as in window.
func (m *memtable) run() (keys, vals []uint64, tombs []bool) {
	dead := make([]uint64, 0, m.dead.Len())
	m.dead.Range(0, math.MaxUint64, func(k, _ uint64) bool { dead = append(dead, k); return true })
	n := m.ix.Len() + len(dead)
	keys, vals, tombs = make([]uint64, 0, n), make([]uint64, 0, n), make([]bool, 0, n)
	add := func(k, v uint64, tomb bool) {
		keys, vals, tombs = append(keys, k), append(vals, v), append(tombs, tomb)
	}
	m.ix.Range(0, math.MaxUint64, func(k, v uint64) bool {
		for ; len(dead) > 0 && dead[0] <= k; dead = dead[1:] {
			if dead[0] < k {
				add(dead[0], 0, true)
			}
		}
		add(k, v, false)
		return true
	})
	for _, k := range dead {
		add(k, 0, true)
	}
	return keys, vals, tombs
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

// ErrNotTiered is returned by Compact on a directory opened in legacy
// snapshot mode.
var ErrNotTiered = errors.New("chameleon: directory is not in tiered mode")

func newTier(d *DurableIndex, man *segment.Manifest, readers []*segment.Reader, mem *memtable, live int64) *tier {
	t := &tier{
		d:         d,
		flushCh:   make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
		memBytes:  d.opts.MemtableBytes,
		compactL0: d.opts.CompactL0,
	}
	if t.memBytes <= 0 {
		t.memBytes = defaultMemtableBytes
	}
	if t.compactL0 <= 0 {
		t.compactL0 = defaultCompactL0
	}
	t.mem.Store(mem)
	sortNewestFirst(readers)
	t.segs.Store(&segset{readers: readers})
	if man != nil {
		t.adopt(man)
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

// getHoldFailpoint, when non-nil, runs inside get's deadMu hold, after the
// memtable miss and before the dead-set probe. Tests use it to start a
// write in that window.
var getHoldFailpoint func()

// get resolves key across every tier: the one point read behind Lookup,
// LookupBatch and commit validation (presentLocked). A memtable hit returns
// lock-free. A miss takes deadMu shared, probes the memtable again and then
// its dead set, and loads the frozen run. Every dead-set change and memtable
// swap holds deadMu exclusively, and applyLocked inserts into the memtable
// before it clears a tombstone and adds a tombstone before it deletes from
// the memtable, so under the hold a key in motion is in the memtable or in
// the dead set when the reader looks: a miss in both is authoritative. The
// frozen run (probed as a memtable is) and the segments are then asked with
// no lock held: freeze publishes the frozen run before it swaps the memtable
// out, and flush drops it only after the segment that holds it is
// published. err is a segment read failure; the caller decides whether it
// counts in ColdReadErrs.
func (t *tier) get(key uint64) (val uint64, ok bool, err error) {
	if v, hit := t.mem.Load().ix.Lookup(key); hit {
		return v, true, nil
	}
	t.deadMu.RLock()
	m := t.mem.Load()
	v, hit := m.ix.Lookup(key)
	dead := false
	if !hit {
		if getHoldFailpoint != nil {
			getHoldFailpoint()
		}
		_, dead = m.dead.Lookup(key)
	}
	fr := t.frozen.Load()
	t.deadMu.RUnlock()
	if !hit && !dead && fr != nil {
		if v, hit = fr.ix.Lookup(key); !hit {
			_, dead = fr.dead.Lookup(key)
		}
	}
	if hit || dead {
		return v, hit, nil
	}
	v, tomb, hit, err := t.segGet(key)
	return v, hit && !tomb, err
}

// segGet probes the published segments newest-to-oldest; a run whose
// min/max or membership filter rules key out costs no I/O. ok means some
// segment is authoritative for key (value or tombstone).
func (t *tier) segGet(key uint64) (val uint64, tomb, ok bool, err error) {
	t.segMu.RLock()
	defer t.segMu.RUnlock()
	for _, r := range t.segs.Load().readers {
		v, tb, hit, _, gerr := r.Get(key)
		if gerr != nil {
			return 0, false, false, gerr
		}
		if hit {
			t.coldReads.Add(1)
			return v, tb, true, nil
		}
	}
	return 0, false, false, nil
}

// rangeMerged streams [lo, hi] ascending across every tier. The memtable's
// window and the frozen run are captured under d.mu — capture only, not the
// scan, nor the read-only frozen run's window — then the k-way merge runs
// against the immutable segments under segMu.RLock. The locks are NOT nested
// (the rule that keeps the reader-retirement barrier deadlock-free): the
// segment set consulted may be a flush or compaction ahead of the capture,
// which is harmless because those operations preserve logical content at or
// below the watermark, and any re-surfaced duplicate of captured data is
// shadowed by the capture's higher merge priority.
func (t *tier) rangeMerged(lo, hi uint64, fn func(key, val uint64) bool) {
	if hi < lo {
		return
	}
	t.d.mu.Lock()
	srcs, fr := t.mem.Load().window(lo, hi, nil), t.frozen.Load()
	t.d.mu.Unlock()
	srcs = fr.window(lo, hi, srcs)

	t.segMu.RLock()
	defer t.segMu.RUnlock()
	if err := mergeRange(srcs, t.segs.Load(), lo, hi, fn); err != nil {
		t.coldErrs.Add(1)
	}
}

// mergeRange streams the visible pairs of [lo, hi] ascending from memtable
// windows (newest first) over the segment set, newest wins, tombstones
// dropped, until fn returns false. Callers hold segMu.RLock, which keeps
// set's readers open.
func mergeRange(sources []segment.Iterator, set *segset, lo, hi uint64, fn func(key, val uint64) bool) error {
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
			return nil
		}
	}
	return m.Err()
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
	_, ok, err := d.tier.get(key)
	return ok, err
}

// applyRecordLocked applies one validated, logged record to the in-memory
// state. Callers hold d.mu.
func (d *DurableIndex) applyRecordLocked(r wal.Record) error {
	if d.tier != nil {
		return d.tier.applyLocked(r)
	}
	switch r.Op {
	case wal.OpInsert:
		return d.ix.Insert(r.Key, r.Val)
	case wal.OpDelete:
		return d.ix.Delete(r.Key)
	}
	return nil
}

// applyLocked applies one logged record to the memtable, its dead set and
// the live count: the one tier apply for commit and for recovery. Its order
// is what makes get's miss under deadMu authoritative: a delete adds the
// dead-set tombstone BEFORE removing the key from the memtable, and an
// insert lands in the memtable BEFORE clearing a tombstone, so a key is
// never absent from both while it moves. Callers hold d.mu, or own the tier
// alone (recovery).
func (t *tier) applyLocked(r wal.Record) error {
	m := t.mem.Load()
	switch r.Op {
	case wal.OpInsert:
		if err := m.ix.Insert(r.Key, r.Val); err != nil {
			return err
		}
		// Most inserts are of fresh keys: probe before paying for a delete.
		if _, ok := m.dead.Lookup(r.Key); ok {
			t.deadMu.Lock()
			m.dead.Delete(r.Key) //nolint:errcheck // present: just looked up
			t.deadMu.Unlock()
		}
		t.liveCount.Add(1)
	case wal.OpDelete:
		t.deadMu.Lock()
		m.dead.Insert(r.Key, 0) //nolint:errcheck // absent: the key was visible
		t.deadMu.Unlock()
		// The key may live only in frozen/segment tiers; a memtable miss is
		// expected then — the dead-set tombstone above is what shadows it.
		m.ix.Delete(r.Key) //nolint:errcheck
		t.liveCount.Add(-1)
	}
	return nil
}

// overBudgetLocked reports whether the memtable plus pending tombstones
// have reached the configured budget. Callers hold d.mu.
func (t *tier) overBudgetLocked() bool {
	m := t.mem.Load()
	return int64(m.ix.Len()+m.dead.Len())*memtableEntryBytes >= t.memBytes
}

// maybeSignalFlush nudges the background flusher when the memtable plus
// pending tombstones cross the configured budget. Callers hold d.mu.
func (t *tier) maybeSignalFlush() {
	if !t.overBudgetLocked() {
		return
	}
	select {
	case t.flushCh <- struct{}{}:
	default:
	}
}

// ---------------------------------------------------------------------------
// Commit pieces: the steps flush, compaction and replace share

// successorWALLocked creates wal-<seq+1>-<base>, leaving the live log alone:
// the old log stays live and authoritative until the caller's commit point
// has passed and swapWALLocked makes the new one live, and abort removes the
// file. A stray empty successor left by a crash is harmless — an empty log
// never advances the recovered commit clock (replayChain). Callers hold
// d.mu.
func (d *DurableIndex) successorWALLocked(base uint64) (next *wal.Log, abort func(), err error) {
	path := filepath.Join(d.dir, walName(d.seq+1, base))
	next, _, err = wal.Open(path, walOptions(d.opts, d.fs, d.fsyncHist), nil)
	if err != nil {
		return nil, nil, err
	}
	return next, func() {
		next.Close()      //nolint:errcheck
		d.fs.Remove(path) //nolint:errcheck
	}, nil
}

// swapWALLocked makes next, from successorWALLocked, the live log. A fresh,
// empty log clears a wedged-WAL degradation. The old log has nothing left
// to write: freeze flushed it, and a checkpoint's snapshot or a replace's
// manifest holds every record it has. Callers hold d.mu.
func (d *DurableIndex) swapWALLocked(next *wal.Log) {
	if d.log != nil {
		d.log.Discard(next) //nolint:errcheck
	}
	d.log = next
	d.seq++
	d.degraded.Store(false)
	d.walErrv.Store(errBox{})
}

// swapMemtableLocked swaps in an empty memtable: under deadMu, so a hold in
// get sees one memtable, and under qmu, so it starts paused if the write
// queue has paused maintenance (updateRetrainPauseLocked). Callers hold d.mu.
func (t *tier) swapMemtableLocked() {
	d := t.d
	m := newMemtable(New(d.opts.Options))
	d.qmu.Lock()
	if d.retrainPaused.Load() {
		m.ix.PauseRetrainer()
	}
	t.deadMu.Lock()
	t.mem.Store(m)
	t.deadMu.Unlock()
	d.qmu.Unlock()
}

// openSegments opens the files metas names, each checked strictly against
// its recorded Meta. On failure it closes what it opened.
func openSegments(fsys faultfs.FS, dir string, metas []segment.Meta) ([]*segment.Reader, error) {
	readers := make([]*segment.Reader, 0, len(metas))
	for i := range metas {
		r, err := segment.Open(fsys, filepath.Join(dir, segment.FileName(metas[i].ID)), &metas[i])
		if err != nil {
			for _, o := range readers {
				o.Close() //nolint:errcheck // never published
			}
			return nil, fmt.Errorf("%s: %w", segment.FileName(metas[i].ID), err)
		}
		readers = append(readers, r)
	}
	return readers, nil
}

// install is the tail every manifest commit shares: it opens the files in
// add, publishes them with keep as the new segment set, retires drop, and
// adopts man's counters. If a file fails to open nothing is published, and
// the caller must poison the handle: the manifest is committed, so memory
// can no longer match disk. Callers hold t.tmu.
func (t *tier) install(man *segment.Manifest, add []segment.Meta, keep, drop []*segment.Reader) error {
	readers, err := openSegments(t.d.fs, t.d.dir, add)
	if err != nil {
		return fmt.Errorf("reopen committed segment: %w", err)
	}
	readers = append(readers, keep...)
	sortNewestFirst(readers)
	t.segs.Store(&segset{readers: readers})
	t.retire(drop)
	t.adopt(man)
	return nil
}

// retire closes readers that have left the published set, after an empty
// segMu critical section has waited out every in-flight cold read that may
// still hold them. Their files are gcInlineLocked's to remove.
func (t *tier) retire(readers []*segment.Reader) {
	if len(readers) == 0 {
		return
	}
	t.segMu.Lock()
	t.segMu.Unlock() //nolint:staticcheck // empty critical section is the point
	for _, r := range readers {
		r.Close() //nolint:errcheck
	}
}

// adopt mirrors a committed manifest's counters.
func (t *tier) adopt(man *segment.Manifest) {
	t.gen.Store(man.Gen)
	t.nextID.Store(man.NextID)
	t.flushedSeq.Store(man.FlushedSeq)
	t.flushedLive.Store(man.LiveCount)
}

// ---------------------------------------------------------------------------
// Flush

// freeze rotates the WAL so the delta has a clean log boundary, publishes
// the memtable as the frozen run at the current commit sequence, and swaps
// in an empty one: it copies nothing. Returns (nil, nil) when there is
// nothing to flush. Callers hold t.tmu.
func (t *tier) freeze() (*memtable, error) {
	d := t.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usableLocked(); err != nil {
		return nil, err
	}
	m := t.mem.Load()
	if m.ix.Len()+m.dead.Len() == 0 {
		return nil, nil
	}
	// The old log's pending frames reach its file before the successor
	// exists: until the manifest commits, recovery replays the old log and
	// then the new one, and a tail left in the old log's buffer would come
	// back as a hole under the new log's frames. The successor's dirent and
	// base must be durable before it takes records. On failure nothing is
	// frozen and the old log stays live.
	if err := d.log.Flush(); err != nil {
		return nil, err
	}
	next, abort, err := d.successorWALLocked(d.commitSeq.Load())
	if err != nil {
		return nil, err
	}
	if err := d.fs.SyncDir(d.dir); err != nil {
		abort()
		return nil, err
	}
	d.swapWALLocked(next)
	m.seq, m.live = d.commitSeq.Load(), t.liveCount.Load()
	t.frozen.Store(m) // before the swap: a reader missing the fresh memtable finds m here
	t.swapMemtableLocked()
	return m, nil
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
func (t *tier) flushLocked() (err error) {
	defer func() {
		if err != nil {
			t.flushErrs.Add(1)
			t.lastFlushErrv.Store(errBox{err})
		}
	}()
	d := t.d
	fr := t.frozen.Load()
	if fr == nil {
		if fr, err = t.freeze(); fr == nil {
			return err // nil: nothing to flush
		}
	}
	start := time.Now()
	id := t.nextID.Load()
	keys, vals, tombs := fr.run()
	meta, err := segment.Create(d.fs, d.dir, keys, vals, tombs, id, 0, fr.seq, 0)
	if err == nil {
		// Seal the segment's directory entry before the manifest that
		// references it can be written.
		err = d.fs.SyncDir(d.dir)
	}
	if err != nil {
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
		return err
	}
	if err := t.install(man, []segment.Meta{meta}, old.readers, nil); err != nil {
		d.mu.Lock()
		d.poisonLocked(fmt.Errorf("flush: %w", err))
		d.mu.Unlock()
		return err
	}
	t.frozen.Store(nil) // after install: a reader missing frozen finds the segment
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
// commit swaps inputs for outputs (install retires the inputs; the GC pass
// after it removes their files).
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
		meta, err := segment.Create(d.fs, d.dir, ks, vs, ts, id, 1, outSeq, 0)
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
	if err := t.install(man, outs, rest, inputs); err != nil {
		d.mu.Lock()
		d.poisonLocked(fmt.Errorf("compaction: %w", err))
		d.mu.Unlock()
		return err
	}
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
		var err error
		if t.flushDue() {
			err = t.flushLocked()
		}
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

// flushDue re-checks a flush signal against the state it signalled: a
// commit that lands between the flusher's wake-up and its freeze leaves a
// token for keys that flush already took, and acting on it would write a
// segment of the few keys written since. A failed flush's frozen run is
// always due: the token is its retry. Callers hold t.tmu.
func (t *tier) flushDue() bool {
	if t.frozen.Load() != nil {
		return true
	}
	t.d.mu.Lock()
	defer t.d.mu.Unlock()
	return t.overBudgetLocked()
}

// stop terminates the flusher (idempotent) and waits it out. Must be called
// WITHOUT d.mu held: a flush in progress needs d.mu to finish.
func (t *tier) stop() {
	t.stopOnce.Do(func() { close(t.stopCh) })
	t.wg.Wait()
}

// ---------------------------------------------------------------------------
// Replace and snapshot: bulk load, snapshot stream and snapshot restore

// bulkLoad rebuilds the tier from sorted keys. It is a replace, and so one
// commit: the manifest commit is its durability point (bulk data never
// passes through the WAL), and it lands at the next commit sequence.
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
	t.d.mu.Lock()
	defer t.d.mu.Unlock()
	if err := t.replaceLocked(keys, vals, t.d.commitSeq.Load()+1); err != nil {
		return err
	}
	t.d.replaceHookLocked()
	return nil
}

// snapshotAt writes the tier's visible contents, as of the commit sequence
// it returns, to w as one CHAMSEG2 run. d.mu covers the capture only: the
// memtable, the frozen run and the segment set are taken together under it
// (the allowed d.mu → segMu.RLock order), so no flush can publish a later
// memtable between them and the run is exact as of that sequence. The
// read-only frozen run's window, the merge and the encode run after d.mu is
// released, with segMu.RLock keeping the captured set's readers open.
func (t *tier) snapshotAt(w io.Writer) (asOf uint64, n int64, err error) {
	d := t.d
	d.mu.Lock()
	if err := d.usableLocked(); err != nil {
		// A poisoned index still serves reads, but its memory may not match
		// any durable state — shipping it to a follower would replicate the
		// divergence.
		d.mu.Unlock()
		return 0, 0, err
	}
	asOf, live := d.commitSeq.Load(), t.liveCount.Load()
	srcs, fr := t.mem.Load().window(0, math.MaxUint64, nil), t.frozen.Load()
	t.segMu.RLock()
	set := t.segs.Load()
	d.mu.Unlock()
	srcs = fr.window(0, math.MaxUint64, srcs)

	keys := make([]uint64, 0, live)
	vals := make([]uint64, 0, live)
	err = mergeRange(srcs, set, 0, math.MaxUint64, func(k, v uint64) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})
	t.segMu.RUnlock()
	if err != nil {
		return 0, 0, err
	}
	if int64(len(keys)) != live {
		return 0, 0, fmt.Errorf("chameleon: snapshot merged %d live keys, live count says %d", len(keys), live)
	}
	return writeSnapshotRun(w, keys, vals, asOf)
}

// restore is the receiving half of snapshot bootstrap: a replace as of the
// snapshot's commit sequence.
func (t *tier) restore(keys, vals []uint64, asOfSeq uint64) error {
	t.tmu.Lock()
	defer t.tmu.Unlock()
	t.d.mu.Lock()
	defer t.d.mu.Unlock()
	return t.replaceLocked(keys, vals, asOfSeq)
}

// replaceLocked replaces the tier's entire contents with the sorted run
// (keys, vals) as of asOfSeq, which becomes the local commit sequence.
//
// Commit protocol (the manifest is the commit point, same as flush):
//
//  1. Write the run as one L1 segment and seal its directory entry.
//  2. Create the successor WAL file, named with its base (= asOfSeq) —
//     WITHOUT swapping the live log (successorWALLocked). Until step 3
//     commits, the old log stays live and every acked write keeps its
//     durable home.
//  3. WriteManifest (FlushedSeq = asOfSeq) — its SyncDir seals the WAL
//     dirent together with the commit.
//  4. install the new segment set, retiring every old reader; swap the live
//     log, reset the volatile tiers, adopt asOfSeq, and garbage-collect the
//     previous state.
//
// A failure before step 3 aborts cleanly: the old state stays fully
// authoritative and no new file is left behind. A failure after it poisons
// — memory could no longer match the committed manifest. Callers hold t.tmu
// and d.mu.
func (t *tier) replaceLocked(keys, vals []uint64, asOfSeq uint64) error {
	d := t.d
	if err := d.usableLocked(); err != nil {
		return err
	}
	if asOfSeq < d.commitSeq.Load() {
		return fmt.Errorf("%w: snapshot at %d, local at %d", ErrRestoreBehind, asOfSeq, d.commitSeq.Load())
	}

	id := t.nextID.Load()
	var metas []segment.Meta
	removeSeg := func() {
		for _, m := range metas {
			d.fs.Remove(filepath.Join(d.dir, segment.FileName(m.ID))) //nolint:errcheck
		}
	}
	if len(keys) > 0 {
		meta, err := segment.Create(d.fs, d.dir, keys, vals, nil, id, 1, asOfSeq, 0)
		if err != nil {
			return err
		}
		metas = append(metas, meta)
		id++
		if err := d.fs.SyncDir(d.dir); err != nil {
			removeSeg()
			return err
		}
	}
	next, abortWAL, err := d.successorWALLocked(asOfSeq)
	if err != nil {
		removeSeg()
		return err
	}
	man := &segment.Manifest{
		Gen:        t.gen.Load() + 1,
		FlushedSeq: asOfSeq,
		LiveCount:  int64(len(keys)),
		NextID:     id,
		Segments:   metas,
	}
	if err := segment.WriteManifest(d.fs, d.dir, man); err != nil {
		abortWAL()
		removeSeg()
		return err
	}
	if err := t.install(man, metas, nil, t.segs.Load().readers); err != nil {
		next.Close() //nolint:errcheck
		d.poisonLocked(fmt.Errorf("replace: %w", err))
		return d.fail
	}
	// Drop the frozen run before the memtable and dead set that shadow it
	// are reset: a reader that misses both emptied tiers must not find a
	// value they had deleted or replaced.
	t.frozen.Store(nil)
	d.swapWALLocked(next)
	t.swapMemtableLocked()
	t.liveCount.Store(int64(len(keys)))
	d.commitSeq.Store(asOfSeq)
	d.broadcastSeq()
	t.gcInlineLocked()
	return nil
}

// gcInlineLocked removes files the current manifest generation has made
// garbage: superseded manifests, unreferenced segment files, and — once the
// flushed watermark covers the live log's base — every other WAL, since
// they hold only commits up to that base, all of which the segments now
// carry. WALs go because the watermark covers them, never because a
// checkpoint "succeeded"; and only the live log's base decides, because a
// stray successor an abort failed to remove names a base no record ever
// had. Best-effort (a crash mid-GC leaves garbage the next pass retries).
// Callers hold t.tmu and d.mu.
func (t *tier) gcInlineLocked() {
	d := t.d
	f := t.flushedSeq.Load()
	gen := t.gen.Load()
	live := make(map[uint64]bool)
	for _, r := range t.segs.Load().readers {
		live[r.Meta().ID] = true
	}
	liveLog := filepath.Base(d.log.Path())
	cur, _ := parseName(liveLog, walPrefix, walSuffix)
	entries, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		_, isWAL := parseName(name, walPrefix, walSuffix)
		g, isMan := segment.ParseManifestName(name)
		id, isSeg := segment.ParseFileName(name)
		if (isWAL && name != liveLog && cur.base <= f) || (isMan && g < gen) ||
			(isSeg && !live[id] && id < t.nextID.Load()) {
			d.fs.Remove(filepath.Join(d.dir, name)) //nolint:errcheck
		}
	}
}
