package chameleon

import (
	"fmt"
	"path/filepath"
	"sort"

	"chameleon/internal/faultfs"
	"chameleon/internal/segment"
	"chameleon/internal/wal"
)

// ErrTierStateMixed is returned by OpenDir when a tiered directory also
// holds a legacy snapshot whose recorded commit sequence is AHEAD of the
// manifest's flushed watermark. The tiered recovery path replays the WAL
// delta on top of segments only; a newer snapshot would mean some acked
// state lives nowhere the replay looks, so opening must refuse rather than
// silently lose it. (Normal operation never produces this state: snapshots
// are only ever garbage-collected once the watermark covers them.)
var ErrTierStateMixed = fmt.Errorf("chameleon: snapshot newer than tier manifest watermark")

// openTieredDir recovers a directory that has a tier manifest. The manifest
// is the base: every referenced segment must open (the commit protocol made
// them durable before the manifest named them — failure here is corruption,
// not a crash signature), and the WAL delta above the flushed watermark is
// replayed on top. Each wal-<s> file's records carry implicit commit
// sequences base_s+1, base_s+2, ... where base_s is the rotation's recorded
// base in seq.meta (absent ⇒ 0, which is exact for pre-migration logs);
// records at or below the watermark are skipped — they are already inside
// segments — and the rest rebuild the memtable and dead set.
func openTieredDir(dir string, opts DirOptions, fsys faultfs.FS, man *segment.Manifest) (*DurableIndex, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	seqMeta, seqMetaGen := readSeqMeta(fsys, dir)
	var walSeqs []uint64
	for _, e := range entries {
		if s, ok := parseSeq(e.Name(), walPrefix, walSuffix); ok {
			walSeqs = append(walSeqs, s)
		}
		if s, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok && seqMeta[s] > man.FlushedSeq {
			return nil, fmt.Errorf("%w: %s at commit %d, watermark %d",
				ErrTierStateMixed, e.Name(), seqMeta[s], man.FlushedSeq)
		}
	}
	sort.Slice(walSeqs, func(i, j int) bool { return walSeqs[i] < walSeqs[j] }) // oldest first

	// Open every referenced segment strictly: the manifest's Meta doubles as
	// the integrity cross-check.
	readers, err := openSegments(fsys, dir, man.Segments)
	if err != nil {
		return nil, fmt.Errorf("tier recovery: %w", err)
	}
	closeAll := func() {
		for _, r := range readers {
			r.Close() //nolint:errcheck
		}
	}

	// Replay the delta. liveCount starts from the manifest's exact count and
	// moves with every applied record.
	ix := New(opts.Options)
	dead := make(map[uint64]struct{})
	live := man.LiveCount
	commitSeq := man.FlushedSeq
	applyFor := func(base uint64) (func(wal.Record), *uint64) {
		cur := base
		return func(r wal.Record) {
			cur++
			if cur <= man.FlushedSeq {
				return // already folded into segments
			}
			// Originally-validated operations replayed in commit order from
			// the exact state at the watermark need no re-validation.
			switch r.Op {
			case wal.OpInsert:
				ix.inner.Insert(r.Key, r.Val) //nolint:errcheck
				delete(dead, r.Key)
				live++
			case wal.OpDelete:
				dead[r.Key] = struct{}{}
				ix.inner.Delete(r.Key) //nolint:errcheck
				live--
			}
		}, &cur
	}

	liveSeq := uint64(0)
	for _, s := range walSeqs {
		if s > liveSeq {
			liveSeq = s
		}
	}
	for s := range seqMeta {
		if s > liveSeq {
			liveSeq = s // a rotation recorded but its (empty) file lost: never reuse
		}
	}
	var log *wal.Log
	freshLog := false
	liveEmpty := true
	for _, s := range walSeqs {
		base := seqMeta[s]
		apply, cur := applyFor(base)
		if s == liveSeq {
			log, _, err = wal.Open(filepath.Join(dir, walName(s)), walOptions(opts, fsys), apply)
		} else {
			err = replayReadOnly(fsys, filepath.Join(dir, walName(s)), apply)
		}
		if err != nil {
			closeAll()
			return nil, err
		}
		// An EMPTY log never advances the clock: its recorded base can be
		// ahead of the true commit sequence (a snapshot restore pre-creates
		// its successor WAL before the manifest commit adopts the new clock —
		// a crash in between leaves exactly this signature). A log with
		// records always has a truthful base, because rotation records the
		// live clock at the boundary; and everything a truthful empty log's
		// base would prove is already proven by the manifest watermark or by
		// the non-empty logs below it.
		if *cur > base {
			liveEmpty = s != liveSeq
			if *cur > commitSeq {
				commitSeq = *cur
			}
		}
	}
	if log != nil && liveEmpty && seqMeta[liveSeq] != commitSeq {
		// The live log is empty but its recorded base disagrees with the
		// recovered clock (the restore crash window above, or a pre-migration
		// log with no entry). Records appended after this open replay as
		// base+1, base+2, ... on the next recovery, so the base must tell the
		// truth before the log accepts anything.
		seqMeta[liveSeq] = commitSeq
		freshLog = true // reuse the persist-before-returning path below
	}
	if log == nil {
		// No WAL survived (fresh-from-bulk-load directories GC every log
		// before a crash window, or dirents were lost): start a new one at
		// liveSeq+1 with the current commit sequence as its base.
		liveSeq++
		log, _, err = wal.Open(filepath.Join(dir, walName(liveSeq)), walOptions(opts, fsys), nil)
		if err != nil {
			closeAll()
			return nil, err
		}
		seqMeta[liveSeq] = commitSeq
		freshLog = true
	}
	if err := fsys.SyncDir(dir); err != nil {
		log.Close() //nolint:errcheck
		closeAll()
		return nil, err
	}

	// No retrainer: a tier's memtable is maintained only by writer-inline
	// reconstruction (DirOptions.Tiered).
	d := &DurableIndex{
		ix: ix, fs: fsys, dir: dir, log: log, seq: liveSeq, opts: opts,
		space:      make(chan struct{}),
		seqMeta:    seqMeta,
		seqMetaGen: seqMetaGen,
	}
	d.commitSeq.Store(commitSeq)
	d.tier = newTier(d, man, readers, dead, live)
	if freshLog {
		// Persist the fresh log's base so a crash before the first flush
		// still replays it from the right offset; the SyncDir seals the new
		// sidecar generation's directory entry.
		d.mu.Lock()
		err := d.writeSeqMetaLocked()
		if err == nil {
			err = fsys.SyncDir(dir)
		}
		if err != nil {
			d.mu.Unlock()
			d.Close() //nolint:errcheck
			return nil, err
		}
		d.mu.Unlock()
	}
	return d, nil
}

// attachEmptyTier migrates a legacy directory opened with Tiered set: the
// recovered in-memory state stays the memtable, and the first flush moves it
// wholesale into an L0 segment (after which the legacy snapshot is covered
// by the watermark and garbage-collected).
func attachEmptyTier(d *DurableIndex) {
	d.tier = newTier(d, nil, nil, nil, int64(d.ix.Len()))
}
