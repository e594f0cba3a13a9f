package chameleon

import (
	"fmt"

	"chameleon/internal/faultfs"
	"chameleon/internal/segment"
	"chameleon/internal/wal"
)

// ErrTierStateMixed is returned by OpenDir when a tiered directory also
// holds a legacy snapshot whose base commit sequence is AHEAD of the
// manifest's flushed watermark. The tiered recovery path replays the WAL
// delta on top of segments only; a newer snapshot would mean some acked
// state lives nowhere the replay looks, so opening must refuse rather than
// silently lose it. (Normal operation never produces this state: snapshots
// are only ever garbage-collected once the watermark covers them.)
var ErrTierStateMixed = fmt.Errorf("chameleon: snapshot newer than tier manifest watermark")

// openTieredDir recovers a directory that has a tier manifest. The manifest
// is the base: every referenced segment must open (the commit protocol made
// them durable before the manifest named them — failure here is corruption,
// not a crash signature), and replayChain replays the WAL delta above the
// flushed watermark on top, rebuilding the memtable and dead set.
func openTieredDir(dir string, opts DirOptions, fsys faultfs.FS, man *segment.Manifest, logs, snaps []fileID) (*DurableIndex, error) {
	for _, s := range snaps {
		if s.base > man.FlushedSeq {
			return nil, fmt.Errorf("%w: %s at commit %d, watermark %d",
				ErrTierStateMixed, snapName(s.rot, s.base), s.base, man.FlushedSeq)
		}
	}
	// Open every referenced segment strictly: the manifest's Meta doubles as
	// the integrity cross-check.
	readers, err := openSegments(fsys, dir, man.Segments)
	if err != nil {
		return nil, fmt.Errorf("tier recovery: %w", err)
	}

	// liveCount starts from the manifest's exact count and moves with every
	// replayed record. Originally-validated operations replayed in commit
	// order from the exact state at the watermark need no re-validation.
	ix := New(opts.Options)
	dead := make(map[uint64]struct{})
	live := man.LiveCount
	log, cur, clock, err := replayChain(fsys, dir, opts, logs, 0, man.FlushedSeq, func(r wal.Record) {
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
	})
	if err != nil {
		for _, r := range readers {
			r.Close() //nolint:errcheck
		}
		return nil, err
	}

	// No retrainer: a tier's memtable is maintained only by writer-inline
	// reconstruction (DirOptions.Tiered).
	d := &DurableIndex{ix: ix, fs: fsys, dir: dir, log: log, seq: cur.rot, opts: opts, space: make(chan struct{})}
	d.commitSeq.Store(clock)
	d.tier = newTier(d, man, readers, dead, live)
	return d, nil
}

// attachEmptyTier migrates a legacy directory opened with Tiered set: the
// recovered in-memory state stays the memtable, and the first flush moves it
// wholesale into an L0 segment (after which the legacy snapshot is covered
// by the watermark and garbage-collected).
func attachEmptyTier(d *DurableIndex) {
	d.tier = newTier(d, nil, nil, nil, int64(d.ix.Len()))
}
