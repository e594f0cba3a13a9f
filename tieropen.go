package chameleon

import (
	"fmt"
	"path/filepath"

	"chameleon/internal/faultfs"
	"chameleon/internal/segment"
	"chameleon/internal/wal"
)

// openTieredDir recovers a directory that has a tier manifest. The manifest
// is the base: every referenced segment must open (the commit protocol made
// them durable before the manifest named them — failure here is corruption,
// not a crash signature), and replayChain replays the WAL delta above the
// flushed watermark on top, rebuilding the memtable and dead set. A legacy
// snapshot beside the manifest is what the retired in-place migration from
// legacy to tiered left until its flush covered it: ErrNeedsUpgrade.
func openTieredDir(dir string, opts DirOptions, fsys faultfs.FS, man *segment.Manifest, logs, snaps []fileID) (*DurableIndex, error) {
	if len(snaps) > 0 {
		return nil, fmt.Errorf("chameleon: %s beside a tier manifest is left from an unfinished legacy-to-tiered migration: %w",
			filepath.Join(dir, snapName(snaps[0].rot, snaps[0].base)), ErrNeedsUpgrade)
	}
	// Open every referenced segment strictly: the manifest's Meta doubles as
	// the integrity cross-check.
	readers, err := openSegments(fsys, dir, man.Segments)
	if err != nil {
		return nil, fmt.Errorf("tier recovery: %w", err)
	}

	// Records replay through the commit path's apply into a tier nobody
	// reads yet; its live count starts from the manifest's exact count.
	// Originally-validated operations replayed in commit order from the exact
	// state at the watermark need no re-validation.
	rec := &tier{}
	rec.mem.Store(newMemtable(New(opts.Options)))
	rec.liveCount.Store(man.LiveCount)
	hist := new(fsyncHist)
	log, cur, clock, err := replayChain(fsys, dir, walOptions(opts, fsys, hist), logs, 0, man.FlushedSeq, func(r wal.Record) {
		rec.applyLocked(r) //nolint:errcheck
	})
	if err != nil {
		for _, r := range readers {
			r.Close() //nolint:errcheck
		}
		return nil, err
	}

	// No retrainer: a tier's memtable is maintained only by writer-inline
	// reconstruction (DirOptions.Tiered).
	d := &DurableIndex{fs: fsys, dir: dir, log: log, seq: cur.rot, opts: opts, fsyncHist: hist}
	d.commitSeq.Store(clock)
	d.tier = newTier(d, man, readers, rec.mem.Load(), rec.liveCount.Load())
	return d, nil
}
