package chameleon

import (
	"fmt"
	"io"
	"math"

	"chameleon/internal/segment"
)

// Replication bootstrap for tiered directories. A legacy snapshot stream
// (CHAMSNP3, core.WriteTo) carries the learned structure: tree shape, gates
// and leaf geometry, with leaf slots re-placed on load. A tiered node ships
// its visible contents as one tombstone-free CHAMSEG2 run — the sorted-run
// format its segments already are — whose Seq is the commit sequence the
// snapshot is exact as of. The segment's own CRC and key-order checks guard
// the stream; only a tiered receiver restores it, landing the run through
// the tier's one replace protocol (tier.replaceLocked, the same commit
// BulkLoad makes).

// ErrRestoreBehind is returned by RestoreSnapshot on a tiered directory when
// the snapshot's commit sequence is behind the local one. Rewinding a tiered
// directory is unsafe: local WAL files hold records with implicit sequences
// above the rewound watermark, and a crash between the restore's manifest
// commit and its WAL garbage collection would replay them as phantoms on top
// of the restored state. A diverged-ahead follower must be wiped and
// re-bootstrapped into an empty directory instead.
var ErrRestoreBehind = fmt.Errorf("chameleon: snapshot is behind local commit sequence")

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
	meta, err := segment.Write(w, keys, vals, nil, 0, 1, asOf, 0)
	if err != nil {
		return 0, 0, err
	}
	return asOf, meta.Bytes, nil
}

// readSnapshotRun decodes a tiered snapshot stream: one tombstone-free
// CHAMSEG2 run whose watermark is asOfSeq.
func readSnapshotRun(r io.Reader, asOfSeq uint64) (keys, vals []uint64, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	sr, err := segment.OpenBytes(data, nil)
	if err != nil {
		return nil, nil, err
	}
	defer sr.Close() //nolint:errcheck
	m := sr.Meta()
	if m.Live != m.Count || m.Seq != asOfSeq {
		return nil, nil, fmt.Errorf("chameleon: snapshot run at seq %d holds %d tombstones, want seq %d and none",
			m.Seq, m.Count-m.Live, asOfSeq)
	}
	keys = make([]uint64, 0, m.Count)
	vals = make([]uint64, 0, m.Count)
	it := sr.Iter(0, math.MaxUint64)
	for it.Next() {
		e := it.Entry()
		keys = append(keys, e.Key)
		vals = append(vals, e.Val)
	}
	return keys, vals, it.Err()
}
