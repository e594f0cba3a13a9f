package chameleon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"chameleon/internal/segment"
	"chameleon/internal/wal"
)

// This file is the DurableIndex's replication surface: commit-sequence
// numbers, the primary-side commit hook, the follower-side ordered replay
// path, and consistent snapshot streaming (one sorted run for either
// engine). The wire protocol and the replication state machine live in
// internal/wire and internal/repl; this layer only guarantees that commit
// sequences are monotonic, durable across restarts (every snapshot and WAL
// names the commit sequence it starts at), and that replicated batches
// apply in exactly the order the upstream committed them.

// ErrReplDivergence is returned by ReplicateBatch when a replicated record
// cannot replay cleanly against local state (inserting a key that is already
// present, deleting one that is absent, or an unknown op). The histories have
// forked: applying anyway would silently serve wrong data, so the batch is
// rejected before anything is logged — the local index is unchanged and
// stays readable, but the replication link must fail-stop.
var ErrReplDivergence = errors.New("chameleon: replicated batch diverges from local state")

// CommitSeq reports the number of commits ever durably made through this
// index — the monotonic commit-sequence clock replication is built on. Each
// record takes one sequence and each replace (BulkLoad) takes one; commit k
// of history carries sequence k (1-based). A follower's CommitSeq is
// therefore exactly the highest upstream sequence it has applied: records
// apply 1:1 in commit order, and a replace is crossed by a snapshot
// bootstrap that adopts the upstream's sequence. The value survives restarts
// in the names of the snapshot and WAL files (each carries the commit
// sequence it starts at) plus WAL replay counting.
func (d *DurableIndex) CommitSeq() uint64 { return d.commitSeq.Load() }

// seqWaitChan returns the current broadcast channel for commit-sequence
// advancement. Only a waiter makes one: a commit with nobody waiting has
// nothing to close and nothing to replace.
func (d *DurableIndex) seqWaitChan() chan struct{} {
	d.seqWaitMu.Lock()
	defer d.seqWaitMu.Unlock()
	if d.seqWaitCh == nil {
		d.seqWaitCh = make(chan struct{})
	}
	return d.seqWaitCh
}

// broadcastSeq wakes every WaitSeq waiter by closing the channel they
// wait on, if any made one; the next waiter makes a fresh one (like the
// admission space channel). Called after every commit-sequence advance and
// on any transition that makes further waiting pointless (close, poison):
// a waiter that takes its channel after such a transition sees it on its
// own re-check.
func (d *DurableIndex) broadcastSeq() {
	d.seqWaitMu.Lock()
	if d.seqWaitCh != nil {
		close(d.seqWaitCh)
		d.seqWaitCh = nil
	}
	d.seqWaitMu.Unlock()
}

// advanceCommitSeq moves the commit clock forward by n just-applied records
// and wakes waiters. Callers hold d.mu (commit and replication both advance
// under it, so the clock is monotonic).
func (d *DurableIndex) advanceCommitSeq(n uint64) {
	d.commitSeq.Add(n)
	d.broadcastSeq()
}

// WaitSeq blocks until CommitSeq reaches seq, the context dies, or the
// handle stops being able to advance (closed or poisoned — reported via the
// handle's terminal error rather than a hang). It is the read-your-writes
// primitive: a client holding a commit-sequence token from the primary calls
// WaitSeq(token) on a follower before reading.
func (d *DurableIndex) WaitSeq(ctx context.Context, seq uint64) error {
	for {
		ch := d.seqWaitChan()
		if d.commitSeq.Load() >= seq {
			return nil
		}
		if err := d.Err(); err != nil {
			return err
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// SetCommitHook installs fn to run inside every successful group commit,
// after the batch is durable and applied but before its writers are acked,
// with the batch's records and the commit sequence of the first one. A
// non-nil return from fn is reported to every writer in the batch *instead
// of* nil — the write is durable locally and applied, but the hook's
// condition (in practice: replication acknowledgement) was not met. This is
// the documented exception to the two-state cancellation contract: a write
// failed by the hook has ambiguous fate from the client's perspective and
// must be treated as "may exist".
//
// A replace (BulkLoad) reaches fn too, as a call with the replace's
// sequence and no records, after it is durable. Its return is ignored: a
// replace is acknowledged locally only.
//
// The hook runs under the index's commit lock: it serializes against
// checkpoints and Close, and it must not call back into the index. recs is
// valid only during the call: the next batch reuses its array, so a hook
// that keeps the records must copy them.
func (d *DurableIndex) SetCommitHook(fn func(firstSeq uint64, recs []wal.Record) error) {
	d.mu.Lock()
	d.commitHook = fn
	d.mu.Unlock()
}

// ReplicateBatch is the follower-side write path: it applies records the
// upstream committed as sequences [firstSeq, firstSeq+len(recs)-1], logging
// them through this index's own WAL first so a follower's durability is as
// strong as a primary's. Unlike Insert/Delete it bypasses the group-commit
// queue — replicated history must apply in exactly upstream order, and the
// batch is already formed.
//
// Re-delivery is safe: records at or below the local commit sequence are
// duplicates of applied history and are skipped (the reconnect story — a
// follower re-pulls from its last applied sequence and may receive overlap).
// A batch that starts beyond the next expected sequence is refused with
// wal.ErrSeqGap, and a record that cannot replay cleanly is refused with
// ErrReplDivergence — in both cases nothing is logged or applied, so the
// local index stays consistent and readable while the replication link
// fail-stops.
func (d *DurableIndex) ReplicateBatch(firstSeq uint64, recs []wal.Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usableLocked(); err != nil {
		return err
	}
	tr := wal.SeqTracker{Applied: d.commitSeq.Load()}
	skip, err := tr.Admit(firstSeq, len(recs))
	if err != nil {
		return err
	}
	fresh := recs[skip:]
	if len(fresh) == 0 {
		return nil
	}

	// Validate the whole suffix before logging anything. Replicated records
	// replayed in order against a faithful copy of upstream state can never
	// be rejected — the upstream validated them before logging. A rejection
	// here therefore proves local state is not a faithful copy, and logging
	// first would either materialize the divergence on disk or force a
	// poison; refusing up front keeps the index clean.
	overlay := make(map[uint64]bool, len(fresh))
	for i, r := range fresh {
		seq := firstSeq + uint64(skip) + uint64(i)
		present, known := overlay[r.Key]
		if !known {
			var verr error
			present, verr = d.presentLocked(r.Key)
			if verr != nil {
				// A tiered visibility probe can fail on segment I/O. That is a
				// local fault, not a history fork: report it as itself so the
				// link retries instead of fail-stopping on divergence.
				return fmt.Errorf("replicate validate: %w", verr)
			}
		}
		switch r.Op {
		case wal.OpInsert:
			if present {
				return fmt.Errorf("%w: seq %d inserts key %d which is already present", ErrReplDivergence, seq, r.Key)
			}
		case wal.OpDelete:
			if !present {
				return fmt.Errorf("%w: seq %d deletes key %d which is absent", ErrReplDivergence, seq, r.Key)
			}
		default:
			return fmt.Errorf("%w: seq %d has unknown op %d", ErrReplDivergence, seq, r.Op)
		}
		overlay[r.Key] = r.Op == wal.OpInsert
	}
	_, err = d.logApplyLocked(fresh)
	return err
}

// ErrRestoreBehind is returned by RestoreSnapshot when the snapshot's commit
// sequence is behind the local one. Rewinding a directory is unsafe: local
// WAL files hold records with implicit sequences above the rewound
// watermark, and a crash between the restore's commit and its WAL garbage
// collection would replay them as phantoms on top of the restored state. A
// diverged-ahead follower must be wiped and re-bootstrapped into an empty
// directory instead.
var ErrRestoreBehind = errors.New("chameleon: snapshot is behind local commit sequence")

// SnapshotAt streams a consistent snapshot of the current contents to w and
// reports the commit sequence it is as-of: the bytes written correspond
// exactly to the returned sequence. Used by the primary to bootstrap
// followers that are behind WAL retention. Either engine writes its visible
// contents as one tombstone-free CHAMSEG2 run whose Seq is that sequence —
// the sorted-run format a tier's segments already are — so either engine
// restores either engine's stream. The commit lock covers the capture only
// (the legacy index's pairs here, a tier's sources in tier.snapshotAt); the
// encode runs after it is released.
func (d *DurableIndex) SnapshotAt(w io.Writer) (asOfSeq uint64, n int64, err error) {
	if d.tier != nil {
		return d.tier.snapshotAt(w)
	}
	d.mu.Lock()
	if err := d.usableLocked(); err != nil {
		// Poisoned memory may match no durable state: never ship it.
		d.mu.Unlock()
		return 0, 0, err
	}
	asOfSeq, live := d.commitSeq.Load(), d.ix.Len()
	keys, vals := d.ix.inner.AppendPairs(make([]uint64, 0, live), make([]uint64, 0, live))
	d.mu.Unlock()
	return writeSnapshotRun(w, keys, vals, asOfSeq)
}

// writeSnapshotRun encodes a snapshot stream: the sorted pairs as one
// tombstone-free CHAMSEG2 run whose watermark is asOfSeq.
func writeSnapshotRun(w io.Writer, keys, vals []uint64, asOfSeq uint64) (uint64, int64, error) {
	meta, err := segment.Write(w, keys, vals, nil, 0, 1, asOfSeq, 0)
	if err != nil {
		return 0, 0, err
	}
	return asOfSeq, meta.Bytes, nil
}

// readSnapshotRun decodes a snapshot stream: one tombstone-free CHAMSEG2
// run whose watermark is asOfSeq. The segment's own CRC and key-order
// checks guard it.
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

// RestoreSnapshot replaces the index's contents with a snapshot streamed
// from an upstream of either engine (the bootstrap half of SnapshotAt) and
// adopts asOfSeq as the local commit sequence. It decodes the run before
// taking any lock, so a slow or corrupt stream never stalls commits, then
// makes the replace BulkLoad makes (replaceLocked: legacy, a checkpoint;
// tiered, one fresh L1 segment behind a manifest commit), durable together
// with its sequence. A run behind the local clock fails with
// ErrRestoreBehind. On that or a decode failure the local state is
// unchanged; on a durability failure after the in-memory install the handle
// is poisoned, exactly like BulkLoad — the restored state would otherwise
// have no durable counterpart.
func (d *DurableIndex) RestoreSnapshot(r io.Reader, asOfSeq uint64) error {
	keys, vals, err := readSnapshotRun(r, asOfSeq)
	if err != nil {
		return err
	}
	if d.tier != nil {
		return d.tier.restore(keys, vals, asOfSeq)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.replaceLocked(keys, vals, asOfSeq)
}
