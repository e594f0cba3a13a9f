package wal

import (
	"errors"
	"fmt"
)

// ErrSeqGap is returned by SeqTracker.Admit when a batch starts beyond the
// next expected commit sequence: records are missing, and applying past a
// hole would silently diverge from the upstream history. The tracker's state
// is unchanged — the caller must re-fetch from NextSeq.
var ErrSeqGap = errors.New("wal: commit-sequence gap")

// SeqTracker makes replicated replay idempotent under re-delivery. A
// follower that reconnects mid-batch may receive records it already applied
// (the upstream resends from the follower's last acknowledged sequence, and
// acknowledgements can be lost); the tracker dedupes those by commit
// sequence, so "apply this batch" is safe to call with any overlap of
// already-applied history — and it refuses gaps, so a batch that skips
// records can never be applied at all.
//
// The zero value expects the stream to start at sequence 1. A follower
// bootstrapped from a snapshot as-of sequence S resumes with
// SeqTracker{Applied: S}.
type SeqTracker struct {
	// Applied is the highest contiguously applied commit sequence.
	Applied uint64
}

// Admit inspects a batch covering commit sequences [firstSeq,
// firstSeq+n-1] and reports how many leading records are duplicates of
// already-applied history (the caller applies recs[skip:]). It errors
// without changing state when the batch leaves a gap after Applied. On
// success the tracker advances to the batch's last sequence, so Admit must
// be called only when the caller will actually apply the non-duplicate
// suffix.
func (t *SeqTracker) Admit(firstSeq uint64, n int) (skip int, err error) {
	if n < 0 {
		return 0, fmt.Errorf("wal: negative batch size %d", n)
	}
	if n == 0 {
		return 0, nil
	}
	next := t.Applied + 1
	if firstSeq > next {
		return 0, fmt.Errorf("%w: have %d, batch starts at %d (missing %d record(s))",
			ErrSeqGap, t.Applied, firstSeq, firstSeq-next)
	}
	last := firstSeq + uint64(n) - 1
	if last <= t.Applied {
		return n, nil // whole batch is re-delivered history
	}
	skip = int(next - firstSeq)
	t.Applied = last
	return skip, nil
}
