package chameleon

import (
	"errors"
	"sync/atomic"
	"time"
)

// HealthState is the durable index's operating state — the degraded-read-only
// state machine of DESIGN.md §9.
//
//	     queue full → shed/block     disk full (retryable)
//	┌────────── ok ────────────────────────→ degraded ──┐
//	│            ↑   space freed / checkpoint rotation   │
//	│            └───────────────────────────────────────┘
//	│ apply-after-durable-log failure,
//	│ commit-point fsync failure                Close()
//	└──────────→ poisoned ──────────┐      (any state) ──→ closed
//	              reads still served┘
//
// ok: writes and reads flow. degraded: the WAL cannot currently accept
// appends (disk full or a sticky WAL error) but memory and disk have not
// diverged — reads serve normally, writes fail cleanly and may succeed again
// (freed space, or a checkpoint rotating in a fresh log). poisoned: memory
// and disk may disagree; writes are refused forever, reads keep serving the
// in-memory state. closed: the handle is released; reads return zero values.
type HealthState int

const (
	// HealthOK means writes and reads both flow normally.
	HealthOK HealthState = iota
	// HealthDegraded means reads are served but the WAL is currently
	// rejecting appends (disk full, or a sticky WAL I/O error). The in-memory
	// index matches the durable state; writes may succeed again without
	// reopening.
	HealthDegraded
	// HealthPoisoned means in-memory and on-disk state may diverge: writes
	// are permanently refused, reads keep serving memory. Discard the handle
	// and re-OpenDir to recover the durable state.
	HealthPoisoned
	// HealthClosed means Close was called.
	HealthClosed
)

// String renders the state for logs and dashboards.
func (s HealthState) String() string {
	switch s {
	case HealthOK:
		return "ok"
	case HealthDegraded:
		return "degraded-read-only"
	case HealthPoisoned:
		return "poisoned"
	case HealthClosed:
		return "closed"
	}
	return "unknown"
}

// FsyncBucketBounds are the upper bounds (exclusive) of the commit-latency
// histogram in Health.FsyncLatency; the last histogram slot counts
// everything at or above the final bound.
var FsyncBucketBounds = [...]time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// Health is a point-in-time snapshot of the durable index's overload and
// fault state: the coarse state machine plus the counters an operator alarms
// on. All counters are cumulative since OpenDir.
type Health struct {
	// State is the coarse operating state; Err is the explanatory error for
	// any state other than HealthOK (the sticky poison cause, the last WAL
	// failure, or ErrIndexClosed).
	State HealthState
	Err   error

	// QueueDepth is the number of admitted-but-not-yet-committed mutations
	// (including the batch currently being committed); QueueBytes is their
	// WAL footprint; QueueHighWater is the deepest the queue has ever been.
	QueueDepth     int
	QueueBytes     int64
	QueueHighWater int

	// ShedOps counts mutations rejected with ErrOverloaded at admission;
	// CancelledOps counts mutations that returned ctx.Err() before reaching a
	// committing batch. Neither was ever logged or applied.
	ShedOps      uint64
	CancelledOps uint64

	// Batches counts group commits that reached the WAL durably; BatchedOps
	// is the total mutations they carried (BatchedOps/Batches is the mean
	// batch size, the group-commit amortization factor); MaxBatch is the
	// largest single batch.
	Batches    uint64
	BatchedOps uint64
	MaxBatch   int

	// DiskFullBatches counts batches that failed with the retryable
	// ErrDiskFull (each failed cleanly: nothing applied, nothing acked).
	DiskFullBatches uint64

	// FsyncLatency is a histogram of WAL fsync time, each timed with the
	// write(2) before it. FsyncLatency[i] counts fsyncs under
	// FsyncBucketBounds[i]; the final slot counts the rest. Only the fsyncs
	// that commit writes are timed: under SyncEveryOp one per batch, under
	// SyncInterval one per interval tick; under SyncNone none, and a
	// buffered append reads no clock. Checkpoint, flush and Close fsyncs
	// are not counted.
	FsyncLatency [len(FsyncBucketBounds) + 1]uint64

	// RetrainPauses counts overload episodes that paused the background
	// retrainer; RetrainPaused reports whether it is paused right now.
	RetrainPauses uint64
	RetrainPaused bool

	// CommitSeq is the commit-sequence clock: the number of commits (one per
	// record, one per replace) ever durably made through this index (see
	// DurableIndex.CommitSeq). On a follower it equals the highest upstream
	// sequence applied.
	CommitSeq uint64

	// Tier is the tiered-storage slice of the snapshot; nil when the
	// directory runs in legacy monolithic-checkpoint mode.
	Tier *TierHealth
}

// TierHealth is a point-in-time snapshot of the tiered storage engine: the
// shape of the disk-resident tier, the volatile tiers awaiting flush, and
// the flush/compaction/cold-read counters an operator watches to size the
// memtable and the compaction trigger. All counters are cumulative since
// OpenDir. On a sharded index the per-shard snapshots are summed (maxima for
// the last-duration gauges), matching the rest of the Health aggregation.
type TierHealth struct {
	// Segments is the published segment-file count; L0Segments of those are
	// level-0 flush outputs not yet compacted. SegmentBytes is their total
	// on-disk size. Runs is how many sorted runs the files form — each L0
	// file, each delta and the base — which bounds the filters a cold read
	// consults.
	Segments     int
	L0Segments   int
	SegmentBytes int64
	Runs         int

	// LiveKeys is the exact visible-key count across every tier.
	// MemtableKeys and DeadKeys are the hot inserts and pending tombstones
	// the next flush will fold in; FrozenKeys, those of the memtable a flush
	// in flight (or awaiting retry) is writing out, 0 when there is none.
	LiveKeys     int64
	MemtableKeys int
	DeadKeys     int
	FrozenKeys   int

	// FlushedSeq is the manifest watermark F: every record at or below it is
	// inside segments, and the WAL is truncated only past it. Gen is the
	// manifest generation.
	FlushedSeq uint64
	Gen        uint64

	// Flushes/Compactions count committed manifest advances of each kind;
	// the Err counters count failed attempts (each retried — a failed flush
	// keeps its frozen run in memory). FlushedBytes and CompactBytes are the
	// segment bytes each path wrote — their ratio against the WAL traffic is
	// the tier's write amplification.
	Flushes      uint64
	FlushErrs    uint64
	Compactions  uint64
	CompactErrs  uint64
	FlushedBytes uint64
	CompactBytes uint64

	// LastFlushMicros/LastCompactMicros are the wall-clock durations of the
	// most recent successful flush and compaction.
	LastFlushMicros   int64
	LastCompactMicros int64

	// ColdReads counts lookups resolved from a segment (hit or tombstone);
	// ColdReadErrs counts segment I/O failures on the read path.
	ColdReads    uint64
	ColdReadErrs uint64

	// LastFlushErr is the most recent flush failure, nil after any success.
	LastFlushErr error
}

// Health reports the durable index's current state and counters. It is safe
// to call concurrently with writers, and on a poisoned or closed handle — and
// it never blocks behind in-flight I/O: a monitoring probe must keep
// answering precisely when a batch is wedged on a stalled or dragging fsync,
// so Health reads only atomics and qmu (which is never held across I/O),
// deliberately avoiding d.mu and the WAL's own mutex.
func (d *DurableIndex) Health() Health {
	var h Health

	d.qmu.Lock()
	closed := d.qclosed
	h.QueueDepth = d.pendingOps
	h.QueueBytes = d.pendingBytes
	h.QueueHighWater = d.highWater
	d.qmu.Unlock()

	fail := d.loadFail()
	walErr, _ := d.walErrv.Load().(errBox)
	switch {
	case fail != nil:
		h.State, h.Err = HealthPoisoned, fail
	case closed:
		h.State, h.Err = HealthClosed, ErrIndexClosed
	case d.degraded.Load():
		h.State = HealthDegraded
		if h.Err = walErr.err; h.Err == nil {
			h.Err = ErrDiskFull
		}
	default:
		h.State = HealthOK
	}

	h.ShedOps = d.shedOps.Load()
	h.CancelledOps = d.cancelledOps.Load()
	h.Batches = d.batches.Load()
	h.BatchedOps = d.batchedOps.Load()
	h.MaxBatch = int(d.maxBatch.Load())
	h.DiskFullBatches = d.diskFullBatches.Load()
	for i := range h.FsyncLatency {
		h.FsyncLatency[i] = d.fsyncHist[i].Load()
	}
	h.RetrainPauses = d.retrainPauses.Load()
	h.RetrainPaused = d.retrainPaused.Load()
	h.CommitSeq = d.commitSeq.Load()
	if d.tier != nil {
		h.Tier = d.tier.health()
	}
	return h
}

// health snapshots the tier's counters. Like Health it reads only atomics
// plus deadMu (never held across I/O), so a probe answers even while a flush
// is wedged on disk.
func (t *tier) health() *TierHealth {
	th := &TierHealth{
		LiveKeys:          t.liveCount.Load(),
		MemtableKeys:      t.mem.Load().ix.Len(),
		FlushedSeq:        t.flushedSeq.Load(),
		Gen:               t.gen.Load(),
		Flushes:           t.flushes.Load(),
		FlushErrs:         t.flushErrs.Load(),
		Compactions:       t.compactions.Load(),
		CompactErrs:       t.compactErrs.Load(),
		FlushedBytes:      t.flushedBytes.Load(),
		CompactBytes:      t.compactBytes.Load(),
		LastFlushMicros:   t.lastFlushUS.Load(),
		LastCompactMicros: t.lastCompactUS.Load(),
		ColdReads:         t.coldReads.Load(),
		ColdReadErrs:      t.coldErrs.Load(),
	}
	t.deadMu.RLock()
	th.DeadKeys = t.mem.Load().dead.Len()
	t.deadMu.RUnlock()
	if fr := t.frozen.Load(); fr != nil {
		th.FrozenKeys = fr.ix.Len() + fr.dead.Len()
	}
	readers := t.segs.Load().readers
	for _, r := range readers {
		m := r.Meta()
		th.Segments++
		if m.Level == 0 {
			th.L0Segments++
		}
		th.SegmentBytes += m.Bytes
	}
	th.Runs = len(groupRuns(readers))
	if b, _ := t.lastFlushErrv.Load().(errBox); b.err != nil {
		th.LastFlushErr = b.err
	}
	return th
}

// mergeTierHealth folds one shard's tier snapshot into an aggregate (sums
// for counters and sizes, maxima for the last-duration gauges, first
// non-nil error).
func mergeTierHealth(agg *TierHealth, th *TierHealth) *TierHealth {
	if th == nil {
		return agg
	}
	if agg == nil {
		agg = &TierHealth{}
	}
	agg.Segments += th.Segments
	agg.L0Segments += th.L0Segments
	agg.SegmentBytes += th.SegmentBytes
	agg.Runs += th.Runs
	agg.LiveKeys += th.LiveKeys
	agg.MemtableKeys += th.MemtableKeys
	agg.DeadKeys += th.DeadKeys
	agg.FrozenKeys += th.FrozenKeys
	agg.FlushedSeq += th.FlushedSeq
	agg.Gen += th.Gen
	agg.Flushes += th.Flushes
	agg.FlushErrs += th.FlushErrs
	agg.Compactions += th.Compactions
	agg.CompactErrs += th.CompactErrs
	agg.FlushedBytes += th.FlushedBytes
	agg.CompactBytes += th.CompactBytes
	if th.LastFlushMicros > agg.LastFlushMicros {
		agg.LastFlushMicros = th.LastFlushMicros
	}
	if th.LastCompactMicros > agg.LastCompactMicros {
		agg.LastCompactMicros = th.LastCompactMicros
	}
	agg.ColdReads += th.ColdReads
	agg.ColdReadErrs += th.ColdReadErrs
	if agg.LastFlushErr == nil {
		agg.LastFlushErr = th.LastFlushErr
	}
	return agg
}

// Err reports the terminal condition of the handle: the sticky poison cause,
// ErrIndexClosed after Close, or nil while the handle is usable (including
// degraded — degraded is visible via Health, not Err, because it is
// recoverable). It is the error-returning companion to the bool-returning
// read surface, and like Health it never blocks behind in-flight I/O.
func (d *DurableIndex) Err() error {
	if fail := d.loadFail(); fail != nil {
		return fail
	}
	if d.readsClosed.Load() {
		return ErrIndexClosed
	}
	return nil
}

// ErrNotPrimary is returned for writes sent to a node that is not the
// replication primary — a follower, or a deposed primary that has been
// fenced by a higher-epoch promotion. It is not retryable against the same
// node: the caller must redirect to the current primary.
var ErrNotPrimary = errors.New("chameleon: not primary: node is a replica or has been fenced")

// ErrReplicaLagging marks a write that is durable *locally* but whose
// replication acknowledgement did not arrive in time, and the sequence-token
// wait that cannot be satisfied before its deadline. For a write it is the
// one deliberately ambiguous outcome in the API (see SetCommitHook): the
// record may or may not survive a failover, so callers must treat it as
// "may exist" — never as a clean rejection.
var ErrReplicaLagging = errors.New("chameleon: replica lagging behind required commit sequence")

// ReplRole is a node's place in the replication topology.
type ReplRole int

const (
	// RoleNone means replication is not configured; the node is a plain
	// standalone index.
	RoleNone ReplRole = iota
	// RolePrimary accepts writes and ships committed batches to followers.
	RolePrimary
	// RoleFollower applies the primary's stream and serves reads (optionally
	// gated on commit-sequence tokens for read-your-writes).
	RoleFollower
	// RoleFenced is a deposed primary: a higher-epoch promotion happened, so
	// the node permanently refuses writes with ErrNotPrimary. Reads still
	// serve (possibly stale) local state.
	RoleFenced
)

// String renders the role for logs and the STATS surface.
func (r ReplRole) String() string {
	switch r {
	case RoleNone:
		return "none"
	case RolePrimary:
		return "primary"
	case RoleFollower:
		return "follower"
	case RoleFenced:
		return "fenced"
	}
	return "unknown"
}

// ReplHealth is a point-in-time snapshot of a node's replication state,
// reported alongside (not inside) the index's own Health: the index can be
// perfectly healthy while replication is stalled, and MergeReplHealth is
// where the two meet.
type ReplHealth struct {
	// Role and Epoch locate the node in the topology; Epoch increases by one
	// at every promotion and is the fencing token.
	Role  ReplRole
	Epoch uint64

	// LastApplied is the highest commit sequence applied locally (equal to
	// the index's CommitSeq). UpstreamSeq is the primary's commit sequence as
	// of the last successful pull (followers only); Lag is the difference.
	// AckedSeq, on a primary, is the highest sequence every connected
	// follower is known to have applied.
	LastApplied uint64
	UpstreamSeq uint64
	Lag         uint64
	AckedSeq    uint64

	// Connected reports whether a follower's link to its upstream is
	// currently established; Reconnects counts link re-establishments and
	// SnapshotBootstraps counts full-snapshot catch-ups.
	Connected          bool
	Reconnects         uint64
	SnapshotBootstraps uint64

	// Stalled means replication has made no progress for longer than the
	// configured stall threshold (a primary with no acking follower, or a
	// follower that cannot reach its upstream). Diverged means replay
	// divergence was detected and the link fail-stopped — the replica must
	// be rebuilt; it will not heal.
	Stalled  bool
	Diverged bool

	// ShardLags is the per-shard staleness vector, one entry per shard (one
	// on an unsharded node): for a follower, each shard's upstream commit
	// clock minus its local one; for a primary, each shard's ring head minus
	// its acked cursor.
	ShardLags []uint64
}

// State maps replication health onto the HealthState scale: divergence is as
// bad as poison (the replica's data cannot be trusted to match the primary
// and the condition is permanent), a stalled or disconnected link is
// degraded (the node serves increasingly stale reads but nothing is wrong
// with the data), and everything else is ok.
func (r ReplHealth) State() HealthState {
	switch {
	case r.Diverged:
		return HealthPoisoned
	case r.Stalled, r.Role == RoleFollower && !r.Connected:
		return HealthDegraded
	default:
		return HealthOK
	}
}

// MergeReplHealth folds a node's replication state into its index health,
// worst-wins, mirroring the sharded aggregation order (poisoned > degraded >
// ok; closed stays closed — a released handle's replication state is
// irrelevant). A healthy index with stalled replication therefore reports
// degraded, and a diverged follower reports poisoned, so operators alarm on
// one state field no matter which layer is hurting.
func MergeReplHealth(h Health, r ReplHealth) Health {
	if h.State == HealthClosed || h.State == HealthPoisoned {
		return h
	}
	switch rs := r.State(); rs {
	case HealthPoisoned:
		h.State = HealthPoisoned
		if h.Err == nil {
			h.Err = ErrReplDivergence
		}
	case HealthDegraded:
		if h.State == HealthOK {
			h.State = HealthDegraded
			if h.Err == nil {
				h.Err = ErrReplicaLagging
			}
		}
	}
	return h
}

// errBox lets error values of differing concrete types share one
// atomic.Value slot.
type errBox struct{ err error }

// loadFail reads the poison cause mirrored out of d.fail for lock-free
// health probes.
func (d *DurableIndex) loadFail() error {
	b, _ := d.failv.Load().(errBox)
	return b.err
}

// fsyncHist is the histogram behind Health.FsyncLatency. A handle's logs
// report their timed fsyncs into it (wal.Options.OnSync), the live log
// recovery opens among them, so it is made before the handle.
type fsyncHist [len(FsyncBucketBounds) + 1]atomic.Uint64

// observe records one timed fsync.
func (h *fsyncHist) observe(dur time.Duration) {
	i := 0
	for ; i < len(FsyncBucketBounds); i++ {
		if dur < FsyncBucketBounds[i] {
			break
		}
	}
	h[i].Add(1)
}
