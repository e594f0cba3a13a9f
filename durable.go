package chameleon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/faultfs"
	"chameleon/internal/segment"
	"chameleon/internal/wal"
)

// SyncPolicy picks when acknowledged writes reach stable storage.
type SyncPolicy int

const (
	// SyncEveryOp fsyncs the WAL before every Insert/Delete returns: an
	// acknowledged write survives any crash. The default, and the slowest.
	SyncEveryOp SyncPolicy = iota
	// SyncInterval group-commits: the WAL is fsynced every DirOptions.SyncEvery
	// (default 10ms). A crash can lose up to one interval of acknowledged
	// writes; everything older is safe.
	SyncInterval
	// SyncNone leaves flushing to the OS. A crash can lose everything since
	// the last Checkpoint.
	SyncNone
)

// DirOptions configures OpenDir.
type DirOptions struct {
	Options
	// Sync is the WAL durability policy (default SyncEveryOp).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval group-commit period (default 10ms).
	SyncEvery time.Duration
	// MaxPending bounds the number of mutations admitted into the
	// group-commit queue (including the batch currently committing). When the
	// bound is hit, further mutations are shed with ErrOverloaded — or block
	// for space when BlockOnFull is set. Zero means unbounded.
	MaxPending int
	// MaxPendingBytes bounds the queue by WAL footprint instead of op count
	// (each mutation costs wal.FrameSize bytes). Zero means unbounded; when
	// both bounds are set, either one rejects.
	MaxPendingBytes int64
	// BlockOnFull makes a full queue apply backpressure: mutations wait for
	// space (respecting their context deadline) instead of failing fast with
	// ErrOverloaded.
	BlockOnFull bool

	// Tiered switches the directory to tiered disk-resident storage
	// (tier.go): hot writes stay in the in-memory index backed by the WAL,
	// and a background flusher freezes the memtable into immutable learned-
	// index segments instead of Checkpoint rewriting monolithic snapshots. A
	// directory that already has a tier manifest always opens tiered,
	// regardless of this flag; a legacy directory opened with Tiered set
	// migrates on its first flush.
	Tiered bool
	// MemtableBytes is the approximate in-memory delta size that triggers a
	// background flush (default 4 MiB). Entries are accounted at 16 bytes.
	MemtableBytes int64
	// SegmentEps is the learned-model error bound ε for written segments
	// (default segment.DefaultEps): a cold lookup preads at most 2ε+1 keys.
	SegmentEps int
	// CompactL0 is how many L0 segments accumulate before a compaction
	// merges them (plus the older runs small enough to be worth rewriting;
	// see pickCompaction) into a level-1 run (default 4).
	CompactL0 int
}

// DurableIndex is an Index whose mutations survive process crashes. Every
// Insert and Delete is appended to a checksummed write-ahead log before it is
// applied in memory; Checkpoint writes an atomic, CRC-sealed snapshot and
// rotates the log. OpenDir recovers by loading the newest intact snapshot and
// replaying the log — a torn log tail (the signature of a crash mid-append)
// is truncated, never trusted.
//
// Reads (Lookup, Range, Len, ...) are forwarded to the inner Index and are as
// concurrent as ever. Mutations are serialized internally so the log's replay
// order equals the in-memory apply order. The inner index is deliberately not
// embedded: promoted mutators (ReadFrom, BulkLoad, StartRetrainer) would
// bypass the WAL and silently desynchronize memory from the log.
type DurableIndex struct {
	ix *Index

	mu     sync.Mutex // serializes batch commits, checkpoints, and Close
	fs     faultfs.FS
	dir    string
	log    *wal.Log
	seq    uint64 // highest snapshot/WAL sequence seen or written
	opts   DirOptions
	closed bool
	fail   error // sticky: set when on-disk and in-memory state may diverge

	// tier is the disk-resident segment tier (tier.go); nil in legacy
	// snapshot mode. Set once at open, before the handle escapes.
	tier *tier

	// Replication plumbing (replseq.go). commitSeq counts records ever
	// durably committed — the monotonic clock replication sequences on; it is
	// advanced under d.mu and persisted via the seq.meta sidecar (seqMeta,
	// also guarded by d.mu) plus WAL replay counting at recovery. commitHook,
	// when set, runs inside commitBatch after durability, before acks.
	// seqWaitCh broadcasts commit-sequence advancement to WaitSeq waiters
	// (close-and-replace under seqWaitMu, which nests inside any other lock).
	commitSeq  atomic.Uint64
	seqMeta    map[uint64]uint64
	seqMetaGen uint64 // newest sidecar generation on disk; next write is gen+1
	commitHook func(firstSeq uint64, recs []wal.Record) error
	seqWaitMu  sync.Mutex
	seqWaitCh  chan struct{}

	// Group-commit queue. Writers enqueue under qmu (held only for the
	// append); the first writer to find no leader becomes one and drains the
	// queue batch by batch, paying one WAL write + one fsync per batch and
	// fanning acks back over each op's done channel. qmu orders only the
	// queue; d.mu still orders every batch against checkpoints and Close.
	// Lock order is d.mu → qmu, never the reverse.
	qmu     sync.Mutex
	queue   []*pendingOp
	leader  bool
	qclosed bool // Close observed; admission refuses, space stays closed

	// Admission accounting: ops admitted but not yet committed (queued plus
	// the batch in flight). Enqueue increments; a batch's commit or an op's
	// cancellation decrements. space is closed-and-replaced to broadcast
	// "room freed" to writers blocked by BlockOnFull; after Close it stays
	// closed so waiters wake once and see qclosed.
	pendingOps   int
	pendingBytes int64
	highWater    int
	space        chan struct{}

	// Health counters (see Health); readsClosed flips the read surface to
	// zero values after Close without taking d.mu on every Lookup. failv
	// mirrors d.fail and walErrv the last sticky WAL append error so Health
	// and Err never need d.mu (which an in-flight batch holds across fsync).
	failv           atomic.Value // errBox
	walErrv         atomic.Value // errBox
	readsClosed     atomic.Bool
	degraded        atomic.Bool
	shedOps         atomic.Uint64
	cancelledOps    atomic.Uint64
	batches         atomic.Uint64
	batchedOps      atomic.Uint64
	diskFullBatches atomic.Uint64
	maxBatch        atomic.Int64
	fsyncHist       [len(FsyncBucketBounds) + 1]atomic.Uint64
	retrainPaused   atomic.Bool
	retrainPauses   atomic.Uint64
}

// pendingOp is one enqueued mutation awaiting group commit. The committing
// leader sets err (nil = acked durable per the sync policy) before closing
// done.
//
// state arbitrates the race between the leader claiming the op into a batch
// and the op's own goroutine cancelling on context expiry: exactly one CAS
// from opQueued wins. A claimed op is (or is about to be) in a committing
// batch, so its canceller must wait for the batch's real outcome — this is
// what makes cancellation two-state (ctx.Err() with no durable effect, or
// nil with the write durable; never anything in between).
type pendingOp struct {
	rec   wal.Record
	err   error
	done  chan struct{}
	state atomic.Int32
}

const (
	opQueued int32 = iota
	opClaimed
	opCancelled
)

// ErrIndexClosed is returned by operations on a closed DurableIndex.
var ErrIndexClosed = errors.New("chameleon: durable index closed")

// ErrOverloaded is returned by mutations shed at admission when the
// group-commit queue is at its configured bound (DirOptions.MaxPending /
// MaxPendingBytes) and BlockOnFull is off. A shed mutation was never logged
// and never applied — retrying later is always safe.
var ErrOverloaded = errors.New("chameleon: durable index overloaded: group-commit queue full")

// ErrDiskFull marks a mutation rejected because the WAL's disk is full. It is
// retryable: the index stays consistent and readable (Health reports
// degraded-read-only), and the same handle accepts writes again once space is
// freed or a Checkpoint rotates to a fresh log.
var ErrDiskFull = wal.ErrDiskFull

// ErrSnapshotsUnreadable is returned by OpenDir when snapshot files exist but
// none passes its integrity checks. Opening would otherwise silently serve a
// near-empty index after, e.g., snapshot bit rot — the caller must decide
// whether to restore from backup or wipe the directory and accept the loss.
var ErrSnapshotsUnreadable = errors.New("chameleon: snapshot files present but none readable")

const (
	snapPrefix = "snapshot-"
	snapSuffix = ".ckpt"
	snapTemp   = ".tmp"
	walPrefix  = "wal-"
	walSuffix  = ".log"
)

func snapName(seq uint64) string { return fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix) }
func walName(seq uint64) string  { return fmt.Sprintf("%s%016d%s", walPrefix, seq, walSuffix) }

// walOptions is the single place DirOptions maps onto wal.Options — both the
// initial OpenDir and every checkpoint rotation go through it, so the sync
// policy and interval defaulting can never diverge between the log a
// directory opens with and the logs it rotates to. A zero or negative
// SyncEvery normalizes to the documented 10ms default here, in exactly one
// place.
func walOptions(opts DirOptions, fsys faultfs.FS) wal.Options {
	interval := opts.SyncEvery
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	return wal.Options{Policy: wal.SyncPolicy(opts.Sync), Interval: interval, FS: fsys}
}

// parseSeq extracts the sequence number from snapshot-<seq>.ckpt /
// wal-<seq>.log style names.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// OpenDir opens (or initializes) a durable index rooted at dir. Recovery runs
// first: the newest snapshot that passes its integrity checks is loaded —
// corrupt or torn snapshots are skipped, falling back to older ones — and
// every write-ahead log at or after that snapshot is replayed in order. The
// returned index reflects every acknowledged write the configured sync policy
// promised to keep.
func OpenDir(dir string, opts DirOptions) (*DurableIndex, error) {
	return openDirFS(dir, opts, faultfs.OS)
}

// openDirFS is OpenDir over an injectable filesystem; the crash-matrix test
// recovers with the real one after crashing a faultfs.CrashFS workload.
func openDirFS(dir string, opts DirOptions, fsys faultfs.FS) (*DurableIndex, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A directory with a tier manifest is tiered, whatever the options say:
	// opening it through the legacy path would ignore the segments entirely.
	man, err := segment.LoadManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	if man != nil {
		return openTieredDir(dir, opts, fsys, man)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snapSeqs, walSeqs []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok {
			snapSeqs = append(snapSeqs, seq)
		}
		if seq, ok := parseSeq(e.Name(), walPrefix, walSuffix); ok {
			walSeqs = append(walSeqs, seq)
		}
	}
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] > snapSeqs[j] }) // newest first
	sort.Slice(walSeqs, func(i, j int) bool { return walSeqs[i] < walSeqs[j] })    // oldest first

	// Load the newest snapshot that checks out, falling back past corrupt
	// ones — but never silently: if snapshots exist and none loads, refuse to
	// open. Proceeding from an empty base would ack fresh writes on top of a
	// near-total loss the caller never agreed to.
	ix := New(opts.Options)
	chosen := uint64(0)
	loaded := len(snapSeqs) == 0
	var snapErr error
	for _, seq := range snapSeqs {
		if err := loadSnapshot(fsys, filepath.Join(dir, snapName(seq)), ix); err != nil {
			if snapErr == nil {
				snapErr = fmt.Errorf("%s: %w", snapName(seq), err)
			}
			continue
		}
		chosen = seq
		loaded = true
		break
	}
	if !loaded {
		return nil, fmt.Errorf("%w: %d candidate(s), newest: %v",
			ErrSnapshotsUnreadable, len(snapSeqs), snapErr)
	}

	// Every replayed WAL record is one commit after the chosen snapshot, so
	// counting them (plus the snapshot's recorded base from seq.meta)
	// reconstructs the commit-sequence clock across restarts.
	var replayed uint64
	apply := func(r wal.Record) {
		replayed++
		// Replay tolerates redundancy: a record already reflected in the
		// snapshot (possible only on fallback paths) must not fail recovery.
		switch r.Op {
		case wal.OpInsert:
			ix.inner.Insert(r.Key, r.Val) //nolint:errcheck
		case wal.OpDelete:
			ix.inner.Delete(r.Key) //nolint:errcheck
		}
	}

	// Replay logs at or after the loaded snapshot, oldest first. Each wal-<n>
	// starts exactly at snapshot-<n>'s state, so the ascending chain from
	// `chosen` reconstructs the pre-crash state; replaying records the
	// snapshot already holds (fallback paths) is harmless because the
	// conditional insert/delete semantics make in-order re-application
	// idempotent. Logs *older* than the snapshot are skipped, not replayed:
	// their records are all contained in it, and if GC removed a successor
	// log but left an older one (Remove errors are best-effort), replaying
	// the survivor would resurrect keys the missing log deleted — phantoms.
	// The newest log becomes the live one (wal.Open truncates its torn
	// tail); older logs are read-only.
	liveSeq := chosen
	for _, seq := range walSeqs {
		if seq > liveSeq {
			liveSeq = seq
		}
	}
	for _, seq := range walSeqs {
		if seq < chosen || seq == liveSeq {
			continue
		}
		if err := replayReadOnly(fsys, filepath.Join(dir, walName(seq)), apply); err != nil {
			return nil, err
		}
	}
	log, _, err := wal.Open(filepath.Join(dir, walName(liveSeq)), walOptions(opts, fsys), apply)
	if err != nil {
		return nil, err
	}
	// The live WAL may have just been created: fsync the directory so its
	// entry survives a crash. Without this, power loss could drop the file
	// itself and with it every write acked to it — even under SyncEveryOp.
	if err := fsys.SyncDir(dir); err != nil {
		log.Close() //nolint:errcheck
		return nil, err
	}

	seq := liveSeq
	if len(snapSeqs) > 0 && snapSeqs[0] > seq {
		seq = snapSeqs[0] // never reuse the name of a corrupt newer snapshot
	}
	if opts.RetrainEvery > 0 {
		ix.inner.StartRetrainer(opts.RetrainEvery)
	}
	seqMeta, seqMetaGen := readSeqMeta(fsys, dir)
	d := &DurableIndex{
		ix: ix, fs: fsys, dir: dir, log: log, seq: seq, opts: opts,
		space:      make(chan struct{}),
		seqMeta:    seqMeta,
		seqMetaGen: seqMetaGen,
	}
	// Commit clock: the chosen snapshot's recorded commit sequence (zero for
	// pre-replication directories — the documented legacy fallback) plus one
	// for every record replayed after it.
	d.commitSeq.Store(d.seqMeta[chosen] + replayed)
	if opts.Tiered {
		// Legacy directory explicitly opened tiered: migration. The recovered
		// state is the memtable; the first flush moves it into an L0 segment.
		attachEmptyTier(d)
	}
	return d, nil
}

// loadSnapshot reads one snapshot file into ix, failing on any integrity
// violation (the envelope CRC plus ReadFrom's structural checks).
func loadSnapshot(fsys faultfs.FS, path string, ix *Index) error {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(f)
	f.Close() //nolint:errcheck
	if err != nil {
		return err
	}
	_, err = ix.inner.ReadFrom(bytes.NewReader(data))
	return err
}

// replayReadOnly applies every intact record of a rotated-out log without
// opening it for writing.
func replayReadOnly(fsys faultfs.FS, path string, apply func(wal.Record)) error {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	data, err := io.ReadAll(f)
	f.Close() //nolint:errcheck
	if err != nil {
		return err
	}
	wal.Replay(data, apply)
	return nil
}

// usableLocked gates mutations: a poisoned handle reports its sticky failure,
// a closed one ErrIndexClosed.
func (d *DurableIndex) usableLocked() error {
	if d.fail != nil {
		return d.fail
	}
	if d.closed {
		return ErrIndexClosed
	}
	return nil
}

// poisonLocked fail-stops the handle: once on-disk and in-memory state may
// disagree, acknowledging further writes would corrupt the recovery contract,
// so every subsequent mutation returns the sticky error. The WAL is closed so
// nothing more is appended; reads keep serving the in-memory state.
func (d *DurableIndex) poisonLocked(err error) {
	if d.fail != nil {
		return
	}
	d.fail = fmt.Errorf("chameleon: durable index failed: %w (in-memory and on-disk state may diverge; discard this handle and re-OpenDir)", err)
	d.failv.Store(errBox{d.fail})
	d.ix.inner.StopRetrainer()
	if d.log != nil {
		d.log.Close() //nolint:errcheck
	}
	d.broadcastSeq() // WaitSeq waiters must wake and observe the poison
}

// Insert logs key→val to the WAL (durably, under SyncEveryOp) and then
// applies it. A nil return means the write will survive per the sync policy.
// Concurrent Inserts/Deletes group-commit: their WAL frames share one write
// and one fsync, amortizing the durability cost across the batch without
// weakening it — no call returns nil before its own frame is durable.
//
// When the group-commit queue is at its configured bound the call returns
// ErrOverloaded (or waits, under DirOptions.BlockOnFull); when the WAL's disk
// is full it returns ErrDiskFull. Both are clean rejections: nothing was
// logged or applied, and retrying is safe.
func (d *DurableIndex) Insert(key, val uint64) error {
	return d.commit(context.Background(), wal.Record{Op: wal.OpInsert, Key: key, Val: val})
}

// InsertCtx is Insert honoring a context deadline or cancellation. The result
// is exactly two-state: a ctx.Err() return means the mutation had no durable
// effect and was never applied; a nil return means it is durable per the sync
// policy. If cancellation arrives after the op has been claimed into a
// committing batch, InsertCtx waits for the batch's outcome and reports it —
// a write that may already be on disk is never reported as cancelled.
func (d *DurableIndex) InsertCtx(ctx context.Context, key, val uint64) error {
	return d.commit(ctx, wal.Record{Op: wal.OpInsert, Key: key, Val: val})
}

// Delete logs the removal and then applies it. Like Insert it participates in
// group commit and in admission control.
func (d *DurableIndex) Delete(key uint64) error {
	return d.commit(context.Background(), wal.Record{Op: wal.OpDelete, Key: key})
}

// DeleteCtx is Delete honoring a context deadline or cancellation, with the
// same two-state contract as InsertCtx.
func (d *DurableIndex) DeleteCtx(ctx context.Context, key uint64) error {
	return d.commit(ctx, wal.Record{Op: wal.OpDelete, Key: key})
}

// commit admits, enqueues, and blocks until a leader has committed (or
// rejected) rec. The first writer to find no active leader becomes the leader
// and drains the queue until it is empty — including ops enqueued while
// earlier batches were committing — then steps down. Followers wait; their
// latency is at most one in-flight batch plus their own.
func (d *DurableIndex) commit(ctx context.Context, rec wal.Record) error {
	if err := ctx.Err(); err != nil {
		return err // dead context: reject before touching the queue
	}
	op := &pendingOp{rec: rec, done: make(chan struct{})}
	d.qmu.Lock()
	for {
		if d.qclosed {
			d.qmu.Unlock()
			return ErrIndexClosed
		}
		if d.admitLocked() {
			break
		}
		if !d.opts.BlockOnFull {
			d.shedOps.Add(1)
			d.qmu.Unlock()
			return ErrOverloaded
		}
		wait := d.space
		d.qmu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			d.cancelledOps.Add(1)
			return ctx.Err() // never admitted: trivially no durable effect
		}
		d.qmu.Lock()
	}
	d.queue = append(d.queue, op)
	d.pendingOps++
	d.pendingBytes += wal.FrameSize
	if d.pendingOps > d.highWater {
		d.highWater = d.pendingOps
	}
	d.updateRetrainPauseLocked()
	if d.leader {
		d.qmu.Unlock()
		return d.waitFollower(ctx, op)
	}
	d.leader = true
	for {
		batch := d.claimLocked()
		if len(batch) == 0 {
			d.leader = false
			d.updateRetrainPauseLocked()
			d.qmu.Unlock()
			break
		}
		d.qmu.Unlock()
		d.commitBatch(batch)
		// Yield before collecting the next batch: the followers just acked
		// are runnable but may not have re-enqueued yet (on few cores they
		// only run when this goroutine pauses). One scheduler hop here lets
		// the next batch fill, trading nanoseconds of leader latency for
		// fsyncs amortized over whole batches instead of stragglers.
		runtime.Gosched()
		d.qmu.Lock()
	}
	// The leader's own op is always claimed into its first batch (nothing
	// can cancel it — cancellation is done by the op's own goroutine, which
	// is busy leading), so it is resolved by now. The leader deliberately
	// ignores ctx while draining: abandoning the queue would strand every
	// follower behind it.
	<-op.done
	return op.err
}

// admitLocked checks the queue bounds. Callers hold qmu.
func (d *DurableIndex) admitLocked() bool {
	if d.opts.MaxPending > 0 && d.pendingOps >= d.opts.MaxPending {
		return false
	}
	if d.opts.MaxPendingBytes > 0 && d.pendingBytes+wal.FrameSize > d.opts.MaxPendingBytes {
		return false
	}
	return true
}

// claimLocked moves every still-queued op into a batch, skipping (and
// dropping) ops whose canceller won the CAS race. Callers hold qmu.
func (d *DurableIndex) claimLocked() []*pendingOp {
	batch := d.queue[:0]
	for _, op := range d.queue {
		if op.state.CompareAndSwap(opQueued, opClaimed) {
			batch = append(batch, op)
		}
	}
	d.queue = nil
	return batch
}

// waitFollower blocks a non-leader writer until its op resolves or its
// context dies. On cancellation the op is withdrawn only if the leader has
// not claimed it; once claimed, the op's frame may already be durable, so the
// follower must wait out the batch and report its true outcome.
func (d *DurableIndex) waitFollower(ctx context.Context, op *pendingOp) error {
	select {
	case <-op.done:
		return op.err
	case <-ctx.Done():
	}
	if op.state.CompareAndSwap(opQueued, opCancelled) {
		// Withdrawn before any leader touched it: release its accounting.
		// The op itself stays in d.queue until the next claim pass drops it.
		d.qmu.Lock()
		d.pendingOps--
		d.pendingBytes -= wal.FrameSize
		d.signalSpaceLocked()
		d.updateRetrainPauseLocked()
		d.qmu.Unlock()
		d.cancelledOps.Add(1)
		return ctx.Err()
	}
	<-op.done // claimed: in (or past) a committing batch — outcome is real
	return op.err
}

// signalSpaceLocked broadcasts "queue space freed" to writers blocked in
// admission by closing and replacing the space channel. After Close the
// channel stays closed so late waiters wake immediately and observe qclosed.
// Callers hold qmu.
func (d *DurableIndex) signalSpaceLocked() {
	if d.qclosed {
		return
	}
	close(d.space)
	d.space = make(chan struct{})
}

// pauseThreshold is the queue depth at which background retraining stops
// competing with foreground writes; maintenance resumes at half of it.
func (d *DurableIndex) pauseThreshold() int {
	if d.opts.MaxPending > 0 {
		if t := d.opts.MaxPending / 2; t >= 2 {
			return t
		}
		return 2
	}
	return 256 // unbounded queue: pause once a sustained backlog forms
}

// updateRetrainPauseLocked pauses the retrainer when the queue is saturated
// and resumes it once the backlog drains (with hysteresis, so a queue
// hovering at the threshold doesn't flap). Callers hold qmu.
func (d *DurableIndex) updateRetrainPauseLocked() {
	hi := d.pauseThreshold()
	switch {
	case !d.retrainPaused.Load() && d.pendingOps >= hi:
		d.retrainPaused.Store(true)
		d.retrainPauses.Add(1)
		d.ix.PauseRetrainer()
	case d.retrainPaused.Load() && d.pendingOps <= hi/2:
		d.retrainPaused.Store(false)
		d.ix.ResumeRetrainer()
	}
}

// commitBatch validates, logs, applies, and acks one batch. It holds d.mu for
// the whole batch so a checkpoint can never rotate the WAL between a batch's
// append and its in-memory apply — the replay-order invariant (WAL order ==
// apply order, and every logged record *is* applied before the log it lives
// in can be superseded) is what recovery correctness rests on.
func (d *DurableIndex) commitBatch(batch []*pendingOp) {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer func() {
		for _, op := range batch {
			close(op.done)
		}
	}()
	// Release the batch's admission accounting while still holding d.mu
	// (defers run LIFO: this runs before the acks above and long before d.mu
	// unlocks). WALSize also orders d.mu → qmu, so it observes either
	// "queued, not yet in the log" or "in the log, accounting released" —
	// never both, never neither.
	defer func() {
		d.qmu.Lock()
		d.pendingOps -= len(batch)
		d.pendingBytes -= int64(len(batch)) * wal.FrameSize
		d.signalSpaceLocked()
		d.updateRetrainPauseLocked()
		d.qmu.Unlock()
	}()

	if err := d.usableLocked(); err != nil {
		for _, op := range batch {
			op.err = err
		}
		return
	}

	// Validate in arrival order before logging anything, so the WAL records
	// exactly the mutations that will be applied — a logged-but-rejected
	// insert would materialize as a phantom key on replay. Validation of op k
	// must see the effects of ops 0..k−1 of the same batch (a duplicate
	// insert inside one batch fails exactly as it would have serially), so
	// earlier accepts are tracked in a batch-local presence overlay.
	overlay := make(map[uint64]bool, len(batch))
	accepted := batch[:0:0]
	recs := make([]wal.Record, 0, len(batch))
	for _, op := range batch {
		key := op.rec.Key
		present, known := overlay[key]
		if !known {
			var verr error
			present, verr = d.presentLocked(key)
			if verr != nil {
				// A segment I/O failure during validation fails this op
				// without logging it; the handle itself stays usable.
				op.err = fmt.Errorf("validate: %w", verr)
				continue
			}
		}
		switch op.rec.Op {
		case wal.OpInsert:
			if present {
				op.err = ErrDuplicateKey
				continue
			}
		case wal.OpDelete:
			if !present {
				op.err = ErrKeyNotFound
				continue
			}
		}
		overlay[key] = op.rec.Op == wal.OpInsert
		accepted = append(accepted, op)
		recs = append(recs, op.rec)
	}
	if len(recs) == 0 {
		return
	}

	// One contiguous write, at most one fsync, for the whole batch. On
	// failure nothing is applied in memory and every accepted op reports the
	// error. Disk full is the retryable case: the WAL rolled itself back to
	// the last frame boundary, nothing diverged, and the handle goes
	// degraded-read-only until space is freed or a checkpoint rotates the
	// log. Any other failure is sticky in the log and stops future appends;
	// some frames may still have reached disk — those ops were *not* acked,
	// and an unacked op surfacing after recovery is within contract (same as
	// a failed single append always was).
	start := time.Now()
	err := d.log.AppendAll(recs)
	d.observeFsync(time.Since(start))
	if err != nil {
		if errors.Is(err, wal.ErrDiskFull) {
			d.diskFullBatches.Add(1)
		} else {
			d.walErrv.Store(errBox{err}) // sticky until a checkpoint rotates
		}
		d.degraded.Store(true)
		for _, op := range accepted {
			op.err = err
		}
		return
	}
	d.degraded.Store(false)
	d.walErrv.Store(errBox{})
	d.batches.Add(1)
	d.batchedOps.Add(uint64(len(recs)))
	if n := int64(len(batch)); n > d.maxBatch.Load() {
		d.maxBatch.Store(n) // only the leader writes this, under d.mu
	}

	// Apply in log order. Validation above makes rejection impossible here,
	// so any failure means memory no longer matches what was just made
	// durable — fail-stop.
	for i, op := range accepted {
		if err := d.applyRecordLocked(op.rec); err != nil {
			d.poisonLocked(fmt.Errorf("group commit apply: %w", err))
			for _, rest := range accepted[i:] {
				rest.err = d.fail
			}
			return
		}
	}
	if d.tier != nil {
		d.tier.maybeSignalFlush()
	}

	// The batch's records now carry commit sequences [first, first+len-1].
	// The hook (replication) runs after durability and apply but before the
	// deferred acks: a non-nil hook error is reported to every writer in the
	// batch instead of nil — the write is durable locally, so this is the
	// documented ambiguous-fate outcome (see SetCommitHook).
	first := d.commitSeq.Load() + 1
	d.advanceCommitSeq(uint64(len(recs)))
	if d.commitHook != nil {
		if err := d.commitHook(first, recs); err != nil {
			for _, op := range accepted {
				op.err = err
			}
		}
	}
}

// BulkLoad rebuilds the index from sorted keys and immediately makes the
// data durable — in legacy mode as an atomic snapshot, in tiered mode as one
// fresh L1 segment replacing all tier state (tier.bulkLoad). Bulk data never
// passes through the WAL, so a failure after the commit point poisons the
// handle (fail-stop) rather than letting acked state diverge.
func (d *DurableIndex) BulkLoad(keys, vals []uint64) error {
	if d.tier != nil {
		return d.tier.bulkLoad(keys, vals)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usableLocked(); err != nil {
		return err
	}
	if err := d.ix.BulkLoad(keys, vals); err != nil {
		return err
	}
	if err := d.checkpointLocked(); err != nil {
		d.poisonLocked(fmt.Errorf("bulk-load checkpoint: %w", err))
		return d.fail
	}
	return nil
}

// Checkpoint writes the current contents as an atomic snapshot (temp file,
// fsync, rename, directory fsync), rotates to a fresh WAL, and garbage-
// collects superseded files. Recovery cost after Checkpoint is one snapshot
// load; the old log's records are all reflected in the snapshot.
//
// In tiered mode Checkpoint is a Flush: the durability contract (everything
// committed so far is recoverable without the truncated WAL) is the same,
// but the cost scales with the delta since the last flush, not the full
// index.
func (d *DurableIndex) Checkpoint() error {
	if d.tier != nil {
		return d.Flush()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usableLocked(); err != nil {
		return err
	}
	return d.checkpointLocked()
}

// CheckpointCtx is Checkpoint honoring a context deadline while waiting for
// in-flight batches and for the snapshot write itself. A checkpoint cannot be
// abandoned mid-commit (the rename either happened or it didn't), so on
// cancellation the checkpoint keeps running to completion in the background
// and ctx.Err() means only "stopped waiting" — the handle stays consistent
// either way, and a subsequent WALSize or Health call shows whether the
// rotation landed.
func (d *DurableIndex) CheckpointCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.Checkpoint() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (d *DurableIndex) checkpointLocked() error {
	newSeq := d.seq + 1
	final := filepath.Join(d.dir, snapName(newSeq))
	tmp := final + snapTemp

	f, err := d.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := d.ix.WriteTo(f); err != nil {
		f.Close()        //nolint:errcheck
		d.fs.Remove(tmp) //nolint:errcheck
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()        //nolint:errcheck
		d.fs.Remove(tmp) //nolint:errcheck
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// Create the successor WAL *before* the rename commits, so the directory
	// fsync after the rename covers the new log's entry too. A WAL whose
	// dirent is not yet durable would silently lose every write acked to it
	// if a crash dropped the file — even under SyncEveryOp. Failing here is
	// safe: nothing has committed, the old snapshot + WAL stay authoritative.
	walPath := filepath.Join(d.dir, walName(newSeq))
	newLog, _, err := wal.Open(walPath, walOptions(d.opts, d.fs), nil)
	if err != nil {
		d.fs.Remove(tmp) //nolint:errcheck
		return err
	}
	// Record the new snapshot's commit sequence in the sidecar before the
	// rename commits, so the directory fsync below seals snapshot, successor
	// WAL, and sidecar together. Failing here is still safe to abort: the old
	// snapshot stays authoritative and keeps its own sidecar entry.
	if d.seqMeta == nil {
		d.seqMeta = make(map[uint64]uint64)
	}
	d.seqMeta[newSeq] = d.commitSeq.Load()
	if err := d.writeSeqMetaLocked(); err != nil {
		delete(d.seqMeta, newSeq)
		newLog.Close()       //nolint:errcheck
		d.fs.Remove(walPath) //nolint:errcheck
		d.fs.Remove(tmp)     //nolint:errcheck
		return err
	}
	// The rename is the commit point: before it, recovery uses the previous
	// snapshot + WAL; after it, the new snapshot is authoritative and the old
	// WAL is redundant (its records are all inside the snapshot).
	if err := d.fs.Rename(tmp, final); err != nil {
		newLog.Close()       //nolint:errcheck
		d.fs.Remove(walPath) //nolint:errcheck
		d.fs.Remove(tmp)     //nolint:errcheck
		return err
	}
	// One directory fsync seals the commit: the snapshot's final name and the
	// successor WAL's entry become durable together. Past the rename there is
	// no undo — if this fsync fails, recovery might load the new snapshot yet
	// skip the old WAL that future writes would land in, so the handle is
	// poisoned instead of limping on.
	if err := d.fs.SyncDir(d.dir); err != nil {
		newLog.Close() //nolint:errcheck
		d.poisonLocked(fmt.Errorf("checkpoint commit fsync: %w", err))
		return d.fail
	}

	oldLog := d.log
	d.log = newLog
	d.seq = newSeq
	if oldLog != nil {
		oldLog.Close() //nolint:errcheck
	}
	// The fresh, empty log is the checkpoint-truncation recovery path out of
	// degraded-read-only: whatever filled or wedged the old WAL is now
	// garbage, about to be collected below.
	d.degraded.Store(false)
	d.walErrv.Store(errBox{})

	// Best-effort GC: superseded snapshots, rotated-out logs, stray temp
	// files. A crash mid-GC leaves garbage that the next recovery skips and
	// the next checkpoint retries.
	if entries, err := d.fs.ReadDir(d.dir); err == nil {
		for _, e := range entries {
			if seq, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok && seq < newSeq {
				d.fs.Remove(filepath.Join(d.dir, e.Name())) //nolint:errcheck
				delete(d.seqMeta, seq)                      // stale entry; rewritten next checkpoint
			}
			if seq, ok := parseSeq(e.Name(), walPrefix, walSuffix); ok && seq < newSeq {
				d.fs.Remove(filepath.Join(d.dir, e.Name())) //nolint:errcheck
			}
			if strings.HasSuffix(e.Name(), snapSuffix+snapTemp) && e.Name() != filepath.Base(tmp) {
				d.fs.Remove(filepath.Join(d.dir, e.Name())) //nolint:errcheck
			}
		}
	}
	return nil
}

// WALSize reports the live write-ahead log's length in bytes — the amount of
// replay work a crash right now would cost recovery — plus one frame for each
// mutation admitted but not yet committed, so the figure is consistent under
// concurrent writers: an op counts from the moment Insert accepts it, first
// as queue accounting and then as log bytes, never as both and never as
// neither. (Queued ops that a batch later rejects, e.g. duplicate inserts,
// make the pre-commit figure a slight upper bound.)
func (d *DurableIndex) WALSize() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.log == nil {
		return 0
	}
	size := d.log.Size()
	d.qmu.Lock()
	size += d.pendingBytes
	d.qmu.Unlock()
	return size
}

// Dir reports the directory backing the index.
func (d *DurableIndex) Dir() string { return d.dir }

// Close stops the retrainer and closes the WAL (with a final sync unless the
// policy is SyncNone). It does not checkpoint: the log already holds
// everything, and the next OpenDir replays it.
//
// Writers caught in flight resolve deterministically, never hang, and are
// never acked after Close returns without their write being durable: ops
// blocked in admission wake immediately with ErrIndexClosed; ops enqueued but
// not yet claimed are failed with ErrIndexClosed by the leader's next batch;
// a batch already committing finishes first — Close waits behind it on d.mu —
// and its acks (nil, durable) land before Close returns.
func (d *DurableIndex) Close() error {
	// Refuse new admissions and wake blocked ones before taking d.mu: a
	// waiter must not sleep on the space channel while Close itself is parked
	// behind an in-flight (possibly stalled) batch.
	d.qmu.Lock()
	if !d.qclosed {
		d.qclosed = true
		close(d.space) // stays closed: every future waiter wakes instantly
	}
	d.qmu.Unlock()

	// Stop the tier's background flusher before taking d.mu: a flush in
	// progress needs d.mu to finish, so waiting for it under d.mu would
	// deadlock.
	if d.tier != nil {
		d.tier.stop()
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	d.readsClosed.Store(true)
	d.broadcastSeq() // WaitSeq waiters wake and observe ErrIndexClosed
	d.ix.inner.StopRetrainer()
	err := d.log.Close()
	if d.tier != nil {
		// readsClosed is set: no new cold read can start. The barrier inside
		// closeReaders drains the in-flight ones, then the files close.
		d.tier.closeReaders()
	}
	return err
}

// Read-side forwards. Only the non-mutating surface of Index is exposed;
// mutations must go through the WAL-logged methods above.
//
// Reads keep serving the in-memory state on a poisoned or degraded handle —
// the index is read-only, not gone; that is the point of the degraded state.
// After Close, reads return clean zero values ("not found", length 0) rather
// than panicking or serving a handle the caller relinquished; Err and Health
// distinguish closed from merely empty.

// Lookup returns the value stored for key. In tiered mode a memtable miss
// falls through to the frozen run and then the segments, newest first — one
// model evaluation and one bounded pread per consulted run.
func (d *DurableIndex) Lookup(key uint64) (uint64, bool) {
	if d.readsClosed.Load() {
		return 0, false
	}
	if d.tier != nil {
		return d.tier.lookup(key)
	}
	return d.ix.Lookup(key)
}

// LookupBatch resolves keys[i] into vals[i], found[i] against one tree
// snapshot; in tiered mode misses are then resolved against the cold tiers.
// After Close every key reports clean not-found, matching Lookup. vals and
// found must be at least len(keys) long.
func (d *DurableIndex) LookupBatch(keys, vals []uint64, found []bool) {
	if d.readsClosed.Load() {
		for i := range keys {
			vals[i], found[i] = 0, false
		}
		return
	}
	d.ix.LookupBatch(keys, vals, found)
	if d.tier == nil {
		return
	}
	for i := range keys {
		if !found[i] {
			vals[i], found[i] = d.tier.lookupCold(keys[i])
		}
	}
}

// Range calls fn for every key in [lo, hi] in ascending order until fn
// returns false. In tiered mode the scan stitches a k-way merge across the
// memtable, the frozen run, and every overlapping segment, with newest-first
// shadowing and tombstone suppression.
func (d *DurableIndex) Range(lo, hi uint64, fn func(key, val uint64) bool) {
	if d.readsClosed.Load() {
		return
	}
	if d.tier != nil {
		d.tier.rangeMerged(lo, hi, fn)
		return
	}
	d.ix.Range(lo, hi, fn)
}

// Len reports the number of stored keys (across every tier, in tiered mode).
func (d *DurableIndex) Len() int {
	if d.readsClosed.Load() {
		return 0
	}
	if d.tier != nil {
		return int(d.tier.liveCount.Load())
	}
	return d.ix.Len()
}

// Bytes estimates resident size in bytes.
func (d *DurableIndex) Bytes() int {
	if d.readsClosed.Load() {
		return 0
	}
	return d.ix.Bytes()
}

// Stats reports the structural metrics of the paper's Table V.
func (d *DurableIndex) Stats() Stats {
	if d.readsClosed.Load() {
		return Stats{}
	}
	return d.ix.Stats()
}

// Height reports the deepest root-to-leaf path length.
func (d *DurableIndex) Height() int {
	if d.readsClosed.Load() {
		return 0
	}
	return d.ix.Height()
}

// LocalSkewness computes the lsn statistic over the current contents.
func (d *DurableIndex) LocalSkewness() float64 {
	if d.readsClosed.Load() {
		return 0
	}
	return d.ix.LocalSkewness()
}

// RetrainStats reports how many subtree retrains have run and the total time
// spent retraining.
func (d *DurableIndex) RetrainStats() (count int64, total time.Duration) {
	if d.readsClosed.Load() {
		return 0, 0
	}
	return d.ix.RetrainStats()
}

// Reconstructions reports how many full MARL rebuilds have run.
func (d *DurableIndex) Reconstructions() int {
	if d.readsClosed.Load() {
		return 0
	}
	return d.ix.Reconstructions()
}

// WriteTo serializes the current contents (read-only; it does not rotate the
// WAL — use Checkpoint for durable snapshots). Unlike the query surface it
// returns an explicit error on a closed handle: silently writing an empty
// snapshot would look like data loss. In tiered mode the in-memory format
// cannot represent the segment tiers, so WriteTo refuses (SnapshotAt streams
// the full tier instead) rather than silently serializing the memtable only.
func (d *DurableIndex) WriteTo(w io.Writer) (int64, error) {
	if d.readsClosed.Load() {
		return 0, ErrIndexClosed
	}
	if d.tier != nil {
		return 0, fmt.Errorf("%w: WriteTo cannot represent segments; use SnapshotAt", ErrNotTiered)
	}
	return d.ix.WriteTo(w)
}
