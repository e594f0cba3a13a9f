package chameleon

import (
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
	"chameleon/internal/format"
	"chameleon/internal/segment"
	"chameleon/internal/wal"
)

// SyncPolicy picks when acknowledged writes reach stable storage.
//
// Under SyncInterval and SyncNone an acknowledged write's WAL frame waits in
// the log's 64 KiB buffer, which is written in one write(2) when it fills,
// at each SyncInterval tick, when a tiered flush rotates the log, and on
// Close. A process kill loses that buffer: at most 64 KiB of frames, about
// 3,800 writes of an even insert/delete mix. Close writes it and returns a
// failed write; Checkpoint makes every acknowledged write durable under
// every policy.
type SyncPolicy int

const (
	// SyncEveryOp writes and fsyncs the WAL before every Insert/Delete
	// returns: an acknowledged write survives a process kill and an OS
	// crash. The default, and the slowest.
	SyncEveryOp SyncPolicy = iota
	// SyncInterval buffers, and writes and fsyncs the buffer every
	// DirOptions.SyncEvery (default 10ms). A kill loses the buffer; an OS
	// crash can lose up to one interval of acknowledged writes. Everything
	// older is safe.
	SyncInterval
	// SyncNone buffers and leaves fsyncing to the OS. A kill loses the
	// buffer; an OS crash can lose everything since the last Checkpoint.
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
	// for space when BlockOnFull is set. Zero means unbounded. A
	// WriteBatchCtx entry of n mutations needs room for all n; one larger
	// than MaxPending is admitted only into an empty queue, which it then
	// overfills alone.
	MaxPending int
	// BlockOnFull makes a full queue apply backpressure: mutations wait for
	// space (respecting their context deadline) instead of failing fast with
	// ErrOverloaded.
	BlockOnFull bool

	// Tiered switches the directory to tiered disk-resident storage
	// (tier.go): hot writes stay in the in-memory index backed by the WAL,
	// and a background flusher freezes the memtable into immutable sorted
	// segments instead of Checkpoint rewriting monolithic snapshots. A
	// directory that already has a tier manifest always opens tiered,
	// regardless of this flag; one that holds a legacy snapshot is refused
	// with ErrLayoutMismatch when the flag is set.
	//
	// A tier's memtable runs no retrainer, whatever RetrainEvery says;
	// writer-inline reconstruction (ReconstructThreshold) is its only
	// maintenance. Measured with RetrainEvery 10ms, a 100 k-key bulk load
	// and 20 k inserts flushed every 5 k: no retrainer after open, after
	// BulkLoad or after any flush; 0 retrains, 20 reconstructions.
	Tiered bool
	// MemtableBytes is the approximate in-memory delta size that triggers a
	// background flush (default 4 MiB). Entries are accounted at 16 bytes.
	MemtableBytes int64
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
	ix *Index // the legacy engine's index; nil when tiered (see tier.mem)

	mu     sync.Mutex // serializes batch commits, checkpoints, and Close
	fs     faultfs.FS
	dir    string
	log    *wal.Log
	seq    uint64 // highest snapshot/WAL rotation seen or written
	opts   DirOptions
	closed bool
	fail   error // sticky: set when on-disk and in-memory state may diverge

	// tier is the disk-resident segment tier (tier.go); nil in legacy
	// snapshot mode. Set once at open, before the handle escapes.
	tier *tier

	// Replication plumbing (replseq.go). commitSeq counts records ever
	// durably committed — the monotonic clock replication sequences on; it is
	// advanced under d.mu and recovered from the bases snapshot and WAL
	// names carry (replayChain). commitHook, when set, runs inside
	// commitBatch after durability, before acks. seqWaitCh broadcasts
	// commit-sequence advancement to WaitSeq waiters (made by the first
	// waiter, closed and cleared by the next advance, under seqWaitMu, which
	// nests inside any other lock).
	commitSeq  atomic.Uint64
	commitHook func(firstSeq uint64, recs []wal.Record) error
	seqWaitMu  sync.Mutex
	seqWaitCh  chan struct{}

	// Group-commit queue of entries (pendingEntry). Writers enqueue under qmu
	// (held only for the append); the first writer to find no leader becomes
	// one and commits its own entry as a batch, paying one WAL write + one
	// fsync; if writers queued meanwhile, a drainer goroutine takes over the
	// leadership and commits them batch by batch, fanning acks back over
	// each follower's done channel (see commit). qmu orders only the queue;
	// d.mu still orders every batch against checkpoints and Close. Lock
	// order is d.mu → qmu, never the reverse. The queue's backing array and
	// the leader's batch trade places on every claim (claimLocked), and the
	// batch a stint ends on is kept as spare for the next stint's first
	// claim, so a steady stream of writers reuses two arrays instead of
	// growing new ones.
	qmu     sync.Mutex
	queue   []*pendingEntry
	spare   []*pendingEntry // nil while a leader holds it
	leader  bool
	qclosed bool          // Close observed; admission refuses
	idle    chan struct{} // made by a Close waiting out a leader, closed when it resigns
	// soloRun counts the batches since the last one that acked followers;
	// only the current leader touches it (leadership passes under qmu, or
	// to a drainer at its start).
	soloRun uint

	// Admission accounting: ops admitted but not yet committed (queued plus
	// the batch in flight). Enqueue increments; a batch's commit or an
	// entry's cancellation decrements. space broadcasts "room freed" to writers
	// blocked by BlockOnFull: the first such waiter makes it, the next
	// release (or Close) closes it and clears it. A waiter re-checks qclosed
	// under qmu before it makes or waits on one, so none waits after Close.
	pendingOps   int
	pendingBytes int64
	highWater    int
	space        chan struct{}

	// Batch scratch, reused by every commitBatch under d.mu: the records a
	// batch logs, the error slots of the ops they belong to, and the
	// validation overlay of a batch of more than one op (see commitBatch).
	recs     []wal.Record
	accepted []*error
	overlay  map[uint64]bool

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
	fsyncHist       *fsyncHist
	retrainPaused   atomic.Bool
	retrainPauses   atomic.Uint64
}

// pendingEntry is one group-commit entry: the mutations of one call, a lone
// Insert or Delete or a WriteBatchCtx run, queued, admitted, claimed and
// withdrawn as a unit. The committing leader sets errs[i] (nil = acked
// durable per the sync policy) for every recs[i] before it wakes a
// follower with one send on done. follower marks an entry that queued
// behind a leader, set under qmu before any claim can see the entry: a
// leader resolves its own entry and never waits on it, so nothing is sent.
//
// state arbitrates the race between the leader claiming the entry into a
// batch and the entry's own goroutine cancelling on context expiry: exactly
// one CAS from opQueued wins. A claimed entry is (or is about to be) in a
// committing batch, so its canceller must wait for the batch's real outcome
// — this is what makes cancellation two-state for each op (ctx.Err() with no
// durable effect, or its true outcome; never anything in between).
//
// Entries come from entryPool and go back to it once their call has read
// the outcome (putEntry), so a steady write stream allocates none. done is
// made the first time an entry waits as a follower and kept across its
// lives: each send is received exactly once (waitFollower), so the slot is
// empty whenever the entry returns to the pool.
type pendingEntry struct {
	recs     []wal.Record
	errs     []error
	bytes    int64 // the log frames recs take: pendingBytes' share
	done     chan struct{}
	follower bool
	state    atomic.Int32
	// one and oneErr back recs and errs for an entry of one.
	one    [1]wal.Record
	oneErr [1]error
}

var entryPool = sync.Pool{New: func() any { return new(pendingEntry) }}

// putEntry returns e to the pool once its call has read the outcome. An
// entry its canceller withdrew (opCancelled) is dropped instead: it stays
// in d.queue until the next claim skips it, and a reuse before then could
// be claimed there.
func putEntry(e *pendingEntry) {
	if e.state.Load() == opCancelled {
		return
	}
	e.recs, e.errs, e.oneErr[0] = nil, nil, nil
	e.bytes, e.follower = 0, false
	e.state.Store(opQueued)
	entryPool.Put(e)
}

// fail resolves every op of an entry that never reached a batch.
func (e *pendingEntry) fail(err error) {
	for i := range e.errs {
		e.errs[i] = err
	}
}

const (
	opQueued int32 = iota
	opClaimed
	opCancelled
)

// ErrIndexClosed is returned by operations on a closed DurableIndex.
var ErrIndexClosed = errors.New("chameleon: durable index closed")

// ErrOverloaded is returned by mutations shed at admission when the
// group-commit queue is at its configured bound (DirOptions.MaxPending) and
// BlockOnFull is off. A shed mutation was never logged and never applied —
// retrying later is always safe.
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

// ErrNeedsUpgrade is returned by OpenDir and OpenShardedDir for a file an
// older build wrote in a format this one no longer reads: a snapshot, WAL,
// segment or directory layout that a later format replaced. The open
// refuses before it changes anything on disk, and the error names the file.
// To carry such a directory forward, open it with the last build that reads
// it, BulkLoad what Range returns, and close it (DESIGN.md §7).
var ErrNeedsUpgrade = format.ErrNeedsUpgrade

// ErrLayoutMismatch is returned when a directory is in another layout than
// the one asked for: OpenDir on a sharded root or, with Tiered set, on a
// directory holding a legacy snapshot; OpenShardedDir on an unsharded
// directory. Nothing on disk or in memory has changed when it is returned.
// Layouts do not convert in place: BulkLoad what Range returns into a fresh
// directory of the wanted layout, or follow a primary of the old layout
// with a node of the new one and promote it (DESIGN.md §7).
var ErrLayoutMismatch = errors.New("chameleon: directory is in another layout")

const (
	snapPrefix = "snapshot-"
	snapSuffix = ".ckpt"
	snapTemp   = ".tmp"
	walPrefix  = "wal-"
	walSuffix  = ".log"
)

// A snapshot or WAL file is named by its rotation number and the commit
// sequence it starts at, its base: snapshot-<rot>-<base>.ckpt holds the
// state as of commit base, and record i (1-based) of wal-<rot>-<base>.log is
// commit base+i. The directory listing is the commit clock's map.
func snapName(rot, base uint64) string {
	return fmt.Sprintf("%s%016d-%016d%s", snapPrefix, rot, base, snapSuffix)
}

func walName(rot, base uint64) string {
	return fmt.Sprintf("%s%016d-%016d%s", walPrefix, rot, base, walSuffix)
}

// fileID is the rotation and base a snapshot or WAL name carries.
type fileID struct{ rot, base uint64 }

// parseName splits a snapshot-<rot>-<base>.ckpt / wal-<rot>-<base>.log name.
func parseName(name, prefix, suffix string) (fileID, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return fileID{}, false
	}
	r, b, found := strings.Cut(name[len(prefix):len(name)-len(suffix)], "-")
	rot, err1 := strconv.ParseUint(r, 10, 64)
	base, err2 := strconv.ParseUint(b, 10, 64)
	return fileID{rot, base}, found && err1 == nil && err2 == nil
}

// listFiles returns dir's WALs oldest first and its snapshots newest first,
// each ordered by rotation, then base.
func listFiles(fsys faultfs.FS, dir string) (logs, snaps []fileID, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if id, ok := parseName(e.Name(), walPrefix, walSuffix); ok {
			logs = append(logs, id)
		}
		if id, ok := parseName(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, id)
		}
	}
	older := func(a, b fileID) bool { return a.rot < b.rot || (a.rot == b.rot && a.base < b.base) }
	sort.Slice(logs, func(i, j int) bool { return older(logs[i], logs[j]) })
	sort.Slice(snaps, func(i, j int) bool { return older(snaps[j], snaps[i]) })
	return logs, snaps, nil
}

// isStateFile reports whether name is a snapshot or a WAL.
func isStateFile(name string) bool {
	_, snap := parseName(name, snapPrefix, snapSuffix)
	_, log := parseName(name, walPrefix, walSuffix)
	return snap || log
}

// refuseLayout fails with ErrNeedsUpgrade if dir is in the layout from
// before snapshot and WAL names carried their base: snapshot-<rot>.ckpt and
// wal-<rot>.log, with the bases in a seq-<gen>.meta or seq.meta sidecar. It
// fails with ErrLayoutMismatch if dir holds the layout not asked for: a
// shard manifest when sharded is false, an unsharded index's snapshots,
// WALs, segments or tier manifests when it is true.
func refuseLayout(fsys faultfs.FS, dir string, sharded bool) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if name == "seq.meta" || isOldName(name, "seq-", ".meta") ||
			isOldName(name, snapPrefix, snapSuffix) || isOldName(name, walPrefix, walSuffix) {
			return fmt.Errorf("chameleon: %s is in the layout from before names carried a commit sequence: %w",
				filepath.Join(dir, name), ErrNeedsUpgrade)
		}
	}
	for _, e := range entries {
		name := e.Name()
		_, isSeg := segment.ParseFileName(name)
		_, isMan := segment.ParseManifestName(name)
		if sharded && (isStateFile(name) || isSeg || isMan) {
			return fmt.Errorf("chameleon: %s belongs to an unsharded index: %w", filepath.Join(dir, name), ErrLayoutMismatch)
		}
		if !sharded && name == shardManifestName {
			return fmt.Errorf("chameleon: %s makes this a sharded root: %w", filepath.Join(dir, name), ErrLayoutMismatch)
		}
	}
	return nil
}

// isOldName reports whether name is prefix, a number, then suffix.
func isOldName(name, prefix, suffix string) bool {
	mid, ok1 := strings.CutPrefix(name, prefix)
	mid, ok2 := strings.CutSuffix(mid, suffix)
	_, err := strconv.ParseUint(mid, 10, 64)
	return ok1 && ok2 && err == nil
}

// walOptions is the single place DirOptions maps onto wal.Options — both the
// initial OpenDir and every checkpoint rotation go through it, so the sync
// policy and interval defaulting can never diverge between the log a
// directory opens with and the logs it rotates to. A zero or negative
// SyncEvery normalizes to the documented 10ms default here, in exactly one
// place.
func walOptions(opts DirOptions, fsys faultfs.FS, hist *fsyncHist) wal.Options {
	interval := opts.SyncEvery
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	wo := wal.Options{Policy: wal.SyncPolicy(opts.Sync), Interval: interval, FS: fsys}
	if hist != nil {
		wo.OnSync = hist.observe
	}
	return wo
}

// OpenDir opens (or initializes) a durable index rooted at dir. Recovery runs
// first: the newest snapshot that passes its integrity checks is loaded —
// corrupt or torn snapshots are skipped, falling back to older ones — and
// every write-ahead log at or after that snapshot is replayed in order. The
// returned index reflects every acknowledged write the configured sync policy
// promised to keep. A file in a retired format fails the open with
// ErrNeedsUpgrade, and a directory in another layout with ErrLayoutMismatch,
// before anything on disk changes.
func OpenDir(dir string, opts DirOptions) (*DurableIndex, error) {
	return openDirFS(dir, opts, faultfs.OS)
}

// openDirFS is OpenDir over an injectable filesystem; TestCrashSweep
// recovers with the real one after crashing a faultfs.CrashFS workload.
func openDirFS(dir string, opts DirOptions, fsys faultfs.FS) (*DurableIndex, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := refuseLayout(fsys, dir, false); err != nil {
		return nil, err
	}
	logs, snaps, err := listFiles(fsys, dir)
	if err != nil {
		return nil, err
	}
	// A directory with a tier manifest is tiered, whatever the options say:
	// opening it through the legacy path would ignore the segments entirely.
	man, err := segment.LoadManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	if man != nil {
		return openTieredDir(dir, opts, fsys, man, logs, snaps)
	}
	if opts.Tiered && len(snaps) > 0 {
		return nil, fmt.Errorf("chameleon: %s is a legacy snapshot, so the directory cannot open tiered: %w",
			filepath.Join(dir, snapName(snaps[0].rot, snaps[0].base)), ErrLayoutMismatch)
	}

	// Load the newest snapshot that checks out, falling back past corrupt
	// ones — but never silently: if snapshots exist and none loads, refuse to
	// open. Proceeding from an empty base would ack fresh writes on top of a
	// near-total loss the caller never agreed to.
	ix := New(opts.Options)
	var chosen fileID
	loaded := len(snaps) == 0
	var snapErr error
	for _, s := range snaps {
		path := filepath.Join(dir, snapName(s.rot, s.base))
		if err := loadSnapshot(fsys, path, ix); err != nil {
			if errors.Is(err, ErrNeedsUpgrade) {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if snapErr == nil {
				snapErr = fmt.Errorf("%s: %w", snapName(s.rot, s.base), err)
			}
			continue
		}
		chosen, loaded = s, true
		break
	}
	if !loaded {
		return nil, fmt.Errorf("%w: %d candidate(s), newest: %v",
			ErrSnapshotsUnreadable, len(snaps), snapErr)
	}

	// Replay tolerates redundancy: a record already reflected in the
	// snapshot (possible only on fallback paths) must not fail recovery.
	hist := new(fsyncHist)
	log, live, clock, err := replayChain(fsys, dir, walOptions(opts, fsys, hist), logs, chosen.rot, chosen.base, func(r wal.Record) {
		switch r.Op {
		case wal.OpInsert:
			ix.inner.Insert(r.Key, r.Val) //nolint:errcheck
		case wal.OpDelete:
			ix.inner.Delete(r.Key) //nolint:errcheck
		}
	})
	if err != nil {
		return nil, err
	}
	seq := live.rot
	if len(snaps) > 0 && snaps[0].rot > seq {
		seq = snaps[0].rot // never reuse the rotation of a corrupt newer snapshot
	}
	d := &DurableIndex{fs: fsys, dir: dir, log: log, seq: seq, opts: opts, fsyncHist: hist}
	d.commitSeq.Store(clock)
	if opts.Tiered {
		// A tiered directory before its first flush: the recovered WAL tail
		// is the memtable, which runs no retrainer (DirOptions.Tiered).
		d.tier = newTier(d, nil, nil, newMemtable(ix), int64(ix.Len()))
		return d, nil
	}
	if opts.RetrainEvery > 0 {
		ix.inner.StartRetrainer(opts.RetrainEvery)
	}
	d.ix = ix
	return d, nil
}

// replayChain is the one WAL replay both engines recover through, onto a
// base state that holds every commit up to w: a loaded snapshot (w its
// base) or the segments a tier manifest names (w its FlushedSeq). The WALs
// at rotation minRot or later are replayed oldest first; record i of
// wal-<rot>-<base> is commit base+i and reaches apply iff that is above w.
// A log older than minRot, the loaded snapshot's rotation, is never
// replayed: its records are all in the snapshot, and if GC removed its
// successor (removal is best-effort), replaying it would resurrect the keys
// that successor deleted — phantoms.
//
// The recovered clock is max(w, base + records) over the non-empty logs. An
// empty log never advances it: a replace pre-creates its successor under
// the new base before the commit that adopts that base, and a crash in
// between leaves exactly such a log. The newest log becomes the live one
// (wal.Open truncates its torn tail). If none is left at or after minRot a
// fresh wal-<minRot>-<clock> is created, and an empty live log whose base is
// not the clock is renamed to carry it: records appended to it replay from
// that base. The directory fsync before returning makes a created or
// renamed live log's entry durable; without it, power loss could drop the
// file and every write acked to it, even under SyncEveryOp.
func replayChain(fsys faultfs.FS, dir string, wo wal.Options, logs []fileID, minRot, w uint64, apply func(wal.Record)) (*wal.Log, fileID, uint64, error) {
	clock := w
	live := fileID{rot: minRot}
	var log *wal.Log
	liveRecs := 0
	for i, id := range logs {
		if id.rot < minRot {
			continue
		}
		seq := id.base
		step := func(r wal.Record) {
			seq++
			if seq > w {
				apply(r)
			}
		}
		path := filepath.Join(dir, walName(id.rot, id.base))
		var n int
		var err error
		if i == len(logs)-1 {
			live = id
			log, n, err = wal.Open(path, wo, step)
			liveRecs = n
		} else {
			n, err = wal.ReplayFile(fsys, path, step)
		}
		if err != nil {
			return nil, fileID{}, 0, err
		}
		if n > 0 {
			clock = max(clock, id.base+uint64(n))
		}
	}
	if log == nil || (liveRecs == 0 && live.base != clock) {
		path := filepath.Join(dir, walName(live.rot, clock))
		if log != nil {
			log.Close() //nolint:errcheck // empty, and about to be reopened
			if err := fsys.Rename(filepath.Join(dir, walName(live.rot, live.base)), path); err != nil {
				return nil, fileID{}, 0, err
			}
		}
		live.base = clock
		var err error
		if log, _, err = wal.Open(path, wo, nil); err != nil {
			return nil, fileID{}, 0, err
		}
	}
	if err := fsys.SyncDir(dir); err != nil {
		log.Close() //nolint:errcheck
		return nil, fileID{}, 0, err
	}
	return log, live, clock, nil
}

// loadSnapshot streams one snapshot file into ix, failing on any integrity
// violation (the envelope CRC plus ReadFrom's structural checks).
func loadSnapshot(fsys faultfs.FS, path string, ix *Index) error {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close() //nolint:errcheck // read-only
	_, err = ix.inner.ReadFrom(f)
	return err
}

// writeFileAtomic replaces path with what write produces, crash-safely: a
// temporary file, fsync, rename over path, directory fsync. A crash leaves
// the old file or the new one, never a torn one.
func writeFileAtomic(fsys faultfs.FS, path string, write func(io.Writer) error) error {
	tmp := path + snapTemp
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp) //nolint:errcheck // the write error is the one to report
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// writeBytes is a writeFileAtomic producer for a ready buffer.
func writeBytes(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
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
	d.index().inner.StopRetrainer()
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
	return d.commitOne(context.Background(), wal.Record{Op: wal.OpInsert, Key: key, Val: val})
}

// InsertCtx is Insert honoring a context deadline or cancellation. The result
// is exactly two-state: a ctx.Err() return means the mutation had no durable
// effect and was never applied; a nil return means it is durable per the sync
// policy. If cancellation arrives after the op has been claimed into a
// committing batch, InsertCtx waits for the batch's outcome and reports it —
// a write that may already be on disk is never reported as cancelled.
func (d *DurableIndex) InsertCtx(ctx context.Context, key, val uint64) error {
	return d.commitOne(ctx, wal.Record{Op: wal.OpInsert, Key: key, Val: val})
}

// Delete logs the removal and then applies it. Like Insert it participates in
// group commit and in admission control.
func (d *DurableIndex) Delete(key uint64) error {
	return d.commitOne(context.Background(), wal.Record{Op: wal.OpDelete, Key: key})
}

// DeleteCtx is Delete honoring a context deadline or cancellation, with the
// same two-state contract as InsertCtx.
func (d *DurableIndex) DeleteCtx(ctx context.Context, key uint64) error {
	return d.commitOne(ctx, wal.Record{Op: wal.OpDelete, Key: key})
}

// WriteBatchCtx commits recs, each an OpInsert or OpDelete, as one
// group-commit entry and sets errs[i] to the outcome of recs[i]; errs must
// be at least len(recs) long, and neither slice may be touched until the
// call returns. The entry is admitted or shed whole: it needs room for all
// its ops under MaxPending (see DirOptions.MaxPending for one larger than
// the bound), and a shed or refused entry reports the same error for every
// op. Each op is validated as if the ops had been issued one after another
// in slice order — a duplicate insert fails alone, an insert then a delete
// of one key both succeed — so an entry is not a transaction: its ops
// succeed or fail one by one, and all it promises beyond the single-op
// calls is that they reach the log together and in order. Cancellation is
// two-state per op, as for InsertCtx: an entry no leader has claimed is
// withdrawn whole, every op reporting ctx.Err() with no durable effect; a
// claimed entry reports each op's true outcome.
func (d *DurableIndex) WriteBatchCtx(ctx context.Context, recs []wal.Record, errs []error) {
	if len(recs) == 0 {
		return
	}
	errs = errs[:len(recs)]
	clear(errs)
	e := entryPool.Get().(*pendingEntry)
	e.recs, e.errs = recs, errs
	d.commit(ctx, e)
	putEntry(e)
}

// commitOne commits rec as an entry of one.
func (d *DurableIndex) commitOne(ctx context.Context, rec wal.Record) error {
	e := entryPool.Get().(*pendingEntry)
	e.one[0] = rec
	e.recs, e.errs = e.one[:], e.oneErr[:]
	d.commit(ctx, e)
	err := e.errs[0]
	putEntry(e)
	return err
}

// soloYieldEvery is how many batches in a row that acked no follower make a
// lone writer, and how often a lone writer's leader still yields (see
// commit).
const soloYieldEvery = 16

// admitsLocked reports whether the queue has room for an entry of n ops: n
// more fit under MaxPending, or nothing is pending (so an entry larger than
// the bound is admitted alone rather than never). Callers hold qmu.
func (d *DurableIndex) admitsLocked(n int) bool {
	return d.opts.MaxPending <= 0 || d.pendingOps+n <= d.opts.MaxPending || d.pendingOps == 0
}

// commit admits, enqueues, and blocks until a leader has committed (or
// rejected) entry e. The first writer to find no active leader becomes the
// leader and commits a batch of its own entry alone: with no leader, the
// queue was empty when e joined it. After that batch it yields (see
// yieldAfter) and returns; if writers queued behind it meanwhile, it first
// hands the leadership to a drainer goroutine that commits them (drain). So
// a leader's caller waits for one batch, not for every batch queued while
// it leads, and can join the next one sooner. Followers wait; their
// latency is at most one in-flight batch plus their own.
func (d *DurableIndex) commit(ctx context.Context, e *pendingEntry) {
	if err := ctx.Err(); err != nil {
		e.fail(err) // dead context: reject before touching the queue
		return
	}
	n := len(e.recs)
	for _, r := range e.recs {
		e.bytes += int64(r.FrameSize())
	}
	d.qmu.Lock()
	for {
		if d.qclosed {
			d.qmu.Unlock()
			e.fail(ErrIndexClosed)
			return
		}
		if d.admitsLocked(n) {
			break
		}
		if !d.opts.BlockOnFull {
			d.shedOps.Add(uint64(n))
			d.qmu.Unlock()
			e.fail(ErrOverloaded)
			return
		}
		if d.space == nil {
			d.space = make(chan struct{})
		}
		wait := d.space
		d.qmu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			d.cancelledOps.Add(uint64(n))
			e.fail(ctx.Err()) // never admitted: trivially no durable effect
			return
		}
		d.qmu.Lock()
	}
	d.queue = append(d.queue, e)
	d.pendingOps += n
	d.pendingBytes += e.bytes
	if d.pendingOps > d.highWater {
		d.highWater = d.pendingOps
	}
	d.updateRetrainPauseLocked()
	if d.leader {
		if e.done == nil {
			e.done = make(chan struct{}, 1)
		}
		e.follower = true
		d.qmu.Unlock()
		d.waitFollower(ctx, e)
		return
	}
	d.leader = true
	batch := d.claimLocked(d.spare) // [e]: nothing else is queued, nothing can cancel e
	d.spare = nil
	d.qmu.Unlock()
	d.commitBatch(batch) // resolves e on this goroutine
	d.yieldAfter(true)   // nobody else was acked
	d.qmu.Lock()
	if len(d.queue) > 0 {
		d.qmu.Unlock()
		go d.drain(batch)
		return
	}
	d.resignLocked(batch)
	d.qmu.Unlock()
}

// drain leads the entries queued behind a leader that has returned: it
// claims them, commits them as a batch and yields, until a claim comes back
// empty, and then resigns. spent is the returned leader's batch. A drainer
// ignores every writer's ctx: abandoning the queue would strand the
// followers in it, and a claimed entry reports its true outcome anyway.
func (d *DurableIndex) drain(spent []*pendingEntry) {
	d.qmu.Lock()
	for {
		batch := d.claimLocked(spent)
		if len(batch) == 0 {
			d.resignLocked(batch)
			d.qmu.Unlock()
			return
		}
		d.qmu.Unlock()
		d.commitBatch(batch)
		d.yieldAfter(false) // a drainer's batches hold followers only
		spent = batch
		d.qmu.Lock()
	}
}

// yieldAfter runs after each committed batch, before the leader looks at
// the queue again. It yields so that writers acked by the batch, which are
// runnable but may not have re-enqueued yet (on few cores they only run
// when this goroutine pauses), land in the next batch: one scheduler hop of
// leader latency buys a write(2), an fsync under SyncEveryOp, and a d.mu
// hold shared by a whole batch instead of paid by stragglers. solo reports
// that the batch acked no follower. Only a run of more than soloYieldEvery
// solo batches marks a lone writer, which then yields only every
// soloYieldEvery-th batch: often enough that writers the leader cannot see
// (runnable but not yet enqueued) get in and end the run, rarely enough
// that a lone writer pays a fraction of the hop. Under SyncEveryOp the hop
// is a rounding error next to the fsync it may share, so the leader always
// yields.
func (d *DurableIndex) yieldAfter(solo bool) {
	if solo {
		d.soloRun++
	} else {
		d.soloRun = 0
	}
	if d.opts.Sync == SyncEveryOp || d.soloRun <= soloYieldEvery || d.soloRun%soloYieldEvery == 0 {
		runtime.Gosched()
	}
}

// resignLocked ends a leadership stint on an empty queue. spent, the
// stint's last batch, becomes the spare the next leader claims into, and a
// Close waiting for the stint to end wakes. Callers hold qmu.
func (d *DurableIndex) resignLocked(spent []*pendingEntry) {
	clear(spent)
	d.spare = spent[:0]
	d.leader = false
	d.updateRetrainPauseLocked()
	if d.idle != nil {
		close(d.idle)
		d.idle = nil
	}
}

// claimLocked moves every still-queued entry into a batch, skipping (and
// dropping) entries whose canceller won the CAS race. The batch is filtered
// in place in the queue's array, and spent, the previous batch, becomes the
// new queue once its entries are cleared. Callers hold qmu.
func (d *DurableIndex) claimLocked(spent []*pendingEntry) []*pendingEntry {
	batch := d.queue[:0]
	for _, e := range d.queue {
		if e.state.CompareAndSwap(opQueued, opClaimed) {
			batch = append(batch, e)
		}
	}
	clear(d.queue[len(batch):])
	clear(spent)
	d.queue = spent[:0]
	return batch
}

// waitFollower blocks a non-leader writer until its entry resolves or its
// context dies. On cancellation the entry is withdrawn, whole, only if the
// leader has not claimed it; once claimed, its frames may already be
// durable, so the follower must wait out the batch and report the true
// outcomes.
func (d *DurableIndex) waitFollower(ctx context.Context, e *pendingEntry) {
	select {
	case <-e.done:
		return
	case <-ctx.Done():
	}
	if e.state.CompareAndSwap(opQueued, opCancelled) {
		// Withdrawn before any leader touched it: release its accounting.
		// The entry stays in d.queue until the next claim pass drops it.
		d.qmu.Lock()
		d.pendingOps -= len(e.recs)
		d.pendingBytes -= e.bytes
		d.signalSpaceLocked()
		d.updateRetrainPauseLocked()
		d.qmu.Unlock()
		d.cancelledOps.Add(uint64(len(e.recs)))
		e.fail(ctx.Err())
		return
	}
	<-e.done // claimed: in (or past) a committing batch — outcomes are real
}

// signalSpaceLocked broadcasts "queue space freed" to writers blocked in
// admission by closing the space channel, if one of them made it; the next
// waiter makes a fresh one. Callers hold qmu.
func (d *DurableIndex) signalSpaceLocked() {
	if d.space == nil {
		return
	}
	close(d.space)
	d.space = nil
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
		d.index().PauseRetrainer()
	case d.retrainPaused.Load() && d.pendingOps <= hi/2:
		d.retrainPaused.Store(false)
		d.index().ResumeRetrainer()
	}
}

// overlayKeep is the most keys a batch may put in the validation overlay
// for the map to be kept for the next batch.
const overlayKeep = 4096

// commitBatch validates, logs, applies, and acks one batch of entries. It
// holds d.mu for the whole batch so a checkpoint can never rotate the WAL
// between a batch's append and its in-memory apply — the replay-order
// invariant (WAL order == apply order, and every logged record *is* applied
// before the log it lives in can be superseded) is what recovery
// correctness rests on.
func (d *DurableIndex) commitBatch(batch []*pendingEntry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer func() {
		// The slot is empty (see pendingEntry), so no send blocks under
		// d.mu. A woken follower may recycle its entry at once: read
		// nothing of an entry after its send.
		for _, e := range batch {
			if e.follower {
				e.done <- struct{}{}
			}
		}
	}()
	// Release the batch's admission accounting while still holding d.mu
	// (defers run LIFO: this runs before the acks above and long before d.mu
	// unlocks). WALSize also orders d.mu → qmu, so it observes either
	// "queued, not yet in the log" or "in the log, accounting released" —
	// never both, never neither.
	ops, bytes := 0, int64(0)
	for _, e := range batch {
		ops += len(e.recs)
		bytes += e.bytes
	}
	defer func() {
		d.qmu.Lock()
		d.pendingOps -= ops
		d.pendingBytes -= bytes
		d.signalSpaceLocked()
		d.updateRetrainPauseLocked()
		d.qmu.Unlock()
	}()

	if err := d.usableLocked(); err != nil {
		for _, e := range batch {
			e.fail(err)
		}
		return
	}

	// Validate in arrival order, entry by entry and op by op, before logging
	// anything, so the WAL records exactly the mutations that will be
	// applied — a logged-but-rejected insert would materialize as a phantom
	// key on replay. Validation of op k must see the effects of the ops
	// accepted before it in the same batch (a duplicate insert inside one
	// batch fails exactly as it would have serially), so earlier accepts are
	// tracked in a presence overlay, kept across batches and cleared after
	// each. A batch of one op has no earlier op and needs none.
	var overlay map[uint64]bool
	if ops > 1 {
		if d.overlay == nil {
			d.overlay = make(map[uint64]bool, ops)
		}
		overlay = d.overlay
	}
	accepted, recs := d.accepted[:0], d.recs[:0]
	defer func() {
		clear(accepted) // the ops are acked; do not keep their slots reachable
		d.accepted, d.recs = accepted[:0], recs[:0]
		// Clearing costs the map's capacity, not its entries: one that an
		// unusually large batch grew is dropped rather than kept.
		if len(overlay) > overlayKeep {
			d.overlay = nil
		} else {
			clear(overlay)
		}
	}()
	for _, e := range batch {
		for i, rec := range e.recs {
			if rec.Op != wal.OpInsert && rec.Op != wal.OpDelete {
				e.errs[i] = fmt.Errorf("chameleon: record op %d is neither an insert nor a delete", rec.Op)
				continue
			}
			present, known := overlay[rec.Key]
			if !known {
				var verr error
				present, verr = d.presentLocked(rec.Key)
				if verr != nil {
					// A segment I/O failure during validation fails this op
					// without logging it; the handle itself stays usable.
					e.errs[i] = fmt.Errorf("validate: %w", verr)
					continue
				}
			}
			if rec.Op == wal.OpInsert && present {
				e.errs[i] = ErrDuplicateKey
				continue
			}
			if rec.Op == wal.OpDelete && !present {
				e.errs[i] = ErrKeyNotFound
				continue
			}
			if overlay != nil {
				overlay[rec.Key] = rec.Op == wal.OpInsert
			}
			accepted = append(accepted, &e.errs[i])
			recs = append(recs, rec)
		}
	}
	if len(recs) == 0 {
		return
	}

	// Every accepted op the tail did not apply reports its error: after a
	// failed append that is all of them (some frames may still have reached
	// disk; an unacked op surfacing after recovery is within contract), after
	// a poison the rest.
	first := d.commitSeq.Load() + 1
	n, err := d.logApplyLocked(recs)
	if err != nil {
		for _, slot := range accepted[n:] {
			*slot = err
		}
		return
	}

	// The batch's records now carry commit sequences [first, first+len-1].
	// The hook (replication) runs after durability and apply but before the
	// deferred acks: a non-nil hook error is reported to every writer in the
	// batch instead of nil — the write is durable locally, so this is the
	// documented ambiguous-fate outcome (see SetCommitHook).
	if d.commitHook != nil {
		if err := d.commitHook(first, recs); err != nil {
			for _, slot := range accepted {
				*slot = err
			}
		}
	}
}

// logApplyLocked is the tail both write paths share, group commit and
// replicated batches: one contiguous WAL write and at most one fsync for
// recs, then apply in log order, advance the commit clock and nudge the
// flusher. It returns how many records it applied. On a failed append that
// is 0 and the error is the append's: disk full is the retryable case (the
// WAL rolled itself back to the last frame boundary, nothing diverged, and
// the handle goes degraded-read-only until space is freed or a rotation);
// any other failure is sticky in the log and stops future appends until a
// rotation. The caller validated recs, so an apply failure means memory no
// longer matches what was just made durable: the handle is poisoned and
// d.fail returned. Callers hold d.mu.
func (d *DurableIndex) logApplyLocked(recs []wal.Record) (int, error) {
	if err := d.log.AppendAll(recs); err != nil {
		if errors.Is(err, wal.ErrDiskFull) {
			d.diskFullBatches.Add(1)
		} else {
			d.walErrv.Store(errBox{err}) // sticky until a rotation
		}
		d.degraded.Store(true)
		return 0, err
	}
	// walErrv is set only while degraded: clear it on the way out, not on
	// every batch (boxing errBox{} into the atomic.Value allocates).
	if d.degraded.Swap(false) {
		d.walErrv.Store(errBox{})
	}
	d.batches.Add(1)
	d.batchedOps.Add(uint64(len(recs)))
	if n := int64(len(recs)); n > d.maxBatch.Load() {
		d.maxBatch.Store(n) // written only under d.mu
	}
	for i, r := range recs {
		if err := d.applyRecordLocked(r); err != nil {
			d.poisonLocked(fmt.Errorf("apply after log: %w", err))
			return i, d.fail
		}
	}
	d.advanceCommitSeq(uint64(len(recs)))
	if d.tier != nil {
		d.tier.maybeSignalFlush()
	}
	return len(recs), nil
}

// BulkLoad rebuilds the index from sorted keys and immediately makes the
// data durable. A replace is one commit: it advances the commit clock by
// one, and the state it writes carries the new base — the same replace a
// snapshot restore makes (replaceLocked; tier.replaceLocked). The commit
// hook then sees the replace as a call with no records. Bulk data never
// passes through the WAL, so a failure after the commit point poisons the
// handle (fail-stop) rather than letting acked state diverge; a tiered
// failure before it leaves the previous state and no new file.
func (d *DurableIndex) BulkLoad(keys, vals []uint64) error {
	if d.tier != nil {
		return d.tier.bulkLoad(keys, vals)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.replaceLocked(keys, vals, d.commitSeq.Load()+1); err != nil {
		return err
	}
	d.replaceHookLocked()
	return nil
}

// replaceLocked replaces the legacy index's entire contents with the sorted
// run (keys, vals) as of asOfSeq, which becomes the local commit sequence.
// The atomic snapshot it writes under that sequence is the commit point. A
// run behind the local clock fails with ErrRestoreBehind, and an invalid
// one as the in-memory BulkLoad does, both before anything changes; a
// failure after the index is rebuilt poisons. Callers hold d.mu.
func (d *DurableIndex) replaceLocked(keys, vals []uint64, asOfSeq uint64) error {
	if err := d.usableLocked(); err != nil {
		return err
	}
	if asOfSeq < d.commitSeq.Load() {
		return fmt.Errorf("%w: snapshot at %d, local at %d", ErrRestoreBehind, asOfSeq, d.commitSeq.Load())
	}
	if err := d.ix.BulkLoad(keys, vals); err != nil {
		return err
	}
	d.commitSeq.Store(asOfSeq)
	if err := d.checkpointLocked(); err != nil {
		d.poisonLocked(fmt.Errorf("replace checkpoint: %w", err))
		return d.fail
	}
	d.broadcastSeq()
	return nil
}

// replaceHookLocked hands the commit hook a replace that just became the
// commit at the current clock: its sequence, with no records. A replace is
// acknowledged locally only — a follower crosses it by a snapshot bootstrap,
// which needs d.mu, so waiting here for its acknowledgement could never
// succeed. Callers hold d.mu.
func (d *DurableIndex) replaceHookLocked() {
	if d.commitHook != nil {
		d.commitHook(d.commitSeq.Load(), nil) //nolint:errcheck
	}
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

func (d *DurableIndex) checkpointLocked() error {
	newSeq, base := d.seq+1, d.commitSeq.Load()
	final := filepath.Join(d.dir, snapName(newSeq, base))
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
	next, abort, err := d.successorWALLocked(base)
	if err != nil {
		d.fs.Remove(tmp) //nolint:errcheck
		return err
	}
	// The rename is the commit point: before it, recovery uses the previous
	// snapshot + WAL; after it, the new snapshot is authoritative and the old
	// WAL is redundant (its records are all inside the snapshot).
	if err := d.fs.Rename(tmp, final); err != nil {
		abort()
		d.fs.Remove(tmp) //nolint:errcheck
		return err
	}
	// One directory fsync seals the commit: the snapshot's final name and the
	// successor WAL's entry, each carrying the clock, become durable
	// together. Past the rename there is no undo — if this fsync fails,
	// recovery might load the new snapshot yet skip the old WAL that future
	// writes would land in, so the handle is poisoned instead of limping on.
	if err := d.fs.SyncDir(d.dir); err != nil {
		next.Close() //nolint:errcheck
		d.poisonLocked(fmt.Errorf("checkpoint commit fsync: %w", err))
		return d.fail
	}
	// The snapshot holds every acked record, the old log's pending frames
	// included, so the swap drops them rather than write them to a file GC is
	// about to remove. Writing them first would also need room a full disk
	// does not have, and this rotation is how a full disk recovers; the
	// fresh, empty log is the way out of degraded-read-only.
	d.swapWALLocked(next)

	// Best-effort GC: superseded snapshots, rotated-out logs, stray temp
	// files. A crash mid-GC leaves garbage that the next recovery skips and
	// the next checkpoint retries.
	if entries, err := d.fs.ReadDir(d.dir); err == nil {
		for _, e := range entries {
			snap, isSnap := parseName(e.Name(), snapPrefix, snapSuffix)
			log, isWAL := parseName(e.Name(), walPrefix, walSuffix)
			if (isSnap && snap.rot < newSeq) || (isWAL && log.rot < newSeq) ||
				(strings.HasSuffix(e.Name(), snapSuffix+snapTemp) && e.Name() != filepath.Base(tmp)) {
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

// Close stops the retrainer and closes the WAL: it writes the WAL's buffered
// frames and fsyncs unless the policy is SyncNone, and returns the error if
// that fails. It does not checkpoint: the log holds everything, and the next
// OpenDir replays it.
//
// Writers caught in flight resolve deterministically, never hang, and are
// never acked after Close returns without their write being durable: ops
// blocked in admission wake immediately with ErrIndexClosed; a batch already
// committing finishes first — Close waits behind it on d.mu — and its acks
// (nil, durable) land before Close returns; ops enqueued but not yet claimed
// are failed with ErrIndexClosed by the leader's next batch, and Close
// returns only once that leader has resigned, so no group-commit goroutine
// outlives it.
func (d *DurableIndex) Close() error {
	// Refuse new admissions and wake blocked ones before taking d.mu: a
	// waiter must not sleep on the space channel while Close itself is parked
	// behind an in-flight (possibly stalled) batch.
	d.qmu.Lock()
	d.signalSpaceLocked()
	d.qclosed = true
	d.qmu.Unlock()

	// Stop the tier's background flusher before taking d.mu: a flush in
	// progress needs d.mu to finish, so waiting for it under d.mu would
	// deadlock.
	if d.tier != nil {
		d.tier.stop()
	}

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.readsClosed.Store(true)
	d.broadcastSeq() // WaitSeq waiters wake and observe ErrIndexClosed
	d.index().inner.StopRetrainer()
	err := d.log.Close()
	if d.tier != nil {
		// readsClosed is set: no new cold read can start. retire's barrier
		// drains the in-flight ones, then the files close.
		d.tier.retire(d.tier.segs.Load().readers)
	}
	d.mu.Unlock()

	// Admission is shut, so the queue only shrinks: the leader's remaining
	// batches fail at once (usableLocked) and it resigns.
	d.qmu.Lock()
	if !d.leader {
		d.qmu.Unlock()
		return err
	}
	if d.idle == nil {
		d.idle = make(chan struct{})
	}
	idle := d.idle
	d.qmu.Unlock()
	<-idle
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
// filter probe, a fence-key search and at most one block pread per
// consulted run.
func (d *DurableIndex) Lookup(key uint64) (uint64, bool) {
	if d.readsClosed.Load() {
		return 0, false
	}
	if d.tier == nil {
		return d.ix.Lookup(key)
	}
	v, ok, err := d.tier.get(key)
	if err != nil {
		d.tier.coldErrs.Add(1)
	}
	return v, ok
}

// LookupBatch resolves keys[i] into vals[i], found[i]: against one tree
// snapshot in legacy mode, and key by key through the tiers, as Lookup
// does, in tiered mode. After Close every key reports clean not-found,
// matching Lookup. vals and found must be at least len(keys) long.
func (d *DurableIndex) LookupBatch(keys, vals []uint64, found []bool) {
	if d.readsClosed.Load() {
		for i := range keys {
			vals[i], found[i] = 0, false
		}
		return
	}
	if d.tier == nil {
		d.ix.LookupBatch(keys, vals, found)
		return
	}
	for i, k := range keys {
		var err error
		if vals[i], found[i], err = d.tier.get(k); err != nil {
			d.tier.coldErrs.Add(1)
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

// Stats reports the structural metrics of the paper's Table V (the memtable's, when tiered).
func (d *DurableIndex) Stats() Stats {
	if d.readsClosed.Load() {
		return Stats{}
	}
	return d.index().Stats()
}

// index is the in-memory index writes land in: the legacy engine's, or the
// tier's current memtable.
func (d *DurableIndex) index() *Index {
	if d.tier != nil {
		return d.tier.mem.Load().ix
	}
	return d.ix
}
