// Package wal is the write-ahead log behind the durable Chameleon API. Every
// acknowledged Insert/Delete is framed, checksummed, and appended here before
// it is applied in memory, so a crash between checkpoints loses nothing the
// caller was told succeeded (under the every-op sync policy; the interval and
// none policies trade that window for throughput, and say so: they keep up
// to bufferBytes of acked frames in the log's buffer and write them in one
// write(2)).
//
// Frame format (all little-endian). The writer emits v2 frames, sized to the
// record, with the op byte first:
//
//	insert: [1] op=1  [8] key  [8] value  [4] CRC32C of the preceding 17 bytes
//	delete: [1] op=2  [8] key             [4] CRC32C of the preceding 9 bytes
//
// so an insert costs 21 bytes and a delete 13; the op implies the length.
// There is no file header. Logs written before v2 start with a v1 frame
// ([4] length 17, [4] CRC32C, then op, key and value): Open and ReplayFile
// refuse them with format.ErrNeedsUpgrade before they read a record or
// change a byte.
//
// Replay reads frames until the first torn or corrupt one — a short frame, an
// unknown first byte, or a CRC mismatch — and truncates the log there instead
// of failing: a torn tail is the expected signature of a crash mid-append,
// not corruption worth refusing to start over. Everything before the tear is
// intact by CRC (which covers the op byte, and so the frame's length), so
// recovery is exact up to the last fully-acknowledged record.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"syscall"
	"time"

	"chameleon/internal/faultfs"
	"chameleon/internal/format"
)

// Op tags a WAL record.
type Op byte

const (
	// OpInsert records Insert(Key, Val).
	OpInsert Op = 1
	// OpDelete records Delete(Key); Val is zero.
	OpDelete Op = 2
)

// Record is one logged mutation.
type Record struct {
	Op  Op
	Key uint64
	Val uint64
}

// FrameSize is r's on-disk cost: its v2 frame length, 21 bytes for an insert
// and 13 for a delete. The admission layer above budgets queue bytes with it.
func (r Record) FrameSize() int {
	if r.Op == OpDelete {
		return deleteFrame
	}
	return insertFrame
}

// SyncPolicy picks when appends are written and fsynced.
type SyncPolicy int

const (
	// SyncEveryOp writes and fsyncs each AppendAll before it returns: an
	// acknowledged write survives a process kill and an OS crash. The
	// default.
	SyncEveryOp SyncPolicy = iota
	// SyncInterval buffers: AppendAll leaves its frames in the log's buffer,
	// written when it holds bufferBytes, and a background goroutine writes
	// and fsyncs it every Options.Interval. A process kill loses the buffer
	// (at most bufferBytes of acked frames, and at most one interval's); an
	// OS crash loses up to one interval. Sync and Close write and fsync it.
	SyncInterval
	// SyncNone buffers as SyncInterval does and never fsyncs; the OS flushes
	// the file on its own schedule. A process kill loses the buffer; an OS
	// crash can lose everything since the last checkpoint. Close writes the
	// buffer; Sync writes and fsyncs it.
	SyncNone
)

// Options configures Open.
type Options struct {
	// Policy is the sync policy (default SyncEveryOp).
	Policy SyncPolicy
	// Interval is the SyncInterval group-commit period (default 10ms).
	Interval time.Duration
	// FS overrides the filesystem; tests inject faults here. Nil means the
	// real one.
	FS faultfs.FS
	// OnSync, if set, is called with how long each fsync that commits
	// appends took, the write(2) before it included: a successful
	// SyncEveryOp AppendAll, timed whole, and a SyncInterval tick. Sync and
	// Close are not timed, and a buffered AppendAll reads no clock.
	OnSync func(time.Duration)
}

const (
	crcLen      = 4
	deleteFrame = 1 + 8 + crcLen     // op + key + CRC
	insertFrame = 1 + 8 + 8 + crcLen // op + key + val + CRC

	// v1Payload is a v1 frame's length field, and v1Frame its size: the
	// length, a CRC32C, then the payload of op, key and value.
	v1Payload = 17
	v1Frame   = 8 + v1Payload
)

// FrameSize is the largest frame the writer emits (an insert's). A record's
// own cost is Record.FrameSize.
const FrameSize = insertFrame

// bufferBytes is how many acked frame bytes a buffered policy (SyncInterval,
// SyncNone) holds before AppendAll writes them: one write(2) per ~3,800
// frames at an even insert/delete mix, and the most a process kill can lose.
const bufferBytes = 64 << 10

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by appends to a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrDiskFull is the *retryable* out-of-space failure: the append did not
// happen, the log was rolled back to its previous frame boundary, and the
// next append may succeed once space is freed (or the log is superseded by a
// checkpoint). Unlike every other append failure it is not sticky — the log
// stays open and consistent. It always wraps the underlying ENOSPC.
var ErrDiskFull = errors.New("wal: disk full (retryable: free space or checkpoint, then retry)")

// Log is an append-only write-ahead log. Appends are serialized internally;
// the durable index layer additionally serializes append+apply so replay
// order matches apply order.
type Log struct {
	mu     sync.Mutex
	f      faultfs.File
	path   string
	policy SyncPolicy
	size   int64 // bytes in the file, ending at a frame boundary
	err    error // sticky I/O failure; the log is dead once set
	closed bool

	stop   chan struct{} // interval-sync goroutine lifecycle
	done   chan struct{}
	onSync func(time.Duration) // Options.OnSync

	// buf holds the frames not yet written, reused under mu: under a
	// buffered policy the acked frames awaiting flushLocked, under
	// SyncEveryOp only the batch being appended.
	buf []byte
}

// Open opens or creates the log at path, replays every intact record into
// apply (which must not fail — recovery tolerates redundant ops), truncates
// any torn tail, and leaves the log ready for appends. The number of replayed
// records is returned. A log that starts with a v1 frame is refused before
// any of that (package comment).
func Open(path string, opts Options, apply func(Record)) (*Log, int, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(f)
	if err == nil {
		err = refuseV1(path, data)
	}
	if err != nil {
		f.Close() //nolint:errcheck
		return nil, 0, err
	}
	nrec, valid := Replay(data, apply)
	if int64(valid) != int64(len(data)) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close() //nolint:errcheck
			return nil, nrec, err
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close() //nolint:errcheck
		return nil, nrec, err
	}
	l := &Log{f: f, path: path, policy: opts.Policy, onSync: opts.OnSync, size: int64(valid)}
	if opts.Policy == SyncInterval {
		interval := opts.Interval
		if interval <= 0 {
			interval = 10 * time.Millisecond
		}
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop(interval)
	}
	return l, nrec, nil
}

// ReplayFile applies every intact record of the log at path without opening
// it for writing — a rotated-out log — and reports how many there were. A
// missing file holds none.
func ReplayFile(fsys faultfs.FS, path string, apply func(Record)) (int, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	data, err := io.ReadAll(f)
	f.Close() //nolint:errcheck // read-only
	if err == nil {
		err = refuseV1(path, data)
	}
	if err != nil {
		return 0, err
	}
	n, _ := Replay(data, apply)
	return n, nil
}

// refuseV1 fails if data starts with a CRC-valid v1 frame. Every log an
// older build wrote does, whether or not a later build extended it with v2
// frames; replaying it would stop at that first frame and truncate the whole
// log as a torn tail.
func refuseV1(path string, data []byte) error {
	if len(data) >= v1Frame && binary.LittleEndian.Uint32(data) == v1Payload &&
		crc32.Checksum(data[8:v1Frame], castagnoli) == binary.LittleEndian.Uint32(data[4:]) {
		return fmt.Errorf("wal: %s starts with a v1 frame: %w", path, format.ErrNeedsUpgrade)
	}
	return nil
}

// Scan parses data as a frame sequence, returning the intact records and the
// byte offset of the first torn or corrupt frame (== len(data) when the whole
// buffer is intact). It never fails: everything after the first bad frame is
// untrusted and ignored.
func Scan(data []byte) (records []Record, valid int) {
	off := 0
	for {
		r, n, ok := parseFrame(data, off)
		if !ok {
			return records, off
		}
		records = append(records, r)
		off += n
	}
}

// parseFrame decodes the frame starting at off, returning the record, the
// frame's total byte length, and whether it was intact. The first byte is
// the op, which implies the length; a short or CRC-mismatched frame, or any
// other first byte, reports ok=false — the caller treats off as the torn
// tail.
func parseFrame(data []byte, off int) (r Record, n int, ok bool) {
	if off >= len(data) {
		return Record{}, 0, false
	}
	switch data[off] {
	case byte(OpInsert), byte(OpDelete):
		r.Op = Op(data[off])
		n = r.FrameSize()
		if off+n > len(data) {
			return Record{}, 0, false
		}
		body := data[off : off+n-crcLen]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[off+n-crcLen:]) {
			return Record{}, 0, false
		}
		r.Key = binary.LittleEndian.Uint64(body[1:])
		if r.Op == OpInsert {
			r.Val = binary.LittleEndian.Uint64(body[9:])
		}
		return r, n, true
	}
	return Record{}, 0, false
}

// replayBatch is how many decoded records the pipelined replay hands to the
// applier at a time; big enough to amortize the channel, small enough that
// the decode goroutine stays a batch or two ahead rather than materializing
// the whole log.
const replayBatch = 512

// Replay applies every intact record of data, pipelined: one goroutine
// parses and CRC-verifies frames while the caller's goroutine applies the
// previous batch, so recovery overlaps checksum work with the (heavier)
// index re-insertion instead of alternating between them. Records are
// applied strictly in log order — pipelining changes who verifies a frame,
// never when its record is applied relative to its neighbors. Like Scan it
// returns the count of intact records and the byte offset of the first torn
// frame; a nil apply degrades to a plain scan.
func Replay(data []byte, apply func(Record)) (records, valid int) {
	if apply == nil || len(data) < 4*replayBatch*FrameSize {
		recs, valid := Scan(data)
		for _, r := range recs {
			if apply != nil {
				apply(r)
			}
		}
		return len(recs), valid
	}
	ch := make(chan []Record, 4)
	tail := 0 // written by the producer before close(ch); read after the drain
	go func() {
		defer close(ch)
		off := 0
		batch := make([]Record, 0, replayBatch)
		for {
			r, n, ok := parseFrame(data, off)
			if !ok {
				break
			}
			batch = append(batch, r)
			off += n
			if len(batch) == replayBatch {
				ch <- batch
				batch = make([]Record, 0, replayBatch)
			}
		}
		if len(batch) > 0 {
			ch <- batch
		}
		tail = off
	}()
	for batch := range ch {
		for _, r := range batch {
			apply(r)
		}
		records += len(batch)
	}
	return records, tail
}

// appendFrame encodes r as one v2 frame onto dst and returns the extended
// buffer: r.FrameSize() bytes, a delete's value omitted. Append writes
// exactly this, so multi-record batches are byte-identical to serial appends:
// a batch is nothing but consecutive frames, and Scan cannot tell (and need
// not care) where one append ended and the next began.
func appendFrame(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, byte(r.Op))
	dst = binary.LittleEndian.AppendUint64(dst, r.Key)
	if r.Op != OpDelete {
		dst = binary.LittleEndian.AppendUint64(dst, r.Val)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// AppendAll frames every record as consecutive frames, the group-commit
// primitive. Under SyncEveryOp it writes them in one write(2) and one fsync
// before returning: a nil return means every record in the batch is
// durable, the fsync paid once for the whole batch. Under the buffered
// policies it appends them to the log's buffer and writes the buffer only
// once it holds bufferBytes; an error from that write refuses this batch
// alone, and the frames acked before it stay pending for the next flush.
// The frames are laid out exactly as len(recs) individual Appends would have
// laid them out, so replay of a batched log is indistinguishable from replay
// of a serial one, and a torn tail still truncates at a frame boundary: a
// crash mid-write surfaces a clean prefix, never a partially-applied frame.
func (l *Log) AppendAll(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	if l.onSync == nil || l.policy != SyncEveryOp { // a buffered append has no fsync to time
		return l.appendAll(recs)
	}
	start := time.Now()
	err := l.appendAll(recs)
	if err == nil {
		l.onSync(time.Since(start))
	}
	return err
}

func (l *Log) appendAll(recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if l.buf == nil && l.policy != SyncEveryOp {
		// Sized once, with room for the batch that fills it. Grown by
		// appends instead, it took ~25 allocations per log, and the repo
		// benchmark's embed_tier peak RSS was 2-4 % higher on a 2-vCPU VM.
		// A rotated log is handed its predecessor's instead (Discard).
		l.buf = make([]byte, 0, bufferBytes+4<<10)
	}
	mark := len(l.buf) // 0 under SyncEveryOp: nothing stays pending there
	for _, r := range recs {
		l.buf = appendFrame(l.buf, r)
	}
	if l.policy != SyncEveryOp && len(l.buf) < bufferBytes {
		return nil
	}
	if err := l.flushLocked(); err != nil {
		l.buf = l.buf[:mark]
		return err
	}
	return nil
}

// flushLocked writes the pending frames in one write(2), and fsyncs them
// under SyncEveryOp. Failures are classified: disk-full that rolls back
// cleanly is retryable (the frames stay pending, and the log keeps accepting
// appends once space exists); anything else is sticky and kills the log,
// because the bytes on disk can no longer be trusted to end at a frame
// boundary the in-memory size agrees with. A dead log's pending frames never
// reach the file. Callers hold l.mu.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if l.err != nil {
		return l.err
	}
	start := l.size
	n, err := l.f.Write(l.buf)
	l.size += int64(n)
	if err != nil {
		return l.failLocked("append", start, false, err)
	}
	if l.policy == SyncEveryOp {
		if err := l.f.Sync(); err != nil {
			return l.failLocked("sync", start, true, err)
		}
	}
	l.buf = l.buf[:0]
	return nil
}

// failLocked classifies a write-path failure at the given pre-write offset.
// ENOSPC is retryable if the torn tail can be truncated back to the last
// frame boundary: the file holds exactly what it held before the write, and
// the caller may retry after freeing space. resync additionally fsyncs
// the rolled-back file — required when the failing call was the fsync itself,
// since the page-cache state past the last successful sync is unknowable
// until a sync succeeds again. If rollback fails, the error is sticky.
func (l *Log) failLocked(stage string, start int64, resync bool, err error) error {
	if errors.Is(err, syscall.ENOSPC) && l.rollbackLocked(start, resync) == nil {
		return fmt.Errorf("wal: %s: %w: %w", stage, ErrDiskFull, err)
	}
	l.err = fmt.Errorf("wal: %s: %w", stage, err)
	return l.err
}

// rollbackLocked restores the log to the given size (a frame boundary) after
// a failed append.
func (l *Log) rollbackLocked(size int64, resync bool) error {
	if err := l.f.Truncate(size); err != nil {
		return err
	}
	if _, err := l.f.Seek(size, io.SeekStart); err != nil {
		return err
	}
	if resync {
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	l.size = size
	return nil
}

// Flush writes the pending frames to the file without an fsync, so that a
// process kill after it returns nil loses none of them. A rotation calls it
// before the successor log exists: recovery replays the old log, then the
// new one, and frames left behind in the old log's buffer would come back as
// a hole. A disk-full failure is retryable and keeps the frames pending.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.flushLocked()
}

// Sync writes the pending frames and fsyncs, regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: sync: %w", err)
		return l.err
	}
	return nil
}

// Size reports the log length in bytes: the intact frames in the file plus
// the pending ones.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size + int64(len(l.buf))
}

// Path reports the log's file path.
func (l *Log) Path() string { return l.path }

// Close stops the group-commit goroutine, writes the pending frames, fsyncs
// (unless the policy is SyncNone), and closes the file. It returns the first
// failure, and the sticky one when pending frames could not be written.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop, done := l.stop, l.done
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.flushLocked()
	if err == nil && l.err == nil && l.policy != SyncNone {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Discard closes a log whose records a committed snapshot or manifest
// already holds, dropping its pending frames instead of writing them: the
// caller is about to remove the file. The emptied buffer goes to next, the
// log that succeeds l, when nothing has been appended to next yet, so a
// rotation reuses one buffer instead of allocating another; next may be nil.
func (l *Log) Discard(next *Log) error {
	l.mu.Lock()
	buf := l.buf[:0]
	l.buf = nil
	l.mu.Unlock()
	err := l.Close()
	if next != nil {
		next.mu.Lock()
		if next.buf == nil {
			next.buf = buf
		}
		next.mu.Unlock()
	}
	return err
}

func (l *Log) syncLoop(interval time.Duration) {
	defer close(l.done)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-tick.C:
			l.mu.Lock()
			start, synced := time.Now(), false
			if !l.closed && l.err == nil {
				// A disk-full write keeps its frames pending for the next
				// flush; the fsync still covers what the file holds.
				l.flushLocked() //nolint:errcheck
				if l.err == nil {
					if err := l.f.Sync(); err != nil {
						l.err = fmt.Errorf("wal: sync: %w", err)
					} else {
						synced = true
					}
				}
			}
			l.mu.Unlock()
			if synced && l.onSync != nil {
				l.onSync(time.Since(start))
			}
		}
	}
}
