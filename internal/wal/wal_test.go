package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"chameleon/internal/faultfs"
	"chameleon/internal/format"
)

func openCollect(t *testing.T, path string, opts Options) (*Log, []Record) {
	t.Helper()
	var got []Record
	l, n, err := Open(path, opts, func(r Record) { got = append(got, r) })
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if n != len(got) {
		t.Fatalf("Open reported %d records, applied %d", n, len(got))
	}
	return l, got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, got := openCollect(t, path, Options{})
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %d records", len(got))
	}
	want := []Record{
		{OpInsert, 1, 100},
		{OpInsert, 2, 200},
		{OpDelete, 1, 0},
		{OpInsert, 1 << 60, ^uint64(0)},
	}
	size := 0
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append(%+v): %v", r, err)
		}
		size += r.FrameSize()
	}
	if size != 3*insertFrame+deleteFrame || l.Size() != int64(size) {
		t.Fatalf("Size = %d, want %d", l.Size(), size)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, got := openCollect(t, path, Options{})
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestReplayTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openCollect(t, path, Options{})
	for i := uint64(0); i < 4; i++ {
		if err := l.AppendInsert(i, i*10); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendDelete(3); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A torn tail at every byte offset of the last frame, a delete: replay
	// keeps the first four records and truncates the rest.
	frame := Record{Op: OpDelete}.FrameSize()
	if len(intact) != 4*insertFrame+frame {
		t.Fatalf("log is %d bytes, want 4 inserts and a delete", len(intact))
	}
	for cut := len(intact) - frame + 1; cut < len(intact); cut++ {
		if err := os.WriteFile(path, intact[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, got := openCollect(t, path, Options{})
		if len(got) != 4 {
			t.Fatalf("cut=%d: replayed %d records, want 4", cut, len(got))
		}
		// The log is appendable after truncation and the new record lands
		// cleanly on the truncated boundary.
		if err := l2.AppendInsert(99, 990); err != nil {
			t.Fatalf("cut=%d: append after truncate: %v", cut, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		l3, got := openCollect(t, path, Options{})
		if len(got) != 5 || got[4] != (Record{OpInsert, 99, 990}) {
			t.Fatalf("cut=%d: post-truncate append lost: %+v", cut, got)
		}
		l3.Close()
	}
}

// TestReplayStopsAtCorruptFrame corrupts the second of three frames: Scan
// keeps the first record and stops there.
func TestReplayStopsAtCorruptFrame(t *testing.T) {
	recs := []Record{{OpInsert, 0, 0}, {Op: OpDelete, Key: 0}, {OpInsert, 2, 2}}
	var log []byte
	for _, r := range recs {
		log = appendFrame(log, r)
	}
	f2 := recs[0].FrameSize() // the second frame's offset, and Scan's stop
	for name, corrupt := range map[string]func([]byte){
		"key bit flip": func(d []byte) { d[f2+3] ^= 0x40 },
		"crc bit flip": func(d []byte) { d[f2+deleteFrame-2] ^= 0x01 },
		"unknown op":   func(d []byte) { d[f2] = 0xEE },
		"zero op":      func(d []byte) { d[f2] = 0 },
	} {
		d := append([]byte(nil), log...)
		corrupt(d)
		records, valid := Scan(d)
		if len(records) != 1 || valid != f2 {
			t.Errorf("%s: Scan kept %d records to offset %d, want 1 record to %d",
				name, len(records), valid, f2)
		}
	}
}

// TestLogTearAtEveryOffset cuts a log of inserts and deletes at every byte
// offset: Scan recovers exactly the frames that end at or before the cut,
// and stops at the last such boundary.
func TestLogTearAtEveryOffset(t *testing.T) {
	var data []byte
	var recs []Record
	var ends []int
	for i := uint64(0); i < 12; i++ {
		r := Record{OpInsert, i << 50, i}
		if i%3 == 2 {
			r = Record{Op: OpDelete, Key: (i - 1) << 50}
		}
		data = appendFrame(data, r)
		recs = append(recs, r)
		ends = append(ends, len(data))
	}
	whole := 0
	for cut := 0; cut <= len(data); cut++ {
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		boundary := 0
		if whole > 0 {
			boundary = ends[whole-1]
		}
		got, valid := Scan(data[:cut])
		if len(got) != whole || valid != boundary {
			t.Fatalf("cut=%d: Scan kept %d records to %d, want %d to %d", cut, len(got), valid, whole, boundary)
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("cut=%d: record %d = %+v, want %+v", cut, i, got[i], recs[i])
			}
		}
	}
}

// TestFlippedOpNeverDecodes rewrites the op byte of one frame to every other
// value and checks that the frame never decodes as a record: the CRC covers
// the op byte, and with it the frame's length. Scan stops at the mutated
// frame.
func TestFlippedOpNeverDecodes(t *testing.T) {
	// An insert whose value starts with the CRC of its bare key: read as a
	// delete, its first 13 bytes would be a valid frame if the CRC skipped
	// the op byte.
	var key [8]byte
	binary.LittleEndian.PutUint64(key[:], 0x1234_0000_0000_0000)
	bare := uint64(crc32.Checksum(key[:], castagnoli))
	head := appendFrame(nil, Record{OpInsert, 1, 1})
	tail := appendFrame(nil, Record{Op: OpDelete, Key: 1})
	for name, frame := range map[string][]byte{
		"insert":                       appendFrame(nil, Record{OpInsert, 0x1234_0000_0000_0000, 9}),
		"insert, value = bare key CRC": appendFrame(nil, Record{OpInsert, 0x1234_0000_0000_0000, bare}),
		"delete":                       appendFrame(nil, Record{Op: OpDelete, Key: 0x1234_0000_0000_0000}),
	} {
		for b := 0; b < 256; b++ {
			if byte(b) == frame[0] {
				continue
			}
			mid := append([]byte{byte(b)}, frame[1:]...)
			data := append(append(append([]byte(nil), head...), mid...), tail...)
			got, valid := Scan(data)
			if len(got) != 1 || valid != len(head) {
				t.Fatalf("%s, op byte %#x: Scan kept %d records to %d (%+v), want 1 to %d",
					name, b, len(got), valid, got, len(head))
			}
		}
	}
}

// TestRefusesV1Log: a log that starts with a v1 frame — the format before
// v2 — is refused by Open and by ReplayFile with format.ErrNeedsUpgrade,
// naming the file and leaving it as it was; a v1 frame anywhere later is
// only a torn tail.
func TestRefusesV1Log(t *testing.T) {
	v1 := appendV1Frame(nil, Record{Op: OpInsert})
	path := filepath.Join(t.TempDir(), "wal.log")
	for name, data := range map[string][]byte{
		"v1 frame":                 v1,
		"v1 frame, then v2 frames": appendFrame(append([]byte(nil), v1...), Record{OpInsert, 5, 6}),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(path, Options{}, nil); !errors.Is(err, format.ErrNeedsUpgrade) || !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: Open err = %v, want ErrNeedsUpgrade naming %s", name, err, path)
		}
		if _, err := ReplayFile(faultfs.OS, path, nil); !errors.Is(err, format.ErrNeedsUpgrade) {
			t.Fatalf("%s: ReplayFile err = %v, want ErrNeedsUpgrade", name, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: refused log changed (err %v)", name, err)
		}
	}

	// After a v2 frame a v1 frame is a tear, truncated like any other.
	if err := os.WriteFile(path, append(appendFrame(nil, Record{OpInsert, 5, 6}), v1...), 0o644); err != nil {
		t.Fatal(err)
	}
	l, got := openCollect(t, path, Options{})
	defer l.Close()
	if len(got) != 1 || l.Size() != insertFrame {
		t.Fatalf("replayed %d records to %d bytes, want 1 to %d", len(got), l.Size(), insertFrame)
	}
}

func TestSyncPolicies(t *testing.T) {
	for name, opts := range map[string]Options{
		"every-op": {Policy: SyncEveryOp},
		"interval": {Policy: SyncInterval, Interval: time.Millisecond},
		"none":     {Policy: SyncNone},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			l, _ := openCollect(t, path, opts)
			for i := uint64(0); i < 100; i++ {
				if err := l.AppendInsert(i, i); err != nil {
					t.Fatal(err)
				}
			}
			if opts.Policy == SyncInterval {
				time.Sleep(5 * time.Millisecond) // let group commit run
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, got := openCollect(t, path, Options{})
			if len(got) != 100 {
				t.Fatalf("replayed %d records, want 100", len(got))
			}
		})
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openCollect(t, path, Options{})
	l.Close()
	if err := l.AppendInsert(1, 1); err != ErrClosed {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestShortWriteSticksAndRecovers drives appends through a faultfs short
// writer, under each policy: the failing write and every append after it
// error, and a reopened log holds exactly the fully-written frames.
func TestShortWriteSticksAndRecovers(t *testing.T) {
	recs := []Record{{OpInsert, 1, 1}, {Op: OpDelete, Key: 1}, {OpInsert, 2, 2}, {Op: OpDelete, Key: 2}}
	total := int64(0)
	for _, r := range recs {
		total += int64(r.FrameSize())
	}
	// fits is how many whole frames budget bytes hold.
	fits := func(budget int64) int {
		fit, used := 0, int64(0)
		for _, r := range recs {
			if used += int64(r.FrameSize()); used <= budget {
				fit++
			}
		}
		return fit
	}
	t.Run("every_op", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		for budget := int64(0); budget <= total; budget++ {
			os.Remove(path) //nolint:errcheck
			fsys := &shortWriteFS{budget: budget}
			l, _, err := Open(path, Options{Policy: SyncEveryOp, FS: fsys}, nil)
			if err != nil {
				t.Fatal(err)
			}
			acked, fit := 0, fits(budget)
			for _, r := range recs {
				if err := l.Append(r); err != nil {
					break
				}
				acked++
			}
			if acked != fit {
				t.Fatalf("budget %d: acked %d appends, want %d", budget, acked, fit)
			}
			if acked < len(recs) {
				if err := l.AppendInsert(9, 9); err == nil {
					t.Fatalf("budget %d: append succeeded after sticky error", budget)
				}
			}
			l.Close() //nolint:errcheck // close may surface the injected error
			_, got := openCollect(t, path, Options{})
			if len(got) < acked {
				t.Fatalf("budget %d: acked %d but replayed %d", budget, acked, len(got))
			}
		}
	})
	// Under SyncNone every append only fills the buffer, so all are acked;
	// the short write surfaces at the Sync that writes them, sticks, and
	// Close reports it. The file keeps the frames the budget held whole.
	t.Run("none", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		for budget := int64(0); budget <= total; budget++ {
			os.Remove(path) //nolint:errcheck
			fsys := &shortWriteFS{budget: budget}
			l, _, err := Open(path, Options{Policy: SyncNone, FS: fsys}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if err := l.Append(r); err != nil {
					t.Fatalf("budget %d: buffered append = %v", budget, err)
				}
			}
			fit := fits(budget)
			err = l.Sync()
			if (err == nil) != (fit == len(recs)) {
				t.Fatalf("budget %d: Sync = %v with %d of %d frames in the budget", budget, err, fit, len(recs))
			}
			if fit < len(recs) {
				if err := l.AppendInsert(9, 9); err == nil {
					t.Fatalf("budget %d: append succeeded after sticky error", budget)
				}
				if err := l.Close(); err == nil {
					t.Fatalf("budget %d: Close hid the sticky error", budget)
				}
			} else if err := l.Close(); err != nil {
				t.Fatalf("budget %d: Close = %v", budget, err)
			}
			_, got := openCollect(t, path, Options{})
			if !slices.Equal(got, recs[:fit]) {
				t.Fatalf("budget %d: replayed %+v, want the %d whole frames", budget, got, fit)
			}
		}
	})
	// Under a buffered policy a write error other than disk-full kills the
	// log with acked frames still in its buffer, and they never reach the
	// file. The first two frames are synced; the last two are acked into the
	// buffer and meet the failure at Flush. Every later append, Flush and
	// Sync returns that sticky error, and a reopen replays exactly the frames
	// written before it: the synced ones and the whole frames the failing
	// write got out.
	t.Run("interval_sticky", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		synced := int64(recs[0].FrameSize() + recs[1].FrameSize())
		for budget := synced; budget < total; budget++ {
			os.Remove(path) //nolint:errcheck
			fsys := &shortWriteFS{budget: budget}
			l, _, err := Open(path, Options{Policy: SyncInterval, Interval: time.Hour, FS: fsys}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.AppendAll(recs[:2]); err != nil {
				t.Fatalf("budget %d: append = %v", budget, err)
			}
			if err := l.Sync(); err != nil {
				t.Fatalf("budget %d: Sync within the budget = %v", budget, err)
			}
			if err := l.AppendAll(recs[2:]); err != nil {
				t.Fatalf("budget %d: buffered append = %v", budget, err)
			}
			sticky := l.Flush()
			if !errors.Is(sticky, faultfs.ErrInjected) || errors.Is(sticky, ErrDiskFull) {
				t.Fatalf("budget %d: Flush = %v, want the injected, non-disk-full error", budget, sticky)
			}
			for _, op := range []struct {
				name string
				call func() error
			}{
				{"append", func() error { return l.AppendInsert(9, 9) }},
				{"Flush", l.Flush},
				{"Sync", l.Sync},
			} {
				if err := op.call(); err != sticky {
					t.Fatalf("budget %d: %s after the failure = %v, want the sticky %v", budget, op.name, err, sticky)
				}
			}
			if err := l.Close(); err == nil {
				t.Fatalf("budget %d: Close hid the sticky error", budget)
			}
			_, got := openCollect(t, path, Options{})
			if fit := fits(budget); !slices.Equal(got, recs[:fit]) {
				t.Fatalf("budget %d: replayed %+v, want the %d frames written before the failure", budget, got, fit)
			}
		}
	})
}

// shortWriteFS wraps the real FS so each opened file short-writes once the
// shared byte budget runs out.
type shortWriteFS struct {
	budget int64
}

func (s *shortWriteFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := faultfs.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &shortWriteFile{File: f, w: &faultfs.Writer{W: f, Budget: s.budget}}, nil
}
func (s *shortWriteFS) Rename(o, n string) error                { return faultfs.OS.Rename(o, n) }
func (s *shortWriteFS) Remove(n string) error                   { return faultfs.OS.Remove(n) }
func (s *shortWriteFS) ReadDir(n string) ([]os.DirEntry, error) { return faultfs.OS.ReadDir(n) }
func (s *shortWriteFS) MkdirAll(n string, p os.FileMode) error  { return faultfs.OS.MkdirAll(n, p) }
func (s *shortWriteFS) SyncDir(n string) error                  { return faultfs.OS.SyncDir(n) }

type shortWriteFile struct {
	faultfs.File
	w *faultfs.Writer
}

func (f *shortWriteFile) Write(p []byte) (int, error) { return f.w.Write(p) }

func TestScanEmptyAndGarbage(t *testing.T) {
	if recs, valid := Scan(nil); len(recs) != 0 || valid != 0 {
		t.Fatalf("Scan(nil) = %d records, offset %d", len(recs), valid)
	}
	garbage := bytes.Repeat([]byte{0xAB}, 300)
	if recs, valid := Scan(garbage); len(recs) != 0 || valid != 0 {
		t.Fatalf("Scan(garbage) = %d records, offset %d", len(recs), valid)
	}
}

// TestBufferedAppendsBatchWrites counts the file calls appends make. Under
// SyncNone, 10,000 single-record appends cost one write per bufferBytes of
// frames, plus Close's, and no fsync; under SyncEveryOp every AppendAll is
// exactly one write and one fsync, as before buffering.
func TestBufferedAppendsBatchWrites(t *testing.T) {
	rec := func(i int) Record {
		if i%2 == 1 {
			return Record{Op: OpDelete, Key: uint64(i - 1)}
		}
		return Record{OpInsert, uint64(i), uint64(i)}
	}
	t.Run("none", func(t *testing.T) {
		fsys := &countFS{FS: faultfs.OS}
		l, _, err := Open(filepath.Join(t.TempDir(), "wal.log"), Options{Policy: SyncNone, FS: fsys}, nil)
		if err != nil {
			t.Fatal(err)
		}
		bytes := int64(0)
		for i := range 10_000 {
			r := rec(i)
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
			bytes += int64(r.FrameSize())
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if limit := (bytes+bufferBytes-1)/bufferBytes + 1; fsys.writes > limit || fsys.syncs != 0 {
			t.Fatalf("%d bytes of frames took %d writes and %d fsyncs, want at most %d writes and no fsync",
				bytes, fsys.writes, fsys.syncs, limit)
		}
	})
	t.Run("every_op", func(t *testing.T) {
		fsys := &countFS{FS: faultfs.OS}
		l, _, err := Open(filepath.Join(t.TempDir(), "wal.log"), Options{Policy: SyncEveryOp, FS: fsys}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		var batch []Record
		for i := range 200 {
			batch = append(batch[:0], rec(i))
			for j := range i % 7 {
				batch = append(batch, Record{OpInsert, uint64(1<<20 + i*8 + j), 1})
			}
			w, s := fsys.writes, fsys.syncs
			if err := l.AppendAll(batch); err != nil {
				t.Fatal(err)
			}
			if fsys.writes-w != 1 || fsys.syncs-s != 1 {
				t.Fatalf("AppendAll of %d records took %d writes and %d fsyncs, want 1 and 1",
					len(batch), fsys.writes-w, fsys.syncs-s)
			}
		}
	})
}

// TestDiscardHandsOffEmptyBuffer: Discard gives the successor log the
// discarded log's buffer, emptied, so a rotation allocates no second buffer
// and none of the old log's pending frames reach the new file.
func TestDiscardHandsOffEmptyBuffer(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Policy: SyncNone}
	old, _, err := Open(filepath.Join(dir, "old.log"), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 100 {
		if err := old.Append(Record{OpInsert, uint64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	next, _, err := Open(filepath.Join(dir, "next.log"), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	handed := unsafe.SliceData(old.buf)
	if err := old.Discard(next); err != nil {
		t.Fatal(err)
	}
	if next.buf == nil || unsafe.SliceData(next.buf) != handed || len(next.buf) != 0 {
		t.Fatalf("successor's buffer: %d pending bytes, handed off %v; want the old log's, empty",
			len(next.buf), unsafe.SliceData(next.buf) == handed)
	}
	want := Record{OpInsert, 7, 7}
	if err := next.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := next.Close(); err != nil {
		t.Fatal(err)
	}
	l, got := openCollect(t, filepath.Join(dir, "next.log"), opts)
	defer l.Close()
	if len(got) != 1 || got[0] != want {
		t.Fatalf("successor replays %v, want only %v", got, want)
	}
}

// TestOnSyncTimesCommitFsyncsOnly pins which fsyncs Options.OnSync times:
// each SyncEveryOp AppendAll's and each SyncInterval tick's. A buffered
// append, even one whose frames fill the buffer and are written, reads no
// clock and reports nothing, and neither do Sync and Close.
func TestOnSyncTimesCommitFsyncsOnly(t *testing.T) {
	open := func(t *testing.T, policy SyncPolicy, interval time.Duration, calls *atomic.Int64) *Log {
		t.Helper()
		l, _, err := Open(filepath.Join(t.TempDir(), "wal.log"), Options{
			Policy: policy, Interval: interval,
			OnSync: func(time.Duration) { calls.Add(1) },
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	// 10,000 frames fill the 64 KiB buffer a few times over.
	appendMany := func(t *testing.T, l *Log) {
		t.Helper()
		for i := range 10_000 {
			if err := l.Append(Record{OpInsert, uint64(i), 1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("none", func(t *testing.T) {
		var calls atomic.Int64
		appendMany(t, open(t, SyncNone, 0, &calls))
		if n := calls.Load(); n != 0 {
			t.Fatalf("OnSync called %d times, want none", n)
		}
	})
	t.Run("interval_buffered", func(t *testing.T) {
		var calls atomic.Int64
		appendMany(t, open(t, SyncInterval, time.Hour, &calls))
		if n := calls.Load(); n != 0 {
			t.Fatalf("OnSync called %d times with no tick, want none", n)
		}
	})
	t.Run("interval_tick", func(t *testing.T) {
		var calls atomic.Int64
		l := open(t, SyncInterval, time.Millisecond, &calls)
		defer l.Close()
		if err := l.Append(Record{OpInsert, 1, 1}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for calls.Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("no tick's fsync reached OnSync")
			}
			time.Sleep(time.Millisecond)
		}
	})
	t.Run("every_op", func(t *testing.T) {
		var calls atomic.Int64
		l := open(t, SyncEveryOp, 0, &calls)
		for i := range 200 {
			if err := l.AppendAll([]Record{{OpInsert, uint64(i), 1}, {OpDelete, uint64(i), 0}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if n := calls.Load(); n != 200 {
			t.Fatalf("OnSync called %d times for 200 appends, want 200", n)
		}
	})
}

// countFS counts the writes and fsyncs of the files it opens.
type countFS struct {
	faultfs.FS
	writes, syncs int64
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

type countFile struct {
	faultfs.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	f.fs.writes++
	return f.File.Write(p)
}

func (f *countFile) Sync() error {
	f.fs.syncs++
	return f.File.Sync()
}
