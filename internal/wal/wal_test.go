package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"

	"chameleon/internal/faultfs"
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

// TestReplayStopsAtCorruptFrame corrupts the second of three frames, in a v2
// log and in a v1 log: Scan keeps the first record and stops there.
func TestReplayStopsAtCorruptFrame(t *testing.T) {
	recs := []Record{{OpInsert, 0, 0}, {Op: OpDelete, Key: 0}, {OpInsert, 2, 2}}
	var v2, v1 []byte
	for _, r := range recs {
		v2 = appendFrame(v2, r)
		v1 = appendV1Frame(v1, r)
	}
	f2 := recs[0].FrameSize() // the second frame's offset, and Scan's stop
	v2Cases := map[string]func([]byte){
		"key bit flip": func(d []byte) { d[f2+3] ^= 0x40 },
		"crc bit flip": func(d []byte) { d[f2+deleteFrame-2] ^= 0x01 },
		"unknown op":   func(d []byte) { d[f2] = 0xEE },
		"zero op":      func(d []byte) { d[f2] = 0 },
	}
	v1Cases := map[string]func([]byte){
		"payload bit flip":    func(d []byte) { d[v1Frame+v1Header+3] ^= 0x40 },
		"crc bit flip":        func(d []byte) { d[v1Frame+5] ^= 0x01 },
		"zero length":         func(d []byte) { binary.LittleEndian.PutUint32(d[v1Frame:], 0) },
		"absurd length":       func(d []byte) { binary.LittleEndian.PutUint32(d[v1Frame:], 1<<30) },
		"length 18":           func(d []byte) { binary.LittleEndian.PutUint32(d[v1Frame:], v1Payload+1) },
		"unknown op":          func(d []byte) { d[v1Frame+v1Header] = 0xEE },
		"length past the end": func(d []byte) { binary.LittleEndian.PutUint32(d[v1Frame:], uint32(2*v1Frame)) },
	}
	for _, log := range []struct {
		name  string
		data  []byte
		stop  int
		cases map[string]func([]byte)
	}{{"v2", v2, f2, v2Cases}, {"v1", v1, v1Frame, v1Cases}} {
		for name, corrupt := range log.cases {
			d := append([]byte(nil), log.data...)
			corrupt(d)
			records, valid := Scan(d)
			if len(records) != 1 || valid != log.stop {
				t.Errorf("%s %s: Scan kept %d records to offset %d, want 1 record to %d",
					log.name, name, len(records), valid, log.stop)
			}
		}
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
// writer: the failing append and all later ones error, and a reopened log
// holds exactly the fully-written frames.
func TestShortWriteSticksAndRecovers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	recs := []Record{{OpInsert, 1, 1}, {Op: OpDelete, Key: 1}, {OpInsert, 2, 2}, {Op: OpDelete, Key: 2}}
	total := int64(0)
	for _, r := range recs {
		total += int64(r.FrameSize())
	}
	for budget := int64(0); budget <= total; budget++ {
		os.Remove(path) //nolint:errcheck
		fsys := &shortWriteFS{budget: budget}
		l, _, err := Open(path, Options{Policy: SyncNone, FS: fsys}, nil)
		if err != nil {
			t.Fatal(err)
		}
		acked, fit, used := 0, 0, int64(0)
		for _, r := range recs {
			if used += int64(r.FrameSize()); used <= budget {
				fit++
			}
		}
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
