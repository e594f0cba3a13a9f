package wal

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"chameleon/internal/faultfs"
)

// TestAppendDiskFullRetryable drives the log into a write-stage ENOSPC and
// checks the retryable contract under each policy: the torn write is rolled
// back to the last frame boundary, the error is ErrDiskFull and not sticky,
// only the append that met it is refused, and appends succeed again once
// space is freed — with the final on-disk log containing exactly the acked
// records.
func TestAppendDiskFullRetryable(t *testing.T) {
	t.Run("every_op", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "w.log")
		q := faultfs.NewQuotaFS(faultfs.OS, 2*FrameSize+FrameSize/2)
		l, _, err := Open(path, Options{Policy: SyncEveryOp, FS: q}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendInsert(1, 10); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendInsert(2, 20); err != nil {
			t.Fatal(err)
		}
		// The third frame crosses the quota: a torn write, rolled back.
		err = l.AppendInsert(3, 30)
		if !errors.Is(err, ErrDiskFull) {
			t.Fatalf("over-quota append = %v, want ErrDiskFull", err)
		}
		if l.Err() != nil {
			t.Fatalf("disk-full made the log sticky: %v", l.Err())
		}
		if l.Size() != 2*FrameSize {
			t.Fatalf("Size after rollback = %d, want %d", l.Size(), 2*FrameSize)
		}
		// Still full: same clean failure, no decay.
		if err := l.AppendInsert(4, 40); !errors.Is(err, ErrDiskFull) {
			t.Fatalf("second over-quota append = %v, want ErrDiskFull", err)
		}
		// Space freed: appends work again on the same handle.
		q.AddCapacity(10 * FrameSize)
		if err := l.AppendInsert(5, 50); err != nil {
			t.Fatalf("append after freeing space = %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, valid := Scan(data)
		if valid != len(data) {
			t.Fatalf("log has a torn tail after rollback: valid %d of %d", valid, len(data))
		}
		want := []Record{{OpInsert, 1, 10}, {OpInsert, 2, 20}, {OpInsert, 5, 50}}
		if len(recs) != len(want) {
			t.Fatalf("recovered %d records, want %d (%+v)", len(recs), len(want), recs)
		}
		for i, r := range want {
			if recs[i] != r {
				t.Fatalf("record %d = %+v, want %+v", i, recs[i], r)
			}
		}
	})
	t.Run("none", testAppendDiskFullBuffered)
}

// testAppendDiskFullBuffered is the SyncNone row. Appends only fill the
// buffer, so the quota is met by the write of a full buffer: the append that
// filled it is refused, the frames acked before it stay pending (Size counts
// them, the file holds none of them), the next append and Sync meet the
// quota again, and the first write after space is freed lands all of them.
// Close meets it too, when the buffer is not full.
func testAppendDiskFullBuffered(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.log")
	q := faultfs.NewQuotaFS(faultfs.OS, 2*FrameSize+FrameSize/2)
	l, _, err := Open(path, Options{Policy: SyncNone, FS: q}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var acked []Record
	for k := uint64(1); ; k++ {
		r := Record{OpInsert, k, k * 10}
		if err := l.Append(r); err != nil {
			if !errors.Is(err, ErrDiskFull) {
				t.Fatalf("append %d = %v, want ErrDiskFull", k, err)
			}
			break
		}
		acked = append(acked, r)
	}
	if n := len(acked); (n+1)*FrameSize < bufferBytes || n*FrameSize >= bufferBytes {
		t.Fatalf("ErrDiskFull after %d acked frames, want it from the append that filled the %d-byte buffer", n, bufferBytes)
	}
	if l.Err() != nil {
		t.Fatalf("disk-full made the log sticky: %v", l.Err())
	}
	if got, want := l.Size(), int64(len(acked)*FrameSize); got != want {
		t.Fatalf("Size after the refused append = %d, want %d (the acked frames, pending)", got, want)
	}
	if q.Used() != 0 {
		t.Fatalf("file holds %d bytes after rollback, want 0", q.Used())
	}
	// Still full: the next append and an explicit Sync meet the quota the
	// same clean way.
	if err := l.AppendInsert(1<<40, 1); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("second over-quota append = %v, want ErrDiskFull", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrDiskFull) || l.Err() != nil {
		t.Fatalf("Sync while full = %v (sticky %v), want a retryable ErrDiskFull", err, l.Err())
	}
	// Space freed: the next append writes every pending frame with its own.
	q.AddCapacity(1 << 20)
	last := Record{OpInsert, 1 << 41, 50}
	if err := l.Append(last); err != nil {
		t.Fatalf("append after freeing space = %v", err)
	}
	acked = append(acked, last)
	if got, want := q.Used(), int64(len(acked)*FrameSize); got != want {
		t.Fatalf("file holds %d bytes after the retry, want every acked frame: %d", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, valid := Scan(data)
	if valid != len(data) || !slices.Equal(recs, acked) {
		t.Fatalf("log holds %d records (%d of %d bytes intact), want exactly the %d acked", len(recs), valid, len(data), len(acked))
	}

	// A buffer short of full meets a full disk at Close, which reports it;
	// the file is rolled back to its last frame boundary.
	path = filepath.Join(dir, "close.log")
	q = faultfs.NewQuotaFS(faultfs.OS, FrameSize/2)
	l, _, err = Open(path, Options{Policy: SyncNone, FS: q}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 3; k++ {
		if err := l.AppendInsert(k, k); err != nil {
			t.Fatalf("buffered append %d = %v", k, err)
		}
	}
	if err := l.Close(); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("Close on a full disk = %v, want ErrDiskFull", err)
	}
	if data, err := os.ReadFile(path); err != nil || len(data) != 0 {
		t.Fatalf("log after the failed Close holds %d bytes (err %v), want 0", len(data), err)
	}
}

// TestSyncDiskFullRetryable injects ENOSPC from fsync (the frame reached the
// page cache but could not be committed): the log must roll the unsynced
// frame back, re-establish a durable boundary with a follow-up sync, and stay
// usable.
func TestSyncDiskFullRetryable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.log")
	q := faultfs.NewQuotaFS(faultfs.OS, 1<<20)
	l, _, err := Open(path, Options{Policy: SyncEveryOp, FS: q}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendInsert(1, 10); err != nil {
		t.Fatal(err)
	}
	q.FailNextSyncs(1)
	if err := l.AppendInsert(2, 20); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("failed-sync append = %v, want ErrDiskFull", err)
	}
	if l.Err() != nil {
		t.Fatalf("sync disk-full made the log sticky: %v", l.Err())
	}
	if l.Size() != FrameSize {
		t.Fatalf("Size after sync rollback = %d, want %d", l.Size(), FrameSize)
	}
	if err := l.AppendInsert(3, 30); err != nil {
		t.Fatalf("append after sync recovery = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := Scan(data)
	want := []Record{{OpInsert, 1, 10}, {OpInsert, 3, 30}}
	if len(recs) != 2 || recs[0] != want[0] || recs[1] != want[1] {
		t.Fatalf("recovered %+v, want %+v", recs, want)
	}
}
