package faultfs

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// ErrNoSpace is the injected disk-full failure. It wraps syscall.ENOSPC so a
// single errors.Is(err, syscall.ENOSPC) check classifies both real and
// injected disk exhaustion.
var ErrNoSpace = fmt.Errorf("faultfs: injected disk full: %w", syscall.ENOSPC)

// QuotaFS models a small disk: the sum of bytes live in files written through
// it is bounded by a capacity, a write that would exceed it is truncated to
// the remaining room (a torn write, exactly what a real ENOSPC leaves behind)
// and fails with an error wrapping syscall.ENOSPC, and Remove/Truncate credit
// the freed bytes back — so checkpoint GC genuinely reclaims space, and a test
// can "free disk space" with AddCapacity. Sizes are tracked only for files
// written through this FS; pre-existing files cost nothing.
//
// FailNextSyncs injects ENOSPC from fsync instead of write — the fsync-gate
// failure mode where the data was accepted into the page cache but the
// filesystem could not commit it.
type QuotaFS struct {
	base FS

	mu        sync.Mutex
	capacity  int64
	used      int64
	sizes     map[string]int64
	failSyncs int
}

// NewQuotaFS wraps base with capacity bytes of space.
func NewQuotaFS(base FS, capacity int64) *QuotaFS {
	return &QuotaFS{base: base, capacity: capacity, sizes: make(map[string]int64)}
}

// AddCapacity grows (or with a negative n shrinks) the disk — the "operator
// freed space" event ENOSPC recovery tests wait for.
func (q *QuotaFS) AddCapacity(n int64) {
	q.mu.Lock()
	q.capacity += n
	q.mu.Unlock()
}

// Used reports the live bytes currently charged against the capacity.
func (q *QuotaFS) Used() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.used
}

// FailNextSyncs makes the next n Sync calls fail with ENOSPC without touching
// the data already buffered — the ambiguous fsync failure the WAL must treat
// as "nothing past the last durable frame can be trusted".
func (q *QuotaFS) FailNextSyncs(n int) {
	q.mu.Lock()
	q.failSyncs = n
	q.mu.Unlock()
}

func (q *QuotaFS) key(name string) string { return filepath.Clean(name) }

func (q *QuotaFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := q.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	k := q.key(name)
	q.mu.Lock()
	if flag&os.O_TRUNC != 0 {
		q.used -= q.sizes[k]
		q.sizes[k] = 0
	}
	q.mu.Unlock()
	return &quotaFile{fs: q, f: f, key: k}, nil
}

func (q *QuotaFS) Rename(oldpath, newpath string) error {
	if err := q.base.Rename(oldpath, newpath); err != nil {
		return err
	}
	ok, nk := q.key(oldpath), q.key(newpath)
	q.mu.Lock()
	q.used -= q.sizes[nk] // an overwritten target's bytes are freed
	q.sizes[nk] = q.sizes[ok]
	delete(q.sizes, ok)
	q.mu.Unlock()
	return nil
}

func (q *QuotaFS) Remove(name string) error {
	if err := q.base.Remove(name); err != nil {
		return err
	}
	k := q.key(name)
	q.mu.Lock()
	q.used -= q.sizes[k]
	delete(q.sizes, k)
	q.mu.Unlock()
	return nil
}

func (q *QuotaFS) ReadDir(name string) ([]fs.DirEntry, error) { return q.base.ReadDir(name) }
func (q *QuotaFS) MkdirAll(name string, perm fs.FileMode) error {
	return q.base.MkdirAll(name, perm)
}
func (q *QuotaFS) SyncDir(name string) error { return q.base.SyncDir(name) }

// quotaFile charges every written byte against the quota. Writes are treated
// as extensions — the durability stack only ever appends and truncates, so
// overwrite accounting is not modelled.
type quotaFile struct {
	fs  *QuotaFS
	f   File
	key string
}

func (f *quotaFile) Read(p []byte) (int, error) { return f.f.Read(p) }
func (f *quotaFile) ReadAt(p []byte, off int64) (int, error) {
	return f.f.ReadAt(p, off)
}
func (f *quotaFile) Seek(offset int64, whence int) (int64, error) {
	return f.f.Seek(offset, whence)
}

func (f *quotaFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	room := f.fs.capacity - f.fs.used
	if room < 0 {
		room = 0
	}
	allowed := int64(len(p))
	short := allowed > room
	if short {
		allowed = room
	}
	f.fs.mu.Unlock()

	n, err := f.f.Write(p[:allowed])
	f.fs.mu.Lock()
	f.fs.used += int64(n)
	f.fs.sizes[f.key] += int64(n)
	f.fs.mu.Unlock()
	if err == nil && short {
		err = fmt.Errorf("write %s: %w", f.key, ErrNoSpace)
	}
	return n, err
}

func (f *quotaFile) Sync() error {
	f.fs.mu.Lock()
	fail := f.fs.failSyncs > 0
	if fail {
		f.fs.failSyncs--
	}
	f.fs.mu.Unlock()
	if fail {
		return fmt.Errorf("sync %s: %w", f.key, ErrNoSpace)
	}
	return f.f.Sync()
}

func (f *quotaFile) Truncate(size int64) error {
	if err := f.f.Truncate(size); err != nil {
		return err
	}
	f.fs.mu.Lock()
	if cur := f.fs.sizes[f.key]; size < cur {
		f.fs.used -= cur - size
		f.fs.sizes[f.key] = size
	}
	f.fs.mu.Unlock()
	return nil
}

func (f *quotaFile) Close() error { return f.f.Close() }

// SlowFS injects a fixed latency into every file Write and/or Sync — a
// dragging disk rather than a failing one. Deadline handling in the layers
// above is tested against it: a slow fsync must not strand a cancellable
// waiter.
type SlowFS struct {
	base FS
	// WriteDelay and SyncDelay are added to every file Write / Sync call.
	WriteDelay time.Duration
	SyncDelay  time.Duration
}

// NewSlowFS wraps base with per-call write and sync latency.
func NewSlowFS(base FS, writeDelay, syncDelay time.Duration) *SlowFS {
	return &SlowFS{base: base, WriteDelay: writeDelay, SyncDelay: syncDelay}
}

func (s *SlowFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := s.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &slowFile{fs: s, f: f}, nil
}

func (s *SlowFS) Rename(oldpath, newpath string) error       { return s.base.Rename(oldpath, newpath) }
func (s *SlowFS) Remove(name string) error                   { return s.base.Remove(name) }
func (s *SlowFS) ReadDir(name string) ([]fs.DirEntry, error) { return s.base.ReadDir(name) }
func (s *SlowFS) MkdirAll(name string, perm fs.FileMode) error {
	return s.base.MkdirAll(name, perm)
}
func (s *SlowFS) SyncDir(name string) error { return s.base.SyncDir(name) }

type slowFile struct {
	fs *SlowFS
	f  File
}

func (f *slowFile) Read(p []byte) (int, error) { return f.f.Read(p) }
func (f *slowFile) ReadAt(p []byte, off int64) (int, error) {
	return f.f.ReadAt(p, off)
}
func (f *slowFile) Seek(offset int64, whence int) (int64, error) {
	return f.f.Seek(offset, whence)
}
func (f *slowFile) Write(p []byte) (int, error) {
	if d := f.fs.WriteDelay; d > 0 {
		time.Sleep(d)
	}
	return f.f.Write(p)
}
func (f *slowFile) Sync() error {
	if d := f.fs.SyncDelay; d > 0 {
		time.Sleep(d)
	}
	return f.f.Sync()
}
func (f *slowFile) Truncate(size int64) error { return f.f.Truncate(size) }
func (f *slowFile) Close() error              { return f.f.Close() }

// StallFS models a permanently hung device: after a configurable number of
// passing Sync calls, every subsequent Sync blocks until Release. Unlike
// SlowFS the stall has no intrinsic end — it is the fault that turns "slow"
// into "stuck", and the admission/cancellation layers above must keep
// shedding or erroring cleanly for as long as it lasts.
type StallFS struct {
	base FS

	mu        sync.Mutex
	remaining int64 // syncs that pass before stalling; -1 = never stall
	stalled   int   // calls currently blocked
	release   chan struct{}
}

// NewStallFS wraps base; it does not stall until StallSyncs or StallAfter.
func NewStallFS(base FS) *StallFS {
	return &StallFS{base: base, remaining: -1, release: make(chan struct{})}
}

// StallSyncs makes every future Sync block until Release.
func (s *StallFS) StallSyncs() { s.StallAfter(0) }

// StallAfter lets n more Sync calls through, then stalls the rest.
func (s *StallFS) StallAfter(n int) {
	s.mu.Lock()
	s.remaining = int64(n)
	s.mu.Unlock()
}

// Release unblocks every stalled call and stops stalling until the next
// StallSyncs/StallAfter.
func (s *StallFS) Release() {
	s.mu.Lock()
	s.remaining = -1
	close(s.release)
	s.release = make(chan struct{})
	s.mu.Unlock()
}

// Stalled reports how many Sync calls are currently blocked.
func (s *StallFS) Stalled() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stalled
}

// gate blocks the caller while the stall is active.
func (s *StallFS) gate() {
	s.mu.Lock()
	if s.remaining < 0 {
		s.mu.Unlock()
		return
	}
	if s.remaining > 0 {
		s.remaining--
		s.mu.Unlock()
		return
	}
	s.stalled++
	ch := s.release
	s.mu.Unlock()
	<-ch
	s.mu.Lock()
	s.stalled--
	s.mu.Unlock()
}

func (s *StallFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := s.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &stallFile{fs: s, f: f}, nil
}

func (s *StallFS) Rename(oldpath, newpath string) error       { return s.base.Rename(oldpath, newpath) }
func (s *StallFS) Remove(name string) error                   { return s.base.Remove(name) }
func (s *StallFS) ReadDir(name string) ([]fs.DirEntry, error) { return s.base.ReadDir(name) }
func (s *StallFS) MkdirAll(name string, perm fs.FileMode) error {
	return s.base.MkdirAll(name, perm)
}
func (s *StallFS) SyncDir(name string) error { return s.base.SyncDir(name) }

type stallFile struct {
	fs *StallFS
	f  File
}

func (f *stallFile) Read(p []byte) (int, error) { return f.f.Read(p) }
func (f *stallFile) ReadAt(p []byte, off int64) (int, error) {
	return f.f.ReadAt(p, off)
}
func (f *stallFile) Seek(offset int64, whence int) (int64, error) {
	return f.f.Seek(offset, whence)
}
func (f *stallFile) Write(p []byte) (int, error) { return f.f.Write(p) }
func (f *stallFile) Sync() error {
	f.fs.gate()
	return f.f.Sync()
}
func (f *stallFile) Truncate(size int64) error { return f.f.Truncate(size) }
func (f *stallFile) Close() error              { return f.f.Close() }
