// Package faultfs is the failure-injection layer under the durability stack.
// It defines the narrow filesystem surface the WAL and checkpointer use (FS,
// File), the production implementation over package os, and two failpoint
// wrappers used by tests:
//
//   - Writer: an io.Writer that short-writes or errors once a byte budget is
//     exhausted, for unit-testing torn-frame handling in isolation.
//   - CrashFS: a whole-filesystem wrapper that simulates a process kill at a
//     chosen step. Writes are buffered per file and only reach the underlying
//     file on Sync — exactly the page-cache behaviour a real crash exposes —
//     and when the budget runs out the crash flushes a configurable fraction
//     of each file's unsynced tail, producing the torn files recovery must
//     survive. Directory entries are modelled too: a file creation, rename,
//     or removal whose parent directory was not fsynced (SyncDir) by the
//     crash is rolled back, the worst-case outcome a journaling filesystem
//     permits — a created file vanishes, a rename un-happens, a removed file
//     comes back. Every operation after the crash fails with ErrCrashed.
//
// The crash-matrix test in the root package drives CrashFS through every step
// of a live workload (WAL appends, checkpoint writes, renames) and then
// reopens the directory with the real OS filesystem, as a rebooted process
// would.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// File is the subset of *os.File the durability stack needs.
type File interface {
	io.Reader
	// ReaderAt is the positional read the segment readers serve cold probes
	// with: one pread(2), no shared file offset, safe from many goroutines.
	io.ReaderAt
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
}

// FS is the filesystem surface behind the WAL and the checkpointer. OS is the
// production implementation; CrashFS wraps any FS with fault injection.
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	MkdirAll(name string, perm fs.FileMode) error
	// SyncDir fsyncs a directory so renames and creations in it are durable.
	SyncDir(name string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) MkdirAll(name string, perm fs.FileMode) error {
	return os.MkdirAll(name, perm)
}
func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ErrInjected is returned by Writer once its budget is exhausted.
var ErrInjected = errors.New("faultfs: injected write failure")

// ErrCrashed is returned by every CrashFS operation after the simulated kill.
var ErrCrashed = errors.New("faultfs: simulated crash")

// Writer passes through to W until Budget bytes have been written; the write
// that crosses the budget is truncated to the remaining bytes (a torn write)
// and fails with ErrInjected, as do all writes after it.
type Writer struct {
	W      io.Writer
	Budget int64
}

func (w *Writer) Write(p []byte) (int, error) {
	if w.Budget <= 0 {
		return 0, ErrInjected
	}
	if int64(len(p)) <= w.Budget {
		n, err := w.W.Write(p)
		w.Budget -= int64(n)
		return n, err
	}
	n, err := w.W.Write(p[:w.Budget])
	w.Budget -= int64(n)
	if err == nil {
		err = ErrInjected
	}
	return n, err
}

// CrashFS wraps a base FS and kills the "process" after a fixed number of
// mutating steps. Each Write, Sync, Truncate, Rename, Remove, SyncDir, and
// mutating OpenFile consumes one step. File writes are held in a per-file
// unsynced buffer until Sync; the crash flushes TornFraction (0, ½, or 1,
// selected by Tear) of each buffer to the underlying file and drops the rest,
// so the surviving on-disk state covers the spectrum from "nothing after the
// last fsync" to "everything the process ever wrote".
//
// Directory entries get the same treatment: creations, renames, and removals
// are journaled until SyncDir on the parent directory, and a crash rolls the
// unsynced ones back in reverse order — the pessimistic outcome of losing the
// directory block. (Renames are assumed same-directory, which is all the
// durability stack performs.)
type CrashFS struct {
	base FS

	mu      sync.Mutex
	budget  int64
	steps   int64
	crashed bool
	// Tear picks how much of each unsynced buffer survives the crash:
	// tear%3 == 0 → none, 1 → half, 2 → all.
	Tear int

	open    []*crashFile
	journal []direntOp // dirent mutations not yet covered by a SyncDir
}

// direntOp is one journaled directory mutation, undone on crash unless the
// parent directory was fsynced after it.
type direntOp struct {
	kind  int    // direntCreate, direntRename, direntRemove
	dir   string // parent directory whose SyncDir makes it durable
	path  string // created path / rename destination / removed path
	old   string // rename source
	saved []byte // removed file's bytes, for resurrection
}

const (
	direntCreate = iota
	direntRename
	direntRemove
)

// NewCrashFS wraps base with a crash after budget mutating steps. A budget
// larger than the workload's total step count never crashes; use Steps after
// a clean run to size the matrix.
func NewCrashFS(base FS, budget int64) *CrashFS {
	return &CrashFS{base: base, budget: budget}
}

// Steps reports how many mutating steps have been consumed so far.
func (c *CrashFS) Steps() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.steps
}

// Crashed reports whether the simulated kill has happened.
func (c *CrashFS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// step consumes one mutating step; it returns false — after tearing the
// unsynced buffers — when this step is the crash point or the crash already
// happened. Callers must not touch the underlying FS on false.
func (c *CrashFS) step() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return false
	}
	c.steps++
	c.budget--
	if c.budget < 0 {
		c.crashLocked()
		return false
	}
	return true
}

// crashLocked tears every open file's unsynced buffer per Tear, rolls back
// every dirent mutation not covered by a SyncDir, and marks the filesystem
// dead.
func (c *CrashFS) crashLocked() {
	c.crashed = true
	for _, f := range c.open {
		keep := 0
		switch c.Tear % 3 {
		case 1:
			keep = len(f.pending) / 2
		case 2:
			keep = len(f.pending)
		}
		if keep > 0 {
			f.f.Write(f.pending[:keep]) //nolint:errcheck // best-effort tear
		}
		f.pending = nil
	}
	// Undo unsynced dirent mutations newest-first, so chains compose: a file
	// created then renamed is first un-renamed, then un-created (removed).
	// All best-effort — a rollback of an op that never reached the base FS
	// simply fails.
	for i := len(c.journal) - 1; i >= 0; i-- {
		e := c.journal[i]
		switch e.kind {
		case direntCreate:
			c.base.Remove(e.path) //nolint:errcheck
		case direntRename:
			c.base.Rename(e.path, e.old) //nolint:errcheck
		case direntRemove:
			if f, err := c.base.OpenFile(e.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644); err == nil {
				f.Write(e.saved) //nolint:errcheck
				f.Close()        //nolint:errcheck
			}
		}
	}
	c.journal = nil
}

// exists reports whether name is present on the base FS.
func (c *CrashFS) exists(name string) bool {
	f, err := c.base.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return false
	}
	f.Close() //nolint:errcheck
	return true
}

// logDirent journals one dirent mutation for crash rollback. Called before
// the base operation so a concurrent crash can at worst roll back an op that
// never happened — harmless — rather than miss one that did.
func (c *CrashFS) logDirent(e direntOp) {
	c.mu.Lock()
	if !c.crashed {
		c.journal = append(c.journal, e)
	}
	c.mu.Unlock()
}

func (c *CrashFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	mutating := flag&(os.O_CREATE|os.O_WRONLY|os.O_RDWR|os.O_TRUNC|os.O_APPEND) != 0
	if mutating {
		if !c.step() {
			return nil, fmt.Errorf("open %s: %w", name, ErrCrashed)
		}
	} else if c.Crashed() {
		return nil, fmt.Errorf("open %s: %w", name, ErrCrashed)
	}
	if flag&os.O_CREATE != 0 && !c.exists(name) {
		c.logDirent(direntOp{kind: direntCreate, dir: filepath.Dir(name), path: name})
	}
	f, err := c.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	cf := &crashFile{fs: c, f: f}
	c.mu.Lock()
	c.open = append(c.open, cf)
	c.mu.Unlock()
	return cf, nil
}

func (c *CrashFS) Rename(oldpath, newpath string) error {
	if !c.step() {
		return fmt.Errorf("rename %s: %w", oldpath, ErrCrashed)
	}
	c.logDirent(direntOp{kind: direntRename, dir: filepath.Dir(newpath), path: newpath, old: oldpath})
	return c.base.Rename(oldpath, newpath)
}

func (c *CrashFS) Remove(name string) error {
	if !c.step() {
		return fmt.Errorf("remove %s: %w", name, ErrCrashed)
	}
	// Stash the bytes so the crash can resurrect an un-fsynced removal — the
	// stale-file hazard recovery must tolerate.
	var saved []byte
	if f, err := c.base.OpenFile(name, os.O_RDONLY, 0); err == nil {
		saved, _ = io.ReadAll(f)
		f.Close() //nolint:errcheck
	}
	c.logDirent(direntOp{kind: direntRemove, dir: filepath.Dir(name), path: name, saved: saved})
	return c.base.Remove(name)
}

func (c *CrashFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if c.Crashed() {
		return nil, ErrCrashed
	}
	return c.base.ReadDir(name)
}

func (c *CrashFS) MkdirAll(name string, perm fs.FileMode) error {
	if !c.step() {
		return fmt.Errorf("mkdir %s: %w", name, ErrCrashed)
	}
	return c.base.MkdirAll(name, perm)
}

func (c *CrashFS) SyncDir(name string) error {
	if !c.step() {
		return fmt.Errorf("syncdir %s: %w", name, ErrCrashed)
	}
	if err := c.base.SyncDir(name); err != nil {
		return err
	}
	// The fsync made this directory's entries durable: drop their journal
	// records so a later crash no longer rolls them back.
	clean := filepath.Clean(name)
	c.mu.Lock()
	kept := c.journal[:0]
	for _, e := range c.journal {
		if filepath.Clean(e.dir) != clean {
			kept = append(kept, e)
		}
	}
	c.journal = kept
	c.mu.Unlock()
	return nil
}

// crashFile buffers writes until Sync, modelling the page cache a crash
// discards. Reads and seeks are pass-through: the durability stack only reads
// during recovery, before it writes, or from files it has synced and closed.
type crashFile struct {
	fs      *CrashFS
	f       File
	pending []byte
}

func (f *crashFile) Read(p []byte) (int, error) {
	if f.fs.Crashed() {
		return 0, ErrCrashed
	}
	return f.f.Read(p)
}

func (f *crashFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.Crashed() {
		return 0, ErrCrashed
	}
	return f.f.ReadAt(p, off)
}

func (f *crashFile) Seek(offset int64, whence int) (int64, error) {
	if f.fs.Crashed() {
		return 0, ErrCrashed
	}
	return f.f.Seek(offset, whence)
}

func (f *crashFile) Write(p []byte) (int, error) {
	if !f.fs.step() {
		return 0, ErrCrashed
	}
	f.fs.mu.Lock()
	f.pending = append(f.pending, p...)
	f.fs.mu.Unlock()
	return len(p), nil
}

func (f *crashFile) Sync() error {
	if !f.fs.step() {
		return ErrCrashed
	}
	f.fs.mu.Lock()
	pending := f.pending
	f.pending = nil
	f.fs.mu.Unlock()
	if len(pending) > 0 {
		if _, err := f.f.Write(pending); err != nil {
			return err
		}
	}
	return f.f.Sync()
}

func (f *crashFile) Truncate(size int64) error {
	if !f.fs.step() {
		return ErrCrashed
	}
	return f.f.Truncate(size)
}

// Close flushes the unsynced buffer (a clean close reaches disk eventually)
// unless the crash already happened, in which case the buffer is gone.
func (f *crashFile) Close() error {
	if f.fs.Crashed() {
		f.f.Close() //nolint:errcheck // release the real descriptor regardless
		return ErrCrashed
	}
	f.fs.mu.Lock()
	pending := f.pending
	f.pending = nil
	f.fs.mu.Unlock()
	if len(pending) > 0 {
		if _, err := f.f.Write(pending); err != nil {
			f.f.Close() //nolint:errcheck
			return err
		}
	}
	return f.f.Close()
}
