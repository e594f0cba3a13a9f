package faultfs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestWriterShortWrites(t *testing.T) {
	var buf bytes.Buffer
	w := &Writer{W: &buf, Budget: 10}
	if n, err := w.Write([]byte("12345")); n != 5 || err != nil {
		t.Fatalf("first write: %d, %v", n, err)
	}
	// Crosses the budget: 5 of 8 bytes land, then the injected error.
	if n, err := w.Write([]byte("abcdefgh")); n != 5 || err != ErrInjected {
		t.Fatalf("crossing write: %d, %v", n, err)
	}
	if n, err := w.Write([]byte("x")); n != 0 || err != ErrInjected {
		t.Fatalf("post-budget write: %d, %v", n, err)
	}
	if got := buf.String(); got != "12345abcde" {
		t.Fatalf("underlying bytes %q", got)
	}
}

func TestCrashFSStepsAndUnsyncedLoss(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")

	// Budget 4: open (1), write (2), sync (3), syncdir (4) succeed; the
	// second write is the crash point. The synced prefix survives — its
	// dirent was made durable by SyncDir — the unsynced tail does not.
	c := NewCrashFS(OS, 4)
	f, err := c.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("lost")); err != ErrCrashed {
		t.Fatalf("crash-point write: %v", err)
	}
	if !c.Crashed() {
		t.Fatal("not crashed")
	}
	if err := f.Sync(); err != ErrCrashed {
		t.Fatalf("post-crash sync: %v", err)
	}
	if err := c.Rename(path, path+"2"); err == nil {
		t.Fatal("post-crash rename succeeded")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "durable" {
		t.Fatalf("on-disk bytes %q, want only the synced prefix", data)
	}
	if c.Steps() != 5 {
		t.Fatalf("Steps = %d, want 5", c.Steps())
	}
}

func TestCrashFSTearFractions(t *testing.T) {
	for tear, wantLen := range map[int]int{0: 0, 1: 4, 2: 8} {
		dir := t.TempDir()
		path := filepath.Join(dir, "f")
		// Pre-create the file outside CrashFS so its dirent is durable and the
		// crash rollback leaves the torn bytes observable.
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		c := NewCrashFS(OS, 2) // open + write succeed; sync crashes
		c.Tear = tear
		f, err := c.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("12345678")); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != ErrCrashed {
			t.Fatalf("tear=%d: sync: %v", tear, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != wantLen {
			t.Fatalf("tear=%d: %d bytes survived, want %d", tear, len(data), wantLen)
		}
	}
}

// TestCrashFSDirentRollback checks the directory-entry fault model: creations,
// renames, and removals whose parent directory was never fsynced un-happen at
// the crash, while a SyncDir pins everything before it.
func TestCrashFSDirentRollback(t *testing.T) {
	dir := t.TempDir()
	created := filepath.Join(dir, "created")
	oldName := filepath.Join(dir, "old")
	newName := filepath.Join(dir, "new")
	doomed := filepath.Join(dir, "doomed")
	pinned := filepath.Join(dir, "pinned")
	for _, p := range []string{oldName, doomed} {
		if err := os.WriteFile(p, []byte("body-of-"+filepath.Base(p)), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c := NewCrashFS(OS, 1000)
	// Pinned by SyncDir: survives the crash.
	f, err := c.OpenFile(pinned, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	// Unsynced dirent mutations: all rolled back by the crash.
	f, err = c.OpenFile(created, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("gone")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // file data synced, dirent is not
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename(oldName, newName); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(doomed); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(doomed); !os.IsNotExist(err) {
		t.Fatal("remove did not reach the base FS")
	}

	// Exhaust the budget to force the crash.
	c.mu.Lock()
	c.budget = 0
	c.mu.Unlock()
	if _, err := c.OpenFile(filepath.Join(dir, "x"), os.O_CREATE|os.O_WRONLY, 0o644); err == nil || !c.Crashed() {
		t.Fatalf("crash not triggered: %v", err)
	}

	if got, err := os.ReadFile(pinned); err != nil || string(got) != "kept" {
		t.Fatalf("pinned file: %q, %v — SyncDir'd creation must survive", got, err)
	}
	if _, err := os.Stat(created); !os.IsNotExist(err) {
		t.Fatal("unsynced creation survived the crash")
	}
	if _, err := os.Stat(newName); !os.IsNotExist(err) {
		t.Fatal("unsynced rename destination survived the crash")
	}
	if got, err := os.ReadFile(oldName); err != nil || string(got) != "body-of-old" {
		t.Fatalf("rename source not restored: %q, %v", got, err)
	}
	if got, err := os.ReadFile(doomed); err != nil || string(got) != "body-of-doomed" {
		t.Fatalf("unsynced removal not resurrected: %q, %v", got, err)
	}
}

// TestCrashFSConcurrentCrashRollsBackCreates: a crash that one goroutine's
// step triggers while others are creating files leaves none of them behind,
// since no SyncDir covered any: each create lands wholly before the crash,
// and is rolled back, or is refused.
func TestCrashFSConcurrentCrashRollsBackCreates(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		dir := t.TempDir()
		c := NewCrashFS(OS, 40)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					f, err := c.OpenFile(filepath.Join(dir, fmt.Sprintf("%d-%d", g, i)), os.O_CREATE|os.O_WRONLY, 0o644)
					if err != nil {
						return
					}
					f.Close() //nolint:errcheck
				}
			}()
		}
		wg.Wait()
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Fatalf("trial %d: %d unsynced creations survived the crash (%v)", trial, len(ents), err)
		}
	}
}

func TestCrashFSCleanCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	c := NewCrashFS(OS, 1000)
	f, err := c.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "kept" {
		t.Fatalf("on-disk bytes %q", data)
	}
	if c.Crashed() {
		t.Fatal("crashed within budget")
	}
}
