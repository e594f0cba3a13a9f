package chameleon

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"chameleon/internal/faultfs"
	"chameleon/internal/wal"
)

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 5_000)
	for i := range keys {
		keys[i] = uint64(i) * 17
	}
	if err := d.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k < 400; k += 2 {
		if err := d.Insert(k<<32, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Delete(keys[10]); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(keys[11], 1); err != ErrDuplicateKey {
		t.Fatalf("duplicate insert: %v", err)
	}
	if err := d.Delete(uint64(1) << 60); err != ErrKeyNotFound {
		t.Fatalf("missing delete: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(1, 1); err != ErrIndexClosed {
		t.Fatalf("insert after close: %v", err)
	}

	// Reopen: bulk keys (checkpointed), WAL inserts, and the delete must all
	// have survived.
	re, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i, k := range keys {
		_, ok := re.Lookup(k)
		if i == 10 {
			if ok {
				t.Fatalf("deleted key %d resurrected", k)
			}
			continue
		}
		if !ok {
			t.Fatalf("bulk key %d lost", k)
		}
	}
	for k := uint64(1); k < 400; k += 2 {
		if v, ok := re.Lookup(k << 32); !ok || v != k {
			t.Fatalf("walled insert %d lost (%d,%v)", k<<32, v, ok)
		}
	}
	if re.Len() != len(keys)-1+200 {
		t.Fatalf("Len = %d", re.Len())
	}
}

func TestDurableCheckpointRotatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.BulkLoad([]uint64{10, 20, 30, 40, 50}, nil); err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 3; round++ {
		for i := uint64(0); i < 10; i++ {
			if err := d.Insert(1000*round+i+100, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := d.WALSize(); got != 0 {
			t.Fatalf("WAL not rotated: %d bytes", got)
		}
	}
	// GC keeps exactly one snapshot and one (empty) live log.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps, wals int
	for _, e := range entries {
		if _, ok := parseName(e.Name(), snapPrefix, snapSuffix); ok {
			snaps++
		}
		if _, ok := parseName(e.Name(), walPrefix, walSuffix); ok {
			wals++
		}
	}
	if snaps != 1 || wals != 1 {
		t.Fatalf("GC left %d snapshots, %d wals", snaps, wals)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 5+30 {
		t.Fatalf("Len = %d after reopen", re.Len())
	}
}

// rotPath returns the path of the snapshot (prefix snapPrefix) or WAL
// (walPrefix) at rotation rot in dir, whatever base its name carries.
func rotPath(t *testing.T, dir, prefix string, rot uint64) string {
	t.Helper()
	suffix := map[string]string{snapPrefix: snapSuffix, walPrefix: walSuffix}[prefix]
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if id, ok := parseName(e.Name(), prefix, suffix); ok && id.rot == rot {
			return filepath.Join(dir, e.Name())
		}
	}
	t.Fatalf("no %s…%s at rotation %d in %s", prefix, suffix, rot, dir)
	return ""
}

// corruptFile flips one byte in the middle of path.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCorruptSnapshotFallsBack flips a byte in the newest snapshot
// while an older generation survives (as after a GC interrupted by a crash);
// recovery must fall back to the older snapshot plus its WAL chain and lose
// nothing that chain holds.
func TestDurableCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.BulkLoad([]uint64{1, 2, 3}, nil); err != nil { // → snapshot-1, wal-1
		t.Fatal(err)
	}
	for k := uint64(100); k < 120; k++ {
		if err := d.Insert(k, k); err != nil { // → wal-1 (fsynced per op)
			t.Fatal(err)
		}
	}
	// Preserve generation 1 before the next checkpoint GCs it.
	snap1, wal1 := rotPath(t, dir, snapPrefix, 1), rotPath(t, dir, walPrefix, 1)
	savedSnap, err := os.ReadFile(snap1)
	if err != nil {
		t.Fatal(err)
	}
	savedWal, err := os.ReadFile(wal1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil { // → snapshot-2, wal-2; GC removes gen 1
		t.Fatal(err)
	}
	if err := d.Insert(600, 6); err != nil { // → wal-2
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Restore generation 1 (a crash mid-GC leaves exactly this) and corrupt
	// the newest snapshot.
	if err := os.WriteFile(snap1, savedSnap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal1, savedWal, 0o644); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, rotPath(t, dir, snapPrefix, 2))

	re, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// snapshot-1 + wal-1 + wal-2 reconstruct everything.
	for _, k := range []uint64{1, 2, 3, 110, 600} {
		if _, ok := re.Lookup(k); !ok {
			t.Fatalf("key %d lost on snapshot fallback", k)
		}
	}
	if re.Len() != 3+20+1 {
		t.Fatalf("Len = %d after fallback", re.Len())
	}
}

// TestDurableAllSnapshotsCorruptRefusesToOpen: when snapshot files exist but
// none passes integrity checks, OpenDir must fail loudly instead of silently
// serving a near-empty index.
func TestDurableAllSnapshotsCorruptRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.BulkLoad([]uint64{1, 2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, rotPath(t, dir, snapPrefix, 1))
	if _, err := OpenDir(dir, DirOptions{}); !errors.Is(err, ErrSnapshotsUnreadable) {
		t.Fatalf("OpenDir with only a corrupt snapshot: %v, want ErrSnapshotsUnreadable", err)
	}
}

// TestDurableStaleLogNoPhantom reproduces the GC hazard: a log older than the
// loaded snapshot survives (GC Remove is best-effort) while its successor —
// which deleted a key — is gone. Replay must skip the stale log, or the
// deleted key is resurrected.
func TestDurableStaleLogNoPhantom(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.BulkLoad([]uint64{10, 20}, nil); err != nil { // → snapshot-1, wal-1
		t.Fatal(err)
	}
	if err := d.Insert(111, 1); err != nil { // → wal-1
		t.Fatal(err)
	}
	wal1 := rotPath(t, dir, walPrefix, 1)
	savedWal, err := os.ReadFile(wal1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil { // snapshot-2 holds 111; GC removes wal-1
		t.Fatal(err)
	}
	if err := d.Delete(111); err != nil { // → wal-2
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil { // snapshot-3 without 111; GC removes wal-2
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Resurrect wal-1 — the insert of 111 with no trace of its deletion.
	if err := os.WriteFile(wal1, savedWal, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.Lookup(111); ok {
		t.Fatal("stale pre-snapshot log replayed: deleted key 111 resurrected")
	}
	if re.Len() != 2 {
		t.Fatalf("Len = %d, want 2", re.Len())
	}
}

// renameFailFS makes every Rename fail, so a checkpoint dies at its commit
// step.
type renameFailFS struct{ faultfs.FS }

func (renameFailFS) Rename(oldpath, newpath string) error {
	return errors.New("injected rename failure")
}

// TestDurableBulkLoadCheckpointFailurePoisons: bulk data bypasses the WAL, so
// if the immediate checkpoint fails the handle must fail-stop instead of
// acking writes that recovery could never reconstruct.
func TestDurableBulkLoadCheckpointFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	d, err := openDirFS(dir, DirOptions{}, renameFailFS{faultfs.OS})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.BulkLoad([]uint64{1, 2, 3}, nil); err == nil {
		t.Fatal("BulkLoad with failing checkpoint succeeded")
	}
	// Poisoned: every subsequent mutation reports the sticky failure.
	if err := d.Insert(9, 9); err == nil || errors.Is(err, ErrIndexClosed) {
		t.Fatalf("insert on poisoned index: %v, want sticky failure", err)
	}
	if err := d.Checkpoint(); err == nil {
		t.Fatal("checkpoint on poisoned index succeeded")
	}
	d.Close() //nolint:errcheck

	// Nothing was acked, so recovering an empty index is the honest outcome.
	re, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 0 {
		t.Fatalf("Len = %d after failed bulk load, want 0", re.Len())
	}
}

// TestDurableSyncPolicies exercises the interval and none policies end to
// end: writes land, close flushes, reopen recovers.
func TestDurableSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncInterval, SyncNone} {
		dir := t.TempDir()
		opts := DirOptions{}
		opts.Sync = pol
		opts.SyncEvery = time.Millisecond
		d, err := OpenDir(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= 100; k++ {
			if err := d.Insert(k*3, k); err != nil {
				t.Fatalf("policy %d: %v", pol, err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatalf("policy %d: close: %v", pol, err)
		}
		re, err := OpenDir(dir, opts)
		if err != nil {
			t.Fatalf("policy %d: reopen: %v", pol, err)
		}
		if re.Len() != 100 {
			t.Fatalf("policy %d: Len = %d after clean close", pol, re.Len())
		}
		re.Close()
	}
}

// TestFsyncLatencyCountsCommitFsyncs pins what Health.FsyncLatency counts:
// under SyncEveryOp one fsync per batch, on the log the handle opened with
// and on the one a checkpoint or flush rotated to; under SyncNone nothing.
func TestFsyncLatencyCountsCommitFsyncs(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts DirOptions
	}{
		{"legacy", DirOptions{}},
		{"tiered", tieredOpts()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, sync := range []SyncPolicy{SyncEveryOp, SyncNone} {
				opts := tc.opts
				opts.Sync = sync
				d, err := OpenDir(t.TempDir(), opts)
				if err != nil {
					t.Fatal(err)
				}
				for i := uint64(1); i <= 20; i++ {
					if err := d.Insert(i, i); err != nil {
						t.Fatal(err)
					}
					if i == 10 {
						if err := d.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
				}
				h := d.Health()
				var timed uint64
				for _, n := range h.FsyncLatency {
					timed += n
				}
				want := h.Batches
				if sync == SyncNone {
					want = 0
				}
				if h.Batches != 20 || timed != want {
					t.Errorf("policy %d: %d batches, %d timed fsyncs; want 20 and %d", sync, h.Batches, timed, want)
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestWALOptionsDefaults pins the single place WAL options are derived from
// DirOptions (OpenDir and checkpoint rotation used to build them separately):
// a zero or negative SyncEvery falls back to the 10ms default, a positive one
// passes through, and the policy and filesystem are forwarded verbatim.
func TestWALOptionsDefaults(t *testing.T) {
	for _, tc := range []struct {
		in, want time.Duration
	}{
		{-5 * time.Second, 10 * time.Millisecond},
		{0, 10 * time.Millisecond},
		{3 * time.Millisecond, 3 * time.Millisecond},
	} {
		got := walOptions(DirOptions{Sync: SyncInterval, SyncEvery: tc.in}, faultfs.OS, nil)
		if got.Interval != tc.want {
			t.Errorf("walOptions(SyncEvery=%v).Interval = %v, want %v", tc.in, got.Interval, tc.want)
		}
		if got.Policy != wal.SyncPolicy(SyncInterval) {
			t.Errorf("walOptions(SyncEvery=%v).Policy = %v, want interval", tc.in, got.Policy)
		}
		if got.FS != faultfs.FS(faultfs.OS) {
			t.Errorf("walOptions(SyncEvery=%v) did not forward the filesystem", tc.in)
		}
	}
}
