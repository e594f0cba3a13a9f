package chameleon

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"chameleon/internal/faultfs"
	"chameleon/internal/wal"
)

// Tests for the DurableIndex replication surface (replseq.go): the
// commit-sequence clock and its durability, ordered replay with divergence
// refusal, snapshot streaming, the WaitSeq read-your-writes primitive, and
// the worst-wins health merge.

func openRepl(t *testing.T, dir string) *DurableIndex {
	t.Helper()
	d, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCommitSeqSurvivesRestart: the commit clock is the replication anchor,
// so it must come back exact after any shutdown — clean close, a checkpoint
// followed by more WAL tail, and a reopen that replays that tail.
func TestCommitSeqSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	d := openRepl(t, dir)
	for k := uint64(1); k <= 50; k++ {
		if err := d.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// WAL tail past the checkpoint: 10 more inserts and 5 deletes.
	for k := uint64(51); k <= 60; k++ {
		if err := d.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 5; k++ {
		if err := d.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.CommitSeq(); got != 65 {
		t.Fatalf("CommitSeq before close = %d, want 65", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openRepl(t, dir)
	defer d2.Close() //nolint:errcheck
	if got := d2.CommitSeq(); got != 65 {
		t.Fatalf("CommitSeq after restart = %d, want 65 (snapshot base + replayed tail)", got)
	}
	// The clock keeps counting from where it left off, not from the live
	// record count (deletes consumed sequences too).
	if err := d2.Insert(1000, 1); err != nil {
		t.Fatal(err)
	}
	if got := d2.CommitSeq(); got != 66 {
		t.Fatalf("CommitSeq after one more insert = %d, want 66", got)
	}
}

// TestCommitSeqEmptyLogWithStaleBase: an empty newest WAL whose name claims
// a base the clock never reached — what a crash leaves when a replace's
// pre-created successor reached disk but its commit did not — neither
// advances the recovered clock nor lends its base to the records written
// after the reopen.
func TestCommitSeqEmptyLogWithStaleBase(t *testing.T) {
	for name, opts := range map[string]DirOptions{"legacy": DirOptions{}, "tiered": tieredOpts()} {
		dir := t.TempDir()
		d, err := OpenDir(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= 5; k++ {
			if err := d.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Checkpoint(); err != nil { // tiered: the first manifest
			t.Fatal(err)
		}
		stray := filepath.Join(dir, walName(d.seq+1, 105))
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stray, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		for round, want := range []uint64{5, 6} {
			d, err = OpenDir(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := d.CommitSeq(); got != want {
				t.Fatalf("%s, reopen %d: CommitSeq = %d, want %d", name, round, got, want)
			}
			if d.Len() != int(want) {
				t.Fatalf("%s, reopen %d: Len = %d, want %d", name, round, d.Len(), want)
			}
			if err := d.Insert(6, 6); err != nil && !errors.Is(err, ErrDuplicateKey) {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}
		checkNamesCarryBase(t, dir)
	}
}

// TestReplicateBatchOrderedAndIdempotent: replay applies in order, advances
// the clock, skips duplicate prefixes on re-delivery, and refuses gaps.
func TestReplicateBatchOrderedAndIdempotent(t *testing.T) {
	d := openRepl(t, t.TempDir())
	defer d.Close() //nolint:errcheck

	recs := []wal.Record{
		{Op: wal.OpInsert, Key: 1, Val: 10},
		{Op: wal.OpInsert, Key: 2, Val: 20},
		{Op: wal.OpDelete, Key: 1},
	}
	if err := d.ReplicateBatch(1, recs); err != nil {
		t.Fatalf("ReplicateBatch: %v", err)
	}
	if got := d.CommitSeq(); got != 3 {
		t.Fatalf("CommitSeq = %d, want 3", got)
	}
	if _, ok := d.Lookup(1); ok {
		t.Fatal("key 1 should have been deleted by seq 3")
	}
	if v, ok := d.Lookup(2); !ok || v != 20 {
		t.Fatalf("Lookup(2) = %d,%v, want 20,true", v, ok)
	}

	// Exact re-delivery is a no-op.
	if err := d.ReplicateBatch(1, recs); err != nil {
		t.Fatalf("re-delivered batch: %v", err)
	}
	if got := d.CommitSeq(); got != 3 {
		t.Fatalf("CommitSeq after re-delivery = %d, want 3", got)
	}

	// Overlapping delivery applies only the fresh suffix.
	overlap := []wal.Record{
		{Op: wal.OpDelete, Key: 1}, // seq 3, duplicate
		{Op: wal.OpInsert, Key: 3, Val: 30},
	}
	if err := d.ReplicateBatch(3, overlap); err != nil {
		t.Fatalf("overlapping batch: %v", err)
	}
	if got := d.CommitSeq(); got != 4 {
		t.Fatalf("CommitSeq after overlap = %d, want 4", got)
	}

	// A gap is refused and nothing changes.
	gap := []wal.Record{{Op: wal.OpInsert, Key: 9, Val: 9}}
	if err := d.ReplicateBatch(7, gap); !errors.Is(err, wal.ErrSeqGap) {
		t.Fatalf("gapped batch: %v, want ErrSeqGap", err)
	}
	if got := d.CommitSeq(); got != 4 {
		t.Fatalf("CommitSeq after refused gap = %d, want 4", got)
	}
}

// TestReplicateBatchDivergenceRefusal: a record that cannot replay cleanly
// proves the histories forked; the whole batch is refused atomically — no
// partial apply, no WAL append, clock unchanged, reads keep working.
func TestReplicateBatchDivergenceRefusal(t *testing.T) {
	cases := []struct {
		name string
		rec  wal.Record
	}{
		{"insert-existing", wal.Record{Op: wal.OpInsert, Key: 1, Val: 99}},
		{"delete-absent", wal.Record{Op: wal.OpDelete, Key: 777}},
		{"unknown-op", wal.Record{Op: 0xEE, Key: 5, Val: 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := openRepl(t, t.TempDir())
			defer d.Close() //nolint:errcheck
			if err := d.ReplicateBatch(1, []wal.Record{{Op: wal.OpInsert, Key: 1, Val: 10}}); err != nil {
				t.Fatal(err)
			}
			// Batch = one clean record then the poison pill: atomicity means
			// even the clean one must not land.
			batch := []wal.Record{{Op: wal.OpInsert, Key: 50, Val: 50}, tc.rec}
			err := d.ReplicateBatch(2, batch)
			if !errors.Is(err, ErrReplDivergence) {
				t.Fatalf("divergent batch: %v, want ErrReplDivergence", err)
			}
			if got := d.CommitSeq(); got != 1 {
				t.Fatalf("CommitSeq = %d, want 1 (refusal is atomic)", got)
			}
			if _, ok := d.Lookup(50); ok {
				t.Fatal("clean record from refused batch was applied")
			}
			if v, ok := d.Lookup(1); !ok || v != 10 {
				t.Fatalf("existing state disturbed: Lookup(1) = %d,%v", v, ok)
			}
			if h := d.Health(); h.State != HealthOK {
				t.Fatalf("health after refusal = %v, want ok (index itself is fine)", h.State)
			}
		})
	}
}

// TestReplicateBatchInternalOverlay: divergence validation must account for
// earlier records in the same batch — insert then delete of a brand-new key
// is clean even though the key is absent when validation starts.
func TestReplicateBatchInternalOverlay(t *testing.T) {
	d := openRepl(t, t.TempDir())
	defer d.Close() //nolint:errcheck
	batch := []wal.Record{
		{Op: wal.OpInsert, Key: 4, Val: 40},
		{Op: wal.OpDelete, Key: 4},
		{Op: wal.OpInsert, Key: 4, Val: 41},
	}
	if err := d.ReplicateBatch(1, batch); err != nil {
		t.Fatalf("insert/delete/reinsert in one batch: %v", err)
	}
	if v, ok := d.Lookup(4); !ok || v != 41 {
		t.Fatalf("Lookup(4) = %d,%v, want 41,true", v, ok)
	}
}

// TestSnapshotRoundTripAdoptsSeq: SnapshotAt → RestoreSnapshot moves both
// the data and the commit clock, and the restored clock survives a restart
// (RestoreSnapshot checkpoints under the adopted clock).
func TestSnapshotRoundTripAdoptsSeq(t *testing.T) {
	src := openRepl(t, t.TempDir())
	defer src.Close() //nolint:errcheck
	for k := uint64(1); k <= 100; k++ {
		if err := src.Insert(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	asOf, n, err := src.SnapshotAt(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if asOf != 100 || n != int64(buf.Len()) {
		t.Fatalf("SnapshotAt = seq %d, %d bytes (buffer %d)", asOf, n, buf.Len())
	}

	dstDir := t.TempDir()
	dst := openRepl(t, dstDir)
	// Pre-existing follower state is replaced wholesale, clock included.
	if err := dst.ReplicateBatch(1, []wal.Record{{Op: wal.OpInsert, Key: 555, Val: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreSnapshot(&buf, asOf); err != nil {
		t.Fatal(err)
	}
	if got := dst.CommitSeq(); got != 100 {
		t.Fatalf("CommitSeq after restore = %d, want 100", got)
	}
	if _, ok := dst.Lookup(555); ok {
		t.Fatal("pre-restore key survived the restore")
	}
	if v, ok := dst.Lookup(42); !ok || v != 126 {
		t.Fatalf("Lookup(42) = %d,%v, want 126,true", v, ok)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openRepl(t, dstDir)
	defer d2.Close() //nolint:errcheck
	if got := d2.CommitSeq(); got != 100 {
		t.Fatalf("CommitSeq after restore+restart = %d, want 100", got)
	}
	if d2.Len() != 100 {
		t.Fatalf("Len after restore+restart = %d, want 100", d2.Len())
	}
}

// blockingWriter is a snapshot destination whose first Write runs an Insert
// on the snapshotted handle and waits up to two seconds for it to return.
type blockingWriter struct {
	d       *DurableIndex
	waited  bool
	inserts error // the Insert's result, or a timeout
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	if !w.waited {
		w.waited = true
		done := make(chan error, 1)
		go func() { done <- w.d.Insert(1<<50, 7) }()
		select {
		case w.inserts = <-done:
		case <-time.After(2 * time.Second):
			w.inserts = errors.New("Insert still blocked after 2 s: the snapshot encodes under the commit lock")
		}
	}
	return len(p), nil
}

// TestSnapshotAtHoldsLockForCaptureOnly: SnapshotAt takes the commit lock
// only to capture the contents, so a write on the same handle commits while
// the stream is being written, and the stream is exact as of the sequence
// returned, without that write.
func TestSnapshotAtHoldsLockForCaptureOnly(t *testing.T) {
	for name, opts := range map[string]DirOptions{"legacy": DirOptions{}, "tiered": tieredOpts()} {
		t.Run(name, func(t *testing.T) {
			d, err := OpenDir(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			for k := uint64(1); k <= 100; k++ {
				if err := d.Insert(k, k); err != nil {
					t.Fatal(err)
				}
			}
			w := &blockingWriter{d: d}
			asOf, _, err := d.SnapshotAt(w)
			if err != nil || !w.waited {
				t.Fatalf("SnapshotAt: %v (wrote %v)", err, w.waited)
			}
			if w.inserts != nil {
				t.Fatal(w.inserts)
			}
			if asOf != 100 || d.CommitSeq() != 101 {
				t.Fatalf("snapshot as of %d, clock %d after the Insert; want 100, 101", asOf, d.CommitSeq())
			}
		})
	}
}

// TestWaitSeqWakesOnCommitAndClose: WaitSeq returns nil once the clock
// reaches the target, honors its context, and unblocks with the terminal
// error when the index closes underneath it — never a hang.
func TestWaitSeqWakesOnCommitAndClose(t *testing.T) {
	d := openRepl(t, t.TempDir())
	if err := d.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	// Already satisfied: immediate nil.
	if err := d.WaitSeq(context.Background(), 1); err != nil {
		t.Fatalf("WaitSeq(1) with seq 1 applied: %v", err)
	}

	// Satisfied by a later commit.
	done := make(chan error, 1)
	go func() { done <- d.WaitSeq(context.Background(), 2) }()
	time.Sleep(20 * time.Millisecond)
	if err := d.Insert(2, 2); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitSeq(2) after commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitSeq(2) did not wake on commit")
	}

	// Context expiry.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := d.WaitSeq(ctx, 999); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitSeq(999) under deadline: %v", err)
	}

	// Close wakes a parked waiter with the terminal error.
	go func() { done <- d.WaitSeq(context.Background(), 999) }()
	time.Sleep(20 * time.Millisecond)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrIndexClosed) {
			t.Fatalf("WaitSeq across Close: %v, want ErrIndexClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitSeq hung across Close")
	}
}

// TestReplHealthState pins the replication-health → state mapping:
// divergence is poison-grade and permanent, a stalled or disconnected link
// is degraded, everything else ok.
func TestReplHealthState(t *testing.T) {
	cases := []struct {
		name string
		r    ReplHealth
		want HealthState
	}{
		{"primary-ok", ReplHealth{Role: RolePrimary, Connected: true}, HealthOK},
		{"follower-ok", ReplHealth{Role: RoleFollower, Connected: true}, HealthOK},
		{"follower-disconnected", ReplHealth{Role: RoleFollower}, HealthDegraded},
		{"primary-stalled", ReplHealth{Role: RolePrimary, Stalled: true}, HealthDegraded},
		{"diverged", ReplHealth{Role: RoleFollower, Connected: true, Diverged: true}, HealthPoisoned},
		{"diverged-beats-stalled", ReplHealth{Role: RoleFollower, Stalled: true, Diverged: true}, HealthPoisoned},
		{"fenced-ok", ReplHealth{Role: RoleFenced, Connected: true}, HealthOK},
	}
	for _, tc := range cases {
		if got := tc.r.State(); got != tc.want {
			t.Errorf("%s: State() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMergeReplHealth pins the worst-wins fold of replication state into
// index health (satellite: health aggregation with replication fields).
func TestMergeReplHealth(t *testing.T) {
	poisonErr := errors.New("boom")
	cases := []struct {
		name     string
		h        Health
		r        ReplHealth
		want     HealthState
		wantErr  error
		keepsErr bool // h.Err must come through unchanged
	}{
		{"ok+ok", Health{State: HealthOK}, ReplHealth{Role: RolePrimary, Connected: true}, HealthOK, nil, false},
		{"ok+stalled", Health{State: HealthOK}, ReplHealth{Role: RolePrimary, Stalled: true}, HealthDegraded, ErrReplicaLagging, false},
		{"ok+diverged", Health{State: HealthOK}, ReplHealth{Diverged: true}, HealthPoisoned, ErrReplDivergence, false},
		{"degraded+ok", Health{State: HealthDegraded, Err: ErrDiskFull}, ReplHealth{Role: RolePrimary, Connected: true}, HealthDegraded, ErrDiskFull, true},
		{"degraded+stalled-keeps-index-err", Health{State: HealthDegraded, Err: ErrDiskFull}, ReplHealth{Stalled: true}, HealthDegraded, ErrDiskFull, true},
		{"degraded+diverged", Health{State: HealthDegraded}, ReplHealth{Diverged: true}, HealthPoisoned, ErrReplDivergence, false},
		{"poisoned-untouched", Health{State: HealthPoisoned, Err: poisonErr}, ReplHealth{Role: RolePrimary, Connected: true}, HealthPoisoned, poisonErr, true},
		{"closed-untouched", Health{State: HealthClosed}, ReplHealth{Diverged: true}, HealthClosed, nil, false},
	}
	for _, tc := range cases {
		got := MergeReplHealth(tc.h, tc.r)
		if got.State != tc.want {
			t.Errorf("%s: State = %v, want %v", tc.name, got.State, tc.want)
		}
		if tc.wantErr != nil && !errors.Is(got.Err, tc.wantErr) {
			t.Errorf("%s: Err = %v, want %v", tc.name, got.Err, tc.wantErr)
		}
		if tc.wantErr == nil && got.Err != nil {
			t.Errorf("%s: Err = %v, want nil", tc.name, got.Err)
		}
	}
}

// checkNamesCarryBase fails if dir holds a seq sidecar, or a snapshot or WAL
// named without its base.
func checkNamesCarryBase(t *testing.T, dir string) {
	t.Helper()
	if err := refuseLayout(faultfs.OS, dir, false); err != nil {
		t.Fatal(err)
	}
}

// TestNamesCarryBase: every operation that writes or rotates a snapshot or
// WAL, on a fresh legacy and a fresh tiered directory, leaves no seq sidecar
// and names every snapshot and WAL with its base.
func TestNamesCarryBase(t *testing.T) {
	for name, opts := range map[string]DirOptions{"legacy": DirOptions{}, "tiered": tieredOpts()} {
		t.Run(name, func(t *testing.T) {
			src, err := OpenDir(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			for k := uint64(1); k <= 20; k++ {
				if err := src.Insert(k<<20, k); err != nil {
					t.Fatal(err)
				}
			}
			var snap bytes.Buffer
			asOf, _, err := src.SnapshotAt(&snap)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			d, err := OpenDir(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { d.Close() }()
			steps := []func() error{
				func() error { return d.BulkLoad([]uint64{1, 2, 3}, nil) },
				func() error { return d.Insert(10, 1) },
				d.Checkpoint,
				func() error { return d.Insert(11, 1) },
				d.Flush,
				d.Compact,
				func() error { return d.RestoreSnapshot(bytes.NewReader(snap.Bytes()), asOf) },
				func() error { return d.Insert(12, 1) },
				d.Close,
			}
			for i, step := range steps {
				if err := step(); err != nil && !errors.Is(err, ErrNotTiered) {
					t.Fatalf("step %d: %v", i, err)
				}
				checkNamesCarryBase(t, dir)
			}
			if d, err = OpenDir(dir, opts); err != nil {
				t.Fatal(err)
			}
			if got := d.CommitSeq(); got != asOf+1 {
				t.Fatalf("CommitSeq after reopen = %d, want %d", got, asOf+1)
			}
			checkNamesCarryBase(t, dir)
		})
	}
}
