package chameleon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chameleon/internal/faultfs"
	"chameleon/internal/wal"
)

// insFrame and delFrame are the WAL bytes one insert and one delete cost.
var (
	insFrame = int64(wal.Record{Op: wal.OpInsert}.FrameSize())
	delFrame = int64(wal.Record{Op: wal.OpDelete}.FrameSize())
)

// waitUntil polls cond until it holds or the deadline passes. The stall-based
// tests use it to wait for the queue/device to reach a known state instead of
// sleeping blind.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadShedFastFail wedges the leader's fsync on a stalled device,
// fills the bounded queue, and checks the shed contract: over-bound mutations
// fail fast with ErrOverloaded, are never logged and never applied (proven by
// reopening), Health keeps answering while the device hangs, and the
// retrainer is paused for the duration of the overload.
func TestOverloadShedFastFail(t *testing.T) {
	dir := t.TempDir()
	stall := faultfs.NewStallFS(faultfs.OS)
	opts := DirOptions{}
	opts.MaxPending = 2
	d, err := openDirFS(dir, opts, stall)
	if err != nil {
		t.Fatal(err)
	}
	stall.StallSyncs()

	var leaderErr, followerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); leaderErr = d.Insert(1, 10) }()
	waitUntil(t, "leader stalled in fsync", func() bool { return stall.Stalled() == 1 })
	wg.Add(1)
	go func() { defer wg.Done(); followerErr = d.Insert(2, 20) }()
	waitUntil(t, "follower enqueued", func() bool { return d.Health().QueueDepth == 2 })

	// Queue is at MaxPending and the device is hung: every further mutation
	// must shed immediately, not block.
	const shedTries = 5
	for i := 0; i < shedTries; i++ {
		start := time.Now()
		err := d.Insert(uint64(100+i), 1)
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("over-bound insert = %v, want ErrOverloaded", err)
		}
		if e := time.Since(start); e > time.Second {
			t.Fatalf("shed took %v, want fast-fail", e)
		}
	}
	if err := d.Delete(1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-bound delete = %v, want ErrOverloaded", err)
	}

	h := d.Health()
	if h.State != HealthOK {
		t.Fatalf("overloaded state = %v, want ok (overload is not degradation)", h.State)
	}
	if h.ShedOps != shedTries+1 {
		t.Fatalf("ShedOps = %d, want %d", h.ShedOps, shedTries+1)
	}
	if h.QueueDepth != 2 || h.QueueHighWater != 2 {
		t.Fatalf("QueueDepth/HighWater = %d/%d, want 2/2", h.QueueDepth, h.QueueHighWater)
	}
	if !h.RetrainPaused || h.RetrainPauses == 0 {
		t.Fatalf("retrainer not paused under overload: %+v", h)
	}

	stall.Release()
	wg.Wait()
	if leaderErr != nil || followerErr != nil {
		t.Fatalf("queued writers failed after release: %v / %v", leaderErr, followerErr)
	}
	if err := d.Insert(3, 30); err != nil {
		t.Fatalf("insert after drain = %v", err)
	}
	if h := d.Health(); h.RetrainPaused {
		t.Fatal("retrainer still paused after the queue drained")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Shed ops must be invisible to recovery: neither applied nor logged.
	r, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, k := range []uint64{1, 2, 3} {
		if _, ok := r.Lookup(k); !ok {
			t.Fatalf("acked key %d lost", k)
		}
	}
	for i := 0; i < shedTries; i++ {
		if _, ok := r.Lookup(uint64(100 + i)); ok {
			t.Fatalf("shed key %d reappeared after reopen", 100+i)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("recovered Len = %d, want 3", r.Len())
	}
}

// TestOverloadQueueBytesPerFrame: the queue charges each admitted op its own
// WAL frame, so an insert and a delete queued behind a stalled fsync show as
// exactly their two frame sizes in Health().QueueBytes, the next op of
// either kind is shed at MaxPending 2, and the drain returns the bytes to 0.
func TestOverloadQueueBytesPerFrame(t *testing.T) {
	dir := t.TempDir()
	stall := faultfs.NewStallFS(faultfs.OS)
	opts := DirOptions{}
	opts.MaxPending = 2
	d, err := openDirFS(dir, opts, stall)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(5, 50); err != nil {
		t.Fatal(err)
	}
	stall.StallSyncs()

	var leaderErr, followerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); leaderErr = d.Insert(1, 10) }()
	waitUntil(t, "leader stalled in fsync", func() bool { return stall.Stalled() == 1 })
	wg.Add(1)
	go func() { defer wg.Done(); followerErr = d.Delete(5) }()
	waitUntil(t, "delete enqueued", func() bool { return d.Health().QueueDepth == 2 })
	if h := d.Health(); h.QueueBytes != insFrame+delFrame {
		t.Fatalf("QueueBytes = %d, want %d", h.QueueBytes, insFrame+delFrame)
	}
	if err := d.Delete(1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-bound delete = %v, want ErrOverloaded", err)
	}
	if err := d.Insert(2, 20); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-bound insert = %v, want ErrOverloaded", err)
	}

	stall.Release()
	wg.Wait()
	if leaderErr != nil || followerErr != nil {
		t.Fatalf("queued writers failed after release: %v / %v", leaderErr, followerErr)
	}
	if h := d.Health(); h.QueueBytes != 0 || h.ShedOps != 2 {
		t.Fatalf("after drain QueueBytes/ShedOps = %d/%d, want 0/2", h.QueueBytes, h.ShedOps)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Lookup(1); !ok || r.Len() != 1 {
		t.Fatalf("recovered Len = %d, want only key 1", r.Len())
	}
}

// TestOverloadBlockOnFull checks the backpressure mode: a full queue makes
// writers wait for space instead of shedding, and they complete once the
// device recovers.
func TestOverloadBlockOnFull(t *testing.T) {
	dir := t.TempDir()
	stall := faultfs.NewStallFS(faultfs.OS)
	opts := DirOptions{}
	opts.MaxPending = 1
	opts.BlockOnFull = true
	d, err := openDirFS(dir, opts, stall)
	if err != nil {
		t.Fatal(err)
	}
	stall.StallSyncs()

	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); errs[0] = d.Insert(1, 10) }()
	waitUntil(t, "leader stalled", func() bool { return stall.Stalled() == 1 })
	wg.Add(1)
	go func() { defer wg.Done(); errs[1] = d.Insert(2, 20) }() // blocks in admission
	time.Sleep(20 * time.Millisecond)
	if h := d.Health(); h.QueueDepth != 1 {
		t.Fatalf("QueueDepth = %d, want 1 (second writer must be blocked, not admitted)", h.QueueDepth)
	}
	stall.Release()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d = %v, want nil after backpressure release", i, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 2 {
		t.Fatalf("recovered Len = %d, want 2", r.Len())
	}
}

// TestDiskFullRetryableAndRecovers drives the WAL into ENOSPC and checks the
// degraded-read-only contract, recovery arm A (operator frees space), under
// each sync policy: no acked write is lost, reads keep serving, the same
// handle accepts writes again after AddCapacity, and recovery sees exactly
// the acked set.
func TestDiskFullRetryableAndRecovers(t *testing.T) {
	t.Run("every_op", func(t *testing.T) {
		dir := t.TempDir()
		q := faultfs.NewQuotaFS(faultfs.OS, 4*insFrame+insFrame/2)
		opts := DirOptions{}
		opts.Sync = SyncEveryOp
		d, err := openDirFS(dir, opts, q)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= 4; k++ {
			if err := d.Insert(k, k*10); err != nil {
				t.Fatalf("insert %d = %v", k, err)
			}
		}
		if err := d.Insert(5, 50); !errors.Is(err, ErrDiskFull) {
			t.Fatalf("over-quota insert = %v, want ErrDiskFull", err)
		}
		h := d.Health()
		if h.State != HealthDegraded {
			t.Fatalf("state after ENOSPC = %v, want degraded", h.State)
		}
		if !errors.Is(h.Err, ErrDiskFull) {
			t.Fatalf("Health.Err = %v, want ErrDiskFull", h.Err)
		}
		if h.DiskFullBatches == 0 {
			t.Fatal("DiskFullBatches not counted")
		}
		// Degraded is read-only, not dead: every read keeps serving.
		if v, ok := d.Lookup(3); !ok || v != 30 {
			t.Fatalf("Lookup(3) = %d,%v while degraded", v, ok)
		}
		if d.Len() != 4 {
			t.Fatalf("Len = %d while degraded, want 4", d.Len())
		}
		// Still full: the same clean, retryable failure.
		if err := d.Insert(5, 50); !errors.Is(err, ErrDiskFull) {
			t.Fatalf("retry while full = %v, want ErrDiskFull", err)
		}
		// Operator frees space: the same handle recovers, no reopen.
		q.AddCapacity(1 << 20)
		if err := d.Insert(5, 50); err != nil {
			t.Fatalf("insert after freeing space = %v", err)
		}
		if h := d.Health(); h.State != HealthOK {
			t.Fatalf("state after recovery = %v, want ok", h.State)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := OpenDir(dir, DirOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.Len() != 5 {
			t.Fatalf("recovered Len = %d, want 5", r.Len())
		}
		for k := uint64(1); k <= 5; k++ {
			if v, ok := r.Lookup(k); !ok || v != k*10 {
				t.Fatalf("recovered Lookup(%d) = %d,%v", k, v, ok)
			}
		}
	})
	t.Run("none", testDiskFullBuffered)
	t.Run("tiered_none", testDiskFullAtFlush)
}

// testDiskFullBuffered is the SyncNone row. Writes wait in the WAL's 64 KiB
// buffer, so the disk-full surfaces at the insert whose frame fills it: that
// insert alone is refused and not applied, the earlier ones stay acked and
// pending (WALSize counts them), and the first write after space is freed
// lands them all.
func testDiskFullBuffered(t *testing.T) {
	dir := t.TempDir()
	q := faultfs.NewQuotaFS(faultfs.OS, 4*insFrame+insFrame/2)
	opts := DirOptions{}
	opts.Sync = SyncNone
	d, err := openDirFS(dir, opts, q)
	if err != nil {
		t.Fatal(err)
	}
	refused := uint64(1)
	for ; ; refused++ {
		if err := d.Insert(refused, refused*10); err != nil {
			if !errors.Is(err, ErrDiskFull) {
				t.Fatalf("insert %d = %v, want ErrDiskFull", refused, err)
			}
			break
		}
	}
	if int64(refused)*insFrame < 64<<10 {
		t.Fatalf("ErrDiskFull at insert %d, before the WAL buffer filled", refused)
	}
	h := d.Health()
	if h.State != HealthDegraded || !errors.Is(h.Err, ErrDiskFull) || h.DiskFullBatches != 1 {
		t.Fatalf("Health after ENOSPC = %v, %v, %d disk-full batches; want degraded, ErrDiskFull, 1", h.State, h.Err, h.DiskFullBatches)
	}
	acked := refused - 1
	if v, ok := d.Lookup(acked); !ok || v != acked*10 || d.Len() != int(acked) {
		t.Fatalf("Lookup(%d) = %d,%v, Len = %d while degraded; want the %d acked inserts", acked, v, ok, d.Len(), acked)
	}
	if _, ok := d.Lookup(refused); ok {
		t.Fatalf("the refused insert %d was applied", refused)
	}
	if got, want := d.WALSize(), int64(acked)*insFrame; got != want {
		t.Fatalf("WALSize = %d, want %d: the acked frames, pending", got, want)
	}
	// Still full: the same clean, retryable failure.
	if err := d.Insert(refused, refused*10); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("retry while full = %v, want ErrDiskFull", err)
	}
	// Operator frees space: the retry writes every pending frame with its own.
	q.AddCapacity(1 << 20)
	if err := d.Insert(refused, refused*10); err != nil {
		t.Fatalf("insert after freeing space = %v", err)
	}
	if h := d.Health(); h.State != HealthOK {
		t.Fatalf("state after recovery = %v, want ok", h.State)
	}
	if got, want := q.Used(), int64(refused)*insFrame; got < want {
		t.Fatalf("the disk holds %d bytes after the retry, want every acked frame: %d", got, want)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != int(refused) {
		t.Fatalf("recovered Len = %d, want %d", r.Len(), refused)
	}
	for k := uint64(1); k <= refused; k++ {
		if v, ok := r.Lookup(k); !ok || v != k*10 {
			t.Fatalf("recovered Lookup(%d) = %d,%v", k, v, ok)
		}
	}
}

// testDiskFullAtFlush is the tiered SyncNone row: a buffer short of full
// meets the full disk at the Checkpoint (a flush) that must write it before
// rotating the WAL. The flush fails and rotates nothing, no write is
// refused, and the next flush lands every acked frame's record.
func testDiskFullAtFlush(t *testing.T) {
	dir := t.TempDir()
	q := faultfs.NewQuotaFS(faultfs.OS, 4*insFrame+insFrame/2)
	opts := tieredOpts()
	opts.Sync = SyncNone
	d, err := openDirFS(dir, opts, q)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 100; k++ {
		if err := d.Insert(k, k*10); err != nil {
			t.Fatalf("buffered insert %d = %v", k, err)
		}
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("checkpoint on a full disk = %v, want ErrDiskFull", err)
	}
	if h := d.Health(); h.State != HealthOK || h.DiskFullBatches != 0 || h.Tier.FlushErrs != 1 {
		t.Fatalf("Health after the failed flush = %v, %d disk-full batches, %d flush errors; want ok, 0, 1",
			h.State, h.DiskFullBatches, h.Tier.FlushErrs)
	}
	if err := d.Insert(101, 1010); err != nil {
		t.Fatalf("insert after the failed flush = %v", err)
	}
	q.AddCapacity(1 << 20)
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after freeing space = %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDir(dir, tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 101 {
		t.Fatalf("recovered Len = %d, want 101", r.Len())
	}
	for k := uint64(1); k <= 101; k++ {
		if v, ok := r.Lookup(k); !ok || v != k*10 {
			t.Fatalf("recovered Lookup(%d) = %d,%v", k, v, ok)
		}
	}
}

// TestDiskFullCheckpointRotationRecovers exercises recovery arm B: the WAL
// has consumed the disk, the operator can only scrape together enough
// headroom for one snapshot, and it is the checkpoint's log truncation — not
// the headroom — that restores write capacity, on the same handle.
func TestDiskFullCheckpointRotationRecovers(t *testing.T) {
	dir := t.TempDir()
	const initial = int64(1 << 20)
	q := faultfs.NewQuotaFS(faultfs.OS, initial)
	opts := DirOptions{}
	opts.Sync = SyncNone
	d, err := openDirFS(dir, opts, q)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = uint64(i) * 7
	}
	if err := d.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	base := q.Used() // ≈ one snapshot; the WAL is empty right after BulkLoad

	// Shrink the disk to snapshot + a WAL budget, then churn one key until
	// the log fills it. Insert/delete of the same key keeps the index (and
	// so the next snapshot) the same size while the WAL grows two frames per
	// round — the "WAL dwarfs the data" shape where rotation is the cure.
	budget := 2000 * (insFrame + delFrame)
	q.AddCapacity(base + budget - initial)
	churn := uint64(999_999)
	present := false
	for {
		if err := d.Insert(churn, 1); err != nil {
			if !errors.Is(err, ErrDiskFull) {
				t.Fatalf("churn insert = %v, want ErrDiskFull eventually", err)
			}
			break
		}
		present = true
		if err := d.Delete(churn); err != nil {
			if !errors.Is(err, ErrDiskFull) {
				t.Fatalf("churn delete = %v, want ErrDiskFull eventually", err)
			}
			break
		}
		present = false
	}
	if h := d.Health(); h.State != HealthDegraded {
		t.Fatalf("state after filling the disk = %v, want degraded", h.State)
	}

	// The operator can free only snapshot-sized headroom — far less than the
	// WAL's footprint. A checkpoint must fit in it, rotate, and GC the log.
	headroom := base + 16384
	q.AddCapacity(headroom)
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with snapshot-sized headroom = %v", err)
	}
	if h := d.Health(); h.State != HealthOK {
		t.Fatalf("state after checkpoint rotation = %v, want ok", h.State)
	}
	// The rotation must have freed substantially more than the operator
	// added — the recovered capacity came from truncating the log.
	capacity := base + budget + headroom
	if free := capacity - q.Used(); free < budget/2 {
		t.Fatalf("checkpoint freed too little: %d bytes free of %d budget", free, budget)
	}

	// Writes flow again on the same handle, well beyond what the headroom
	// alone could hold.
	extra := int(budget / (2 * insFrame))
	if int64(extra)*insFrame <= headroom {
		t.Fatalf("test geometry broken: %d frames don't exceed headroom %d", extra, headroom)
	}
	for i := 0; i < extra; i++ {
		if err := d.Insert(uint64(2_000_000+i), 1); err != nil {
			t.Fatalf("insert %d after rotation = %v", i, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := len(keys) + extra
	if present {
		want++
	}
	if r.Len() != want {
		t.Fatalf("recovered Len = %d, want %d", r.Len(), want)
	}
	for _, k := range keys {
		if _, ok := r.Lookup(k); !ok {
			t.Fatalf("bulk key %d lost across disk-full + rotation", k)
		}
	}
}

// TestInsertCtxCancelWhileQueued cancels a follower whose op is enqueued
// behind a wedged batch but not yet claimed: it must return ctx.Err()
// promptly — while the device is still hung — and the op must have no durable
// effect.
func TestInsertCtxCancelWhileQueued(t *testing.T) {
	dir := t.TempDir()
	stall := faultfs.NewStallFS(faultfs.OS)
	d, err := openDirFS(dir, DirOptions{}, stall)
	if err != nil {
		t.Fatal(err)
	}
	stall.StallSyncs()

	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); leaderErr = d.Insert(1, 10) }()
	waitUntil(t, "leader stalled", func() bool { return stall.Stalled() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	ctxErr := make(chan error, 1)
	go func() { ctxErr <- d.InsertCtx(ctx, 2, 20) }()
	waitUntil(t, "follower enqueued", func() bool { return d.Health().QueueDepth == 2 })
	cancel()
	select {
	case err := <-ctxErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled InsertCtx = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled InsertCtx did not return while the device was hung")
	}
	if h := d.Health(); h.CancelledOps != 1 {
		t.Fatalf("CancelledOps = %d, want 1", h.CancelledOps)
	}

	stall.Release()
	wg.Wait()
	if leaderErr != nil {
		t.Fatalf("leader = %v", leaderErr)
	}
	if err := d.Insert(3, 30); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Lookup(2); ok {
		t.Fatal("cancelled op left a durable effect")
	}
	if r.Len() != 2 {
		t.Fatalf("recovered Len = %d, want 2", r.Len())
	}
}

// TestInsertCtxClaimedStillAcks cancels an op after the leader has claimed it
// into a committing batch: cancellation must NOT take effect — the call waits
// out the batch and reports the true (durable) outcome. This is the "never a
// third state" half of the cancellation contract: a frame that may already be
// on disk is never reported as cancelled.
func TestInsertCtxClaimedStillAcks(t *testing.T) {
	dir := t.TempDir()
	// The slow layer keeps each released fsync dragging for a beat, closing
	// the race between "previous batch released" and "stall re-armed".
	stall := faultfs.NewStallFS(faultfs.NewSlowFS(faultfs.OS, 0, 30*time.Millisecond))
	d, err := openDirFS(dir, DirOptions{}, stall)
	if err != nil {
		t.Fatal(err)
	}
	stall.StallSyncs()

	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); leaderErr = d.Insert(1, 10) }()
	waitUntil(t, "leader stalled", func() bool { return stall.Stalled() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	ctxErr := make(chan error, 1)
	go func() { ctxErr <- d.InsertCtx(ctx, 2, 20) }()
	waitUntil(t, "follower enqueued", func() bool { return d.Health().QueueDepth == 2 })

	// Let batch 1 through and immediately re-arm: batch 2 — now containing
	// the claimed follower op — wedges on its own fsync.
	stall.Release()
	stall.StallSyncs()
	waitUntil(t, "second batch stalled", func() bool {
		return stall.Stalled() == 1 && d.Health().QueueDepth == 1
	})

	cancel()
	select {
	case err := <-ctxErr:
		t.Fatalf("claimed op resolved on cancel with %v; must wait for the batch", err)
	case <-time.After(200 * time.Millisecond):
		// Still blocked: correct — the frame may already be durable.
	}
	stall.Release()
	select {
	case err := <-ctxErr:
		if err != nil {
			t.Fatalf("claimed op = %v, want nil (committed)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("claimed op never resolved after release")
	}
	wg.Wait()
	if leaderErr != nil {
		t.Fatalf("leader = %v", leaderErr)
	}
	if h := d.Health(); h.CancelledOps != 0 {
		t.Fatalf("CancelledOps = %d, want 0 (claimed op is not cancellable)", h.CancelledOps)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v, ok := r.Lookup(2); !ok || v != 20 {
		t.Fatalf("claimed+acked op not durable: %d,%v", v, ok)
	}
}

// TestCloseWakesAdmissionWaiters closes the index while a writer is blocked
// in admission (BlockOnFull) behind a wedged batch: the waiter must wake with
// ErrIndexClosed immediately — even though Close itself is still parked
// behind the in-flight batch.
func TestCloseWakesAdmissionWaiters(t *testing.T) {
	dir := t.TempDir()
	stall := faultfs.NewStallFS(faultfs.OS)
	opts := DirOptions{}
	opts.MaxPending = 1
	opts.BlockOnFull = true
	d, err := openDirFS(dir, opts, stall)
	if err != nil {
		t.Fatal(err)
	}
	stall.StallSyncs()

	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); leaderErr = d.Insert(1, 10) }()
	waitUntil(t, "leader stalled", func() bool { return stall.Stalled() == 1 })

	waiterErr := make(chan error, 1)
	go func() { waiterErr <- d.Insert(2, 20) }() // queue full: blocks for space
	time.Sleep(20 * time.Millisecond)

	closeErr := make(chan error, 1)
	go func() { closeErr <- d.Close() }()

	// The admission waiter must resolve while the device is still hung and
	// Close has not returned.
	select {
	case err := <-waiterErr:
		if !errors.Is(err, ErrIndexClosed) {
			t.Fatalf("admission waiter = %v, want ErrIndexClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("admission waiter still blocked after Close")
	}
	select {
	case err := <-closeErr:
		t.Fatalf("Close returned %v before the in-flight batch resolved", err)
	default:
	}

	stall.Release()
	if err := <-closeErr; err != nil {
		t.Fatalf("Close = %v", err)
	}
	wg.Wait()
	if leaderErr != nil {
		t.Fatalf("in-flight leader = %v, want nil (its batch committed before Close)", leaderErr)
	}
	r, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Lookup(1); !ok {
		t.Fatal("acked pre-Close write lost")
	}
	if _, ok := r.Lookup(2); ok {
		t.Fatal("ErrIndexClosed write was applied")
	}
}

// TestCloseErrsBlockedWriters closes the index while a wedged leader holds a
// committing batch and more writers sit queued behind it. Every writer must
// resolve deterministically — nil with the write durable, or ErrIndexClosed
// with no trace of it — and nothing may hang. Run under -race in CI.
func TestCloseErrsBlockedWriters(t *testing.T) {
	dir := t.TempDir()
	stall := faultfs.NewStallFS(faultfs.OS)
	d, err := openDirFS(dir, DirOptions{}, stall)
	if err != nil {
		t.Fatal(err)
	}
	stall.StallSyncs()

	const writers = 8
	errs := make([]error, writers)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); errs[0] = d.Insert(0, 0) }()
	waitUntil(t, "leader stalled", func() bool { return stall.Stalled() == 1 })
	for i := 1; i < writers; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); errs[i] = d.Insert(uint64(i), uint64(i)) }(i)
	}
	waitUntil(t, "writers queued", func() bool { return d.Health().QueueDepth == writers })

	var closeDone atomic.Bool
	closeErr := make(chan error, 1)
	go func() {
		err := d.Close()
		closeDone.Store(true)
		closeErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let Close pass the admission gate
	stall.Release()
	wg.Wait()
	if err := <-closeErr; err != nil {
		t.Fatalf("Close = %v", err)
	}

	// A mutation starting after Close returned must fail immediately.
	if !closeDone.Load() {
		t.Fatal("close flag unset after Close returned")
	}
	if err := d.Insert(999, 1); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("post-Close insert = %v, want ErrIndexClosed", err)
	}

	acked := map[uint64]bool{}
	for i, err := range errs {
		switch {
		case err == nil:
			acked[uint64(i)] = true
		case errors.Is(err, ErrIndexClosed):
		default:
			t.Fatalf("writer %d resolved with %v, want nil or ErrIndexClosed", i, err)
		}
	}
	r, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != len(acked) {
		t.Fatalf("recovered Len = %d, want %d acked", r.Len(), len(acked))
	}
	for k := range acked {
		if _, ok := r.Lookup(k); !ok {
			t.Fatalf("acked key %d lost (acked-then-closed must stay durable)", k)
		}
	}
}

// TestReadSurfacePoisonedAndClosed pins down the read contract on unhealthy
// handles: a poisoned index keeps serving reads (it is read-only, not gone)
// while a closed one returns clean zero values, with Err and Health telling
// the two apart.
func TestReadSurfacePoisonedAndClosed(t *testing.T) {
	// Poisoned: a failing checkpoint during BulkLoad fail-stops the handle.
	dir := t.TempDir()
	d, err := openDirFS(dir, DirOptions{}, renameFailFS{faultfs.OS})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.BulkLoad([]uint64{1, 2, 3}, nil); err == nil {
		t.Fatal("BulkLoad with failing checkpoint succeeded")
	}
	if h := d.Health(); h.State != HealthPoisoned || h.Err == nil {
		t.Fatalf("Health after poison = %+v, want poisoned with cause", h)
	}
	if d.Err() == nil {
		t.Fatal("Err() nil on poisoned handle")
	}
	if v, ok := d.Lookup(2); !ok || v != 2 {
		t.Fatalf("poisoned Lookup(2) = %d,%v; reads must keep serving", v, ok)
	}
	if d.Len() != 3 {
		t.Fatalf("poisoned Len = %d, want 3", d.Len())
	}
	if err := d.Insert(9, 9); err == nil || errors.Is(err, ErrIndexClosed) {
		t.Fatalf("poisoned insert = %v, want the sticky poison error", err)
	}

	// Closed: a healthy handle, closed cleanly.
	dir2 := t.TempDir()
	c, err := OpenDir(dir2, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(7, 70); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Lookup(7); ok || v != 0 {
		t.Fatalf("closed Lookup = %d,%v, want zero values", v, ok)
	}
	if c.Len() != 0 {
		t.Fatal("closed handle leaked non-zero read results")
	}
	called := false
	c.Range(0, ^uint64(0), func(k, v uint64) bool { called = true; return true })
	if called {
		t.Fatal("closed Range visited keys")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("closed Stats = %+v, want zero", s)
	}
	if !errors.Is(c.Err(), ErrIndexClosed) {
		t.Fatalf("closed Err() = %v, want ErrIndexClosed", c.Err())
	}
	if h := c.Health(); h.State != HealthClosed || !errors.Is(h.Err, ErrIndexClosed) {
		t.Fatalf("closed Health = %+v", h)
	}
	if n := c.WALSize(); n != 0 {
		t.Fatalf("closed WALSize = %d, want 0", n)
	}
	// The data survived the close, of course — it's the handle that's done.
	r, err := OpenDir(dir2, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v, ok := r.Lookup(7); !ok || v != 70 {
		t.Fatalf("reopened Lookup(7) = %d,%v", v, ok)
	}
}

// TestWALSizeUnderConcurrentWriters checks that WALSize stays consistent
// while writers of inserts and deletes race it: always a whole number of
// frames (some inserts and at most as many deletes), never decreasing (ops
// move from queue accounting into the log, counted exactly once), and exact
// once the dust settles.
func TestWALSizeUnderConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	opts := DirOptions{}
	opts.Sync = SyncNone
	d, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const writers, perWriter = 8, 200 // per writer: 200 inserts, 100 deletes
	wholeFrames := func(s int64) bool {
		for dels := int64(0); dels*(insFrame+delFrame) <= s; dels++ {
			if (s-dels*delFrame)%insFrame == 0 {
				return true
			}
		}
		return false
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var sampleErr atomic.Value
	go func() {
		var prev int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := d.WALSize()
			if !wholeFrames(s) {
				sampleErr.Store(fmt.Errorf("WALSize %d is not a sum of whole frames", s))
				return
			}
			if s < prev {
				sampleErr.Store(fmt.Errorf("WALSize went backwards: %d after %d", s, prev))
				return
			}
			prev = s
			// Pace the probe: sampling is an observer, not a contender for
			// the commit path's mutex.
			time.Sleep(50 * time.Microsecond)
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := uint64(w*perWriter + i)
				if err := d.Insert(key, 1); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if i%2 == 1 {
					if err := d.Delete(key - 1); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err, _ := sampleErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if got, want := d.WALSize(), writers*(perWriter*insFrame+perWriter/2*delFrame); got != want {
		t.Fatalf("final WALSize = %d, want %d", got, want)
	}
}

// TestOverloadSoak hammers a bounded queue on a disk that keeps running out
// of space with a mix of plain writes, deadline writes, and checkpoints, then
// proves the global two-state oracle: a key exists after recovery if and only
// if its write returned nil. This is the CI -race soak.
func TestOverloadSoak(t *testing.T) {
	dir := t.TempDir()
	q := faultfs.NewQuotaFS(faultfs.OS, 40*insFrame)
	opts := DirOptions{}
	opts.Sync = SyncNone
	opts.MaxPending = 8
	d, err := openDirFS(dir, opts, q)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const perWriter = 300
	results := make([]error, writers*perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				id := w*perWriter + i
				key := uint64(1000 + id)
				switch rng.Intn(3) {
				case 0:
					results[id] = d.Insert(key, key)
				case 1:
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(200))*time.Microsecond)
					results[id] = d.InsertCtx(ctx, key, key)
					cancel()
				default:
					ctx, cancel := context.WithCancel(context.Background())
					if rng.Intn(2) == 0 {
						cancel()
					}
					results[id] = d.InsertCtx(ctx, key, key)
					cancel()
				}
				if rng.Intn(64) == 0 {
					time.Sleep(time.Microsecond)
				}
			}
		}(w)
	}
	// The "operator": keeps freeing a dribble of space and checkpointing so
	// the workload oscillates between ok, overloaded, and disk-full.
	opDone := make(chan struct{})
	go func() {
		defer close(opDone)
		for i := 0; i < 200; i++ {
			q.AddCapacity(10 * insFrame)
			if i%10 == 0 {
				d.Checkpoint() //nolint:errcheck // may legitimately hit ENOSPC
			}
			d.Health()
			time.Sleep(time.Millisecond)
		}
		q.AddCapacity(1 << 20) // open the floodgates so the tail drains
	}()
	wg.Wait()
	<-opDone
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	okCount := 0
	for id, res := range results {
		key := uint64(1000 + id)
		_, exists := r.Lookup(key)
		if res == nil {
			okCount++
			if !exists {
				t.Fatalf("key %d acked nil but missing after recovery", key)
			}
			continue
		}
		if exists {
			t.Fatalf("key %d rejected with %v but exists after recovery", key, res)
		}
		if !errors.Is(res, ErrOverloaded) && !errors.Is(res, ErrDiskFull) &&
			!errors.Is(res, context.Canceled) && !errors.Is(res, context.DeadlineExceeded) {
			t.Fatalf("key %d failed with unexpected error %v", key, res)
		}
	}
	if okCount == 0 {
		t.Fatal("soak acked nothing; workload never made progress")
	}
	if r.Len() != okCount {
		t.Fatalf("recovered Len = %d, want %d acked", r.Len(), okCount)
	}
	t.Logf("soak: %d/%d acked, health=%+v", okCount, len(results), r.Health())
}

// walFailFS tears the live WAL's writes once armed: the write that crosses
// the budget reaches the file only up to it and fails with
// faultfs.ErrInjected, an I/O error and not a full disk, as does every later
// write to that file. Logs created after the arming write normally.
type walFailFS struct {
	faultfs.FS
	mu   sync.Mutex
	live *walFailFile // the WAL file created last
}

func (f *walFailFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || flag&os.O_CREATE == 0 || !strings.HasPrefix(filepath.Base(name), walPrefix) {
		return file, err
	}
	wf := &walFailFile{File: file, w: file}
	f.mu.Lock()
	f.live = wf
	f.mu.Unlock()
	return wf, nil
}

// arm lets the live WAL file take budget more bytes.
func (f *walFailFS) arm(budget int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.live.mu.Lock()
	f.live.w = &faultfs.Writer{W: f.live.File, Budget: budget}
	f.live.mu.Unlock()
}

type walFailFile struct {
	faultfs.File
	mu sync.Mutex
	w  io.Writer // the file, or a faultfs.Writer over it once armed
}

func (f *walFailFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.w.Write(p)
}

// TestWALStickyErrorDropsBuffer pins DESIGN.md §7's "A sticky write error
// drops the buffer" on a SyncNone directory of each engine. Inserts are
// acked into the WAL's buffer until it fills; its write then tears after
// `whole` frames and fails with an I/O error. That insert fails, and so does
// every later one. On the tiered row every Flush returns the sticky error
// (it must write the buffer before it rotates the log), and a reopen holds
// exactly the base and the `whole` inserts whose frames reached the file:
// the other acked inserts are lost. On the legacy row a Checkpoint puts
// every acked insert in its snapshot, and its fresh log clears the
// degradation and takes writes again.
func TestWALStickyErrorDropsBuffer(t *testing.T) {
	const whole = 100
	base := make([]uint64, 1000)
	for i := range base {
		base[i] = uint64(i) * 2
	}
	for _, tiered := range []bool{true, false} {
		name := "legacy"
		if tiered {
			name = "tiered"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := DirOptions{}
			if tiered {
				opts = tieredOpts()
			}
			opts.Sync = SyncNone
			fsys := &walFailFS{FS: faultfs.OS}
			d, err := openDirFS(dir, opts, fsys)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.BulkLoad(base, nil); err != nil {
				t.Fatal(err)
			}
			fsys.arm(whole*insFrame + insFrame/2)
			var acked []uint64 // odd keys, in commit order
			var sticky error
			for k := uint64(1); sticky == nil; k += 2 {
				if sticky = d.Insert(k, k); sticky == nil {
					acked = append(acked, k)
				}
			}
			if !errors.Is(sticky, faultfs.ErrInjected) || errors.Is(sticky, ErrDiskFull) {
				t.Fatalf("insert that filled the buffer = %v, want the injected, non-disk-full error", sticky)
			}
			if len(acked) <= whole {
				t.Fatalf("%d inserts acked before the buffer's write, want more than the %d whole frames it tears after", len(acked), whole)
			}
			if err := d.Insert(1<<40, 1); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("insert after the failure = %v, want the sticky error", err)
			}
			if h := d.Health(); h.State != HealthDegraded {
				t.Fatalf("state after the failure = %v, want degraded", h.State)
			}
			want := acked[:whole]
			if tiered {
				for i := 0; i < 2; i++ {
					if err := d.Flush(); !errors.Is(err, faultfs.ErrInjected) {
						t.Fatalf("Flush %d after the failure = %v, want the sticky error", i, err)
					}
				}
				if err := d.Close(); !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("Close = %v, want the sticky error", err)
				}
			} else {
				if err := d.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint after the failure = %v", err)
				}
				if h := d.Health(); h.State != HealthOK {
					t.Fatalf("state after the checkpoint = %v, want ok", h.State)
				}
				if err := d.Insert(1<<40, 1); err != nil {
					t.Fatalf("insert after the checkpoint = %v", err)
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				want = append(acked, 1<<40)
			}

			r, err := OpenDir(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Len() != len(base)+len(want) {
				t.Fatalf("reopened Len = %d, want %d base keys + %d inserts", r.Len(), len(base), len(want))
			}
			for _, k := range want {
				if _, ok := r.Lookup(k); !ok {
					t.Fatalf("reopened index lacks insert %d", k)
				}
			}
		})
	}
}
