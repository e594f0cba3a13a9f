package chameleon

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"chameleon/internal/faultfs"
	"chameleon/internal/wal"
)

// insRecs returns one insert record per key.
func insRecs(keys ...uint64) []wal.Record {
	recs := make([]wal.Record, len(keys))
	for i, k := range keys {
		recs[i] = wal.Record{Op: wal.OpInsert, Key: k, Val: k * 10}
	}
	return recs
}

// wantAll fails unless every error in errs is want (errors.Is; nil for nil).
func wantAll(t *testing.T, what string, errs []error, want error) {
	t.Helper()
	for i, err := range errs {
		if (want == nil && err != nil) || (want != nil && !errors.Is(err, want)) {
			t.Fatalf("%s: op %d = %v, want %v", what, i, err, want)
		}
	}
}

// checkRunErrs fails unless errs[i] matches want[i] (errors.Is; nil for
// nil) for every i in want.
func checkRunErrs(t *testing.T, recs []wal.Record, errs, want []error) {
	t.Helper()
	for i := range want {
		if (want[i] == nil) != (errs[i] == nil) || !errors.Is(errs[i], want[i]) {
			t.Fatalf("op %d (%+v) = %v, want %v", i, recs[i], errs[i], want[i])
		}
	}
}

// stalledLeader opens dir on a StallFS with opts and wedges one Insert of
// key 1 in its fsync, so the queue holds one pending op until release.
func stalledLeader(t *testing.T, dir string, opts DirOptions) (d *DurableIndex, release func()) {
	t.Helper()
	stall := faultfs.NewStallFS(faultfs.OS)
	d, err := openDirFS(dir, opts, stall)
	if err != nil {
		t.Fatal(err)
	}
	stall.StallSyncs()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := d.Insert(1, 10); err != nil {
			t.Errorf("stalled leader's insert: %v", err)
		}
	}()
	waitUntil(t, "leader stalled in fsync", func() bool { return stall.Stalled() == 1 })
	return d, func() { stall.Release(); wg.Wait() }
}

// reopenLacks reopens dir and fails if any of keys is present.
func reopenLacks(t *testing.T, dir string, keys ...uint64) *DurableIndex {
	t.Helper()
	r, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, ok := r.Lookup(k); ok {
			t.Fatalf("key %d of a rejected entry is present after reopen", k)
		}
	}
	return r
}

// TestWriteBatchAdmittedWhole pins admission per entry under MaxPending 4
// with one op pending: an entry of 4 does not fit and is shed whole (or,
// with BlockOnFull, waits whole, admitting none of its ops until the room
// is there); an entry of 3 fits exactly; and an entry larger than the bound
// is admitted into an empty queue instead of never.
func TestWriteBatchAdmittedWhole(t *testing.T) {
	for _, block := range []bool{false, true} {
		t.Run(fmt.Sprintf("BlockOnFull=%v", block), func(t *testing.T) {
			dir := t.TempDir()
			opts := DirOptions{}
			opts.MaxPending = 4
			opts.BlockOnFull = block
			d, release := stalledLeader(t, dir, opts)

			big, fits := insRecs(100, 101, 102, 103), insRecs(200, 201, 202)
			bigErrs, fitsErrs := make([]error, len(big)), make([]error, len(fits))
			var wg sync.WaitGroup
			if block {
				wg.Add(1)
				go func() { defer wg.Done(); d.WriteBatchCtx(context.Background(), big, bigErrs) }()
				time.Sleep(50 * time.Millisecond)
				if q := d.Health().QueueDepth; q != 1 {
					t.Fatalf("queue depth %d while an entry of 4 waits beside 1 pending op under bound 4, want 1", q)
				}
			} else {
				// An entry wrongly admitted would wait behind the stall: the
				// deadline turns that into a failure, not a hang.
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				d.WriteBatchCtx(ctx, big, bigErrs)
				cancel()
				wantAll(t, "entry of 4 beside 1 pending op", bigErrs, ErrOverloaded)
				if h := d.Health(); h.ShedOps != 4 || h.QueueDepth != 1 {
					t.Fatalf("after shedding an entry of 4: ShedOps %d, QueueDepth %d, want 4, 1", h.ShedOps, h.QueueDepth)
				}
				wg.Add(1)
				go func() { defer wg.Done(); d.WriteBatchCtx(context.Background(), fits, fitsErrs) }()
				waitUntil(t, "entry of 3 queued", func() bool { return d.Health().QueueDepth == 4 })
			}
			release()
			wg.Wait()
			if block {
				wantAll(t, "entry of 4 that waited for room", bigErrs, nil)
			} else {
				wantAll(t, "entry of 3 that fit", fitsErrs, nil)
			}

			huge := insRecs(300, 301, 302, 303, 304, 305)
			hugeErrs := make([]error, len(huge))
			d.WriteBatchCtx(context.Background(), huge, hugeErrs)
			wantAll(t, "entry of 6 into an empty queue under bound 4", hugeErrs, nil)
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			r := reopenLacks(t, dir)
			defer r.Close()
			want := 1 + len(huge) + 3
			if block {
				want = 1 + len(huge) + len(big)
			}
			if r.Len() != want {
				t.Fatalf("recovered Len %d, want %d", r.Len(), want)
			}
		})
	}
}

// TestWriteBatchCancelledWhole: an entry queued behind a stalled batch and
// cancelled before any leader claims it is withdrawn whole. Every op reports
// the context's error, the queue gives back all of its room at once, and
// after the stall clears and the directory reopens none of its ops exists.
func TestWriteBatchCancelledWhole(t *testing.T) {
	dir := t.TempDir()
	d, release := stalledLeader(t, dir, DirOptions{})

	recs := insRecs(10, 11, 12)
	errs := make([]error, len(recs))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); d.WriteBatchCtx(ctx, recs, errs) }()
	waitUntil(t, "entry queued", func() bool { return d.Health().QueueDepth == 4 })
	cancel()
	<-done
	wantAll(t, "cancelled entry", errs, context.Canceled)
	if h := d.Health(); h.CancelledOps != 3 || h.QueueDepth != 1 {
		t.Fatalf("after withdrawing an entry of 3: CancelledOps %d, QueueDepth %d, want 3, 1", h.CancelledOps, h.QueueDepth)
	}
	release()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r := reopenLacks(t, dir, 10, 11, 12)
	defer r.Close()
	if r.Len() != 1 {
		t.Fatalf("recovered Len %d, want 1 (the stalled leader's key)", r.Len())
	}
}

// TestWriteBatchSerialValidation: an entry is validated op by op as if its
// ops had been issued one after another, and is not a transaction — a
// failing op fails alone.
func TestWriteBatchSerialValidation(t *testing.T) {
	d, err := OpenDir(t.TempDir(), DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Insert(5, 50); err != nil {
		t.Fatal(err)
	}
	recs := []wal.Record{
		{Op: wal.OpInsert, Key: 5, Val: 1}, // duplicate of a stored key
		{Op: wal.OpInsert, Key: 6, Val: 60},
		{Op: wal.OpDelete, Key: 6}, // deletes the insert just before it
		{Op: wal.OpDelete, Key: 7}, // absent
		{Op: wal.OpInsert, Key: 8, Val: 80},
		{Op: wal.OpInsert, Key: 8, Val: 81}, // duplicate of the insert before it
		{Op: wal.OpDelete, Key: 5},
		{Op: 9, Key: 9}, // neither an insert nor a delete
	}
	want := []error{ErrDuplicateKey, nil, nil, ErrKeyNotFound, nil, ErrDuplicateKey, nil}
	errs := make([]error, len(recs))
	d.WriteBatchCtx(context.Background(), recs, errs)
	checkRunErrs(t, recs, errs, want)
	if errs[len(want)] == nil {
		t.Fatalf("op %d (%+v) was accepted", len(want), recs[len(want)])
	}
	for k, wantVal := range map[uint64]uint64{5: 0, 6: 0, 7: 0, 8: 80, 9: 0} {
		if v, ok := d.Lookup(k); ok != (wantVal != 0) || v != wantVal {
			t.Fatalf("Lookup(%d) = %d, %v after the entry", k, v, ok)
		}
	}
}

// TestShardedWriteBatchRunOrder: a run across four shards becomes one entry
// per shard, and each op's error comes back at its own position in the run,
// with the ops of one shard validated in run order.
func TestShardedWriteBatchRunOrder(t *testing.T) {
	opts := shardOpts(4)
	opts.boundaries = []uint64{1000, 2000, 3000}
	s, err := OpenShardedDir(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, k := range []uint64{5, 2500} {
		if err := s.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	recs := []wal.Record{
		{Op: wal.OpInsert, Key: 2500, Val: 1}, // shard 2: duplicate
		{Op: wal.OpInsert, Key: 10, Val: 1},   // shard 0
		{Op: wal.OpDelete, Key: 3500},         // shard 3: absent
		{Op: wal.OpInsert, Key: 1500, Val: 1}, // shard 1
		{Op: wal.OpDelete, Key: 10},           // shard 0: deletes op 1's key
		{Op: wal.OpInsert, Key: 5, Val: 1},    // shard 0: duplicate
		{Op: wal.OpDelete, Key: 1500},         // shard 1: deletes op 3's key
		{Op: wal.OpInsert, Key: 3500, Val: 1}, // shard 3
		{Op: wal.OpDelete, Key: 2600},         // shard 2: absent
		{Op: wal.OpDelete, Key: 3500},         // shard 3: deletes op 7's key
	}
	want := []error{ErrDuplicateKey, nil, ErrKeyNotFound, nil, nil, ErrDuplicateKey, nil, nil, ErrKeyNotFound, nil}
	errs := make([]error, len(recs))
	s.WriteBatchCtx(context.Background(), recs, errs)
	checkRunErrs(t, recs, errs, want)
	if s.Len() != 2 {
		t.Fatalf("Len %d after the run, want 2 (keys 5 and 2500)", s.Len())
	}
}
