package chameleon

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGroupCommitConcurrentWriters is the group-commit stress test (run under
// -race in CI): many writers on disjoint key ranges, concurrent checkpoints,
// concurrent deletes, then a reopen that must surface every acknowledged
// write. It exercises the leader-follower handoff, batch validation, and the
// batch-vs-checkpoint interleaving under real scheduling pressure.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	per := 200
	if testing.Short() {
		per = 60
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w+1) * 1_000_000
			for i := 0; i < per; i++ {
				k := base + uint64(i)
				if err := d.Insert(k, k+7); err != nil {
					t.Errorf("writer %d: Insert(%d): %v", w, k, err)
					return
				}
				// Every third key is deleted again: delete validation and
				// apply ordering ride the same batches as the inserts.
				if i%3 == 0 {
					if err := d.Delete(k); err != nil {
						t.Errorf("writer %d: Delete(%d): %v", w, k, err)
						return
					}
				}
			}
		}(w)
	}
	// Checkpoints race the batches: a rotation must never cut a batch between
	// its WAL append and its in-memory apply.
	stop := make(chan struct{})
	var ckpt sync.WaitGroup
	ckpt.Add(1)
	go func() {
		defer ckpt.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := d.Checkpoint(); err != nil {
					t.Errorf("Checkpoint: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	ckpt.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir, durableOpts())
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer re.Close()
	want := 0
	for w := 0; w < writers; w++ {
		base := uint64(w+1) * 1_000_000
		for i := 0; i < per; i++ {
			k := base + uint64(i)
			v, ok := re.Lookup(k)
			if i%3 == 0 {
				if ok {
					t.Fatalf("writer %d: acked delete of %d undone", w, k)
				}
				continue
			}
			want++
			if !ok || v != k+7 {
				t.Fatalf("writer %d: acked key %d = (%d,%v), want (%d,true)", w, k, v, ok, k+7)
			}
		}
	}
	if re.Len() != want {
		t.Fatalf("recovered Len = %d, want %d", re.Len(), want)
	}
}

// TestGroupCommitBatchValidation pins the serial-equivalence of intra-batch
// validation: when many goroutines race to insert the same key, exactly one
// wins and the rest see ErrDuplicateKey — whether the attempts land in one
// batch or several.
func TestGroupCommitBatchValidation(t *testing.T) {
	d, err := OpenDir(t.TempDir(), durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for round := uint64(0); round < 20; round++ {
		key := 10 + round
		var ok, dup atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch err := d.Insert(key, uint64(g)); {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrDuplicateKey):
					dup.Add(1)
				default:
					t.Errorf("Insert(%d): %v", key, err)
				}
			}(g)
		}
		wg.Wait()
		if ok.Load() != 1 || dup.Load() != 7 {
			t.Fatalf("round %d: %d winners, %d duplicates (want 1/7)", round, ok.Load(), dup.Load())
		}
		if err := d.Delete(key + 1000); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("Delete(absent) = %v, want ErrKeyNotFound", err)
		}
	}
}
