package chameleon

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"chameleon/internal/faultfs"
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

// wAck is one writer's view of a key it mutated through a crashing run.
type wAck struct {
	val      uint64
	present  bool
	unstable bool // a later attempt on this key errored: either state is legal
}

// TestGroupCommitCrashMatrix cuts power mid-group-commit at a sweep of step
// budgets while concurrent writers are mid-batch. The contract: no
// acknowledged write is ever lost, unacked batch tails may vanish, and
// nothing ever applies partially — an errored op may surface or not, but if
// its key is present it holds exactly the attempted value, and no key outside
// the attempted set exists (no phantom from a torn multi-record frame).
func TestGroupCommitCrashMatrix(t *testing.T) {
	total := runGroupCommitWorkload(t, t.TempDir(), 1<<40, 0, nil, nil)
	if total < 20 {
		t.Fatalf("workload consumed only %d steps — matrix degenerate", total)
	}
	stride := total / 60
	if stride < 1 {
		stride = 1
	}
	if testing.Short() {
		stride = total / 12
	}
	for k := int64(0); k < total; k += stride {
		dir := t.TempDir()
		acked := make(map[uint64]wAck)
		var b seqBounds
		runGroupCommitWorkload(t, dir, k, int(k%3), acked, &b)
		verifyGroupCommitRecovered(t, dir, k, acked, &b)
	}
}

const (
	gcWriters  = 4
	gcOpsPer   = 12
	gcFlipKey  = uint64(77)
	gcFlipOps  = 8
	gcBaseStep = uint64(1_000_000)
)

// runGroupCommitWorkload drives gcWriters concurrent inserters (disjoint key
// ranges) plus one flip-flop writer that alternately inserts and deletes one
// key, all through a CrashFS with the given step budget. Acked state merges
// into acked and mutation counts into b (nil to skip). Each writer also
// asserts the no-ack-after-failure invariant: once one of its ops errors, no
// later op may succeed.
func runGroupCommitWorkload(t *testing.T, dir string, budget int64, tear int, acked map[uint64]wAck, b *seqBounds) int64 {
	t.Helper()
	cfs := faultfs.NewCrashFS(faultfs.OS, budget)
	cfs.Tear = tear
	d, err := openDirFS(dir, durableOpts(), cfs)
	if err != nil {
		return cfs.Steps()
	}
	var mu sync.Mutex // guards acked
	record := func(key uint64, st wAck) {
		if acked == nil {
			return
		}
		mu.Lock()
		acked[key] = st
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for w := 0; w < gcWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w+1) * gcBaseStep
			failed := false
			for i := uint64(0); i < gcOpsPer; i++ {
				k := base + i
				err := d.Insert(k, k+7)
				b.note(err)
				if err == nil {
					if failed {
						t.Errorf("writer %d: Insert(%d) acked after an earlier failure", w, k)
					}
					record(k, wAck{val: k + 7, present: true})
					continue
				}
				failed = true
				record(k, wAck{val: k + 7, unstable: true})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		failed := false
		for i := uint64(0); i < gcFlipOps; i++ {
			var err error
			st := wAck{val: 5000 + i}
			if i%2 == 0 {
				err = d.Insert(gcFlipKey, st.val)
				st.present = true
			} else {
				err = d.Delete(gcFlipKey)
				st.present = false
			}
			b.note(err)
			if err != nil {
				failed = true
			}
			// Once any attempt on the flip key failed, every later state is
			// uncertain: the errored frame may or may not be on disk.
			st.unstable = failed
			record(gcFlipKey, st)
		}
	}()
	wg.Wait()
	d.Checkpoint() //nolint:errcheck // a failed checkpoint must not lose anything either
	d.Close()      //nolint:errcheck
	return cfs.Steps()
}

// verifyGroupCommitRecovered reopens dir on the real filesystem and checks
// the oracle: acked stable keys exact, unstable keys either-way but never
// half-applied, no phantoms outside the attempted key space, and the clock
// within b.
func verifyGroupCommitRecovered(t *testing.T, dir string, k int64, acked map[uint64]wAck, b *seqBounds) {
	t.Helper()
	re, err := OpenDir(dir, durableOpts())
	if err != nil {
		t.Fatalf("crash@%d: recovery failed: %v", k, err)
	}
	defer re.Close()
	b.check(t, k, re)
	for key, st := range acked {
		v, ok := re.Lookup(key)
		if st.unstable {
			// Either state is legal; but a present key must hold an attempted
			// value — anything else means a frame applied half-way.
			if ok && key != gcFlipKey && v != st.val {
				t.Fatalf("crash@%d: unstable key %d holds %d, not the attempted %d", k, key, v, st.val)
			}
			if ok && key == gcFlipKey && (v < 5000 || v >= 5000+gcFlipOps) {
				t.Fatalf("crash@%d: flip key holds %d, never attempted", k, v)
			}
			continue
		}
		if st.present && (!ok || v != st.val) {
			t.Fatalf("crash@%d: acked key %d = (%d,%v), want (%d,true)", k, key, v, ok, st.val)
		}
		if !st.present && ok {
			t.Fatalf("crash@%d: acked delete of %d undone", k, key)
		}
	}
	re.Range(0, ^uint64(0), func(key, _ uint64) bool {
		if key == gcFlipKey {
			return true
		}
		for w := 0; w < gcWriters; w++ {
			base := uint64(w+1) * gcBaseStep
			if key >= base && key < base+gcOpsPer {
				return true
			}
		}
		t.Fatalf("crash@%d: phantom key %d", k, key)
		return false
	})
}
