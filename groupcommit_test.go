package chameleon

import (
	"context"
	"errors"
	"io/fs"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chameleon/internal/faultfs"
	"chameleon/internal/wal"
)

// TestGroupCommitConcurrentWriters is the group-commit stress test (run under
// -race in CI): many writers on disjoint key ranges, concurrent checkpoints,
// concurrent deletes, then a reopen that must surface every acknowledged
// write. It exercises the leader-follower handoff, batch validation, and the
// batch-vs-checkpoint interleaving under real scheduling pressure.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DirOptions{})
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

	re, err := OpenDir(dir, DirOptions{})
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
	d, err := OpenDir(t.TempDir(), DirOptions{})
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

// handoff stalls a handle's group commit at two points, through its commit
// hook: the batch holding key 1, a leader's own, until first is closed, and
// the batch holding key 2, queued behind it, until release is closed, after
// closing stalled.
type handoff struct {
	first, stalled, release chan struct{}
}

func stallHandoff(d *DurableIndex) *handoff {
	h := &handoff{first: make(chan struct{}), stalled: make(chan struct{}), release: make(chan struct{})}
	d.SetCommitHook(func(_ uint64, recs []wal.Record) error {
		for _, r := range recs {
			switch r.Key {
			case 1:
				<-h.first
			case 2:
				close(h.stalled)
				<-h.release
			}
		}
		return nil
	})
	return h
}

// start has key 1's Insert lead a batch, queues key 2's Insert behind it,
// lets the leader's batch finish and waits until key 2's batch stalls. It
// returns each Insert's result channel.
func (h *handoff) start(t *testing.T, d *DurableIndex) (leader, follower chan error) {
	t.Helper()
	leader, follower = make(chan error, 1), make(chan error, 1)
	go func() { leader <- d.Insert(1, 1) }()
	waitUntil(t, "leader's batch in the hook", func() bool { return d.Health().QueueDepth == 1 })
	go func() { follower <- d.Insert(2, 2) }()
	waitUntil(t, "follower queued", func() bool { return d.Health().QueueDepth == 2 })
	close(h.first)
	select {
	case <-h.stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("the follower's batch never reached the commit hook")
	}
	return leader, follower
}

// TestGroupCommitLeaderReturnsAfterOwnBatch pins the leader hand-off: a
// writer that leads a batch returns once that batch, which holds its own
// entry, is committed, while the batch queued behind it is still
// committing. A leader that drained the queue itself would be the one
// stalled in the second batch's hook.
func TestGroupCommitLeaderReturnsAfterOwnBatch(t *testing.T) {
	d, err := OpenDir(t.TempDir(), DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := stallHandoff(d)
	leader, follower := h.start(t, d)
	select {
	case err := <-leader:
		if err != nil {
			t.Errorf("leader's Insert = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("the leader's Insert did not return while the batch queued behind it committed")
	}
	select {
	case err := <-follower:
		t.Errorf("the follower's Insert returned %v while its batch was stalled", err)
	default:
	}
	close(h.release)
	if err := <-follower; err != nil {
		t.Errorf("follower's Insert = %v", err)
	}
	select {
	case <-leader: // only after a failure above
	default:
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitCloseRacesDrainer closes a handle while the goroutine that
// took over the leadership is stalled in a batch, with more writers queued
// behind it. Every writer resolves, nil or ErrIndexClosed, the queue is
// empty when Close returns, no goroutine of the handle is left, and a
// reopen holds exactly the writes that were acknowledged.
func TestGroupCommitCloseRacesDrainer(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	d, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := stallHandoff(d)
	leader, follower := h.start(t, d)
	const queued = 8
	errs := make([]error, 3+queued)
	var wg sync.WaitGroup
	for k := 3; k < 3+queued; k++ {
		wg.Add(1)
		go func() { defer wg.Done(); errs[k] = d.Insert(uint64(k), uint64(k)) }()
	}
	waitUntil(t, "writers queued behind the stalled batch", func() bool { return d.Health().QueueDepth == 1+queued })

	closeErr := make(chan error, 1)
	go func() { closeErr <- d.Close() }()
	waitUntil(t, "Close past admission", func() bool { return d.Health().State == HealthClosed })
	close(h.release)
	select {
	case err := <-closeErr:
		if err != nil {
			t.Fatalf("Close = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	if depth := d.Health().QueueDepth; depth != 0 {
		t.Errorf("Close returned with %d writes still queued", depth)
	}
	errs[1], errs[2] = <-leader, <-follower
	wg.Wait()
	acked := map[uint64]bool{}
	for k := 1; k < len(errs); k++ {
		switch err := errs[k]; {
		case err == nil:
			acked[uint64(k)] = true
		case errors.Is(err, ErrIndexClosed) && k >= 3:
		default:
			t.Errorf("Insert(%d) = %v, want nil or (queued behind the stall) ErrIndexClosed", k, err)
		}
	}
	waitUntil(t, "the handle's goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })

	r, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != len(acked) {
		t.Fatalf("recovered Len = %d, want the %d acknowledged writes", r.Len(), len(acked))
	}
	for k := range acked {
		if _, ok := r.Lookup(k); !ok {
			t.Fatalf("acknowledged key %d lost", k)
		}
	}
}

// instantSyncFS makes every file's fsync return at once, so a writer never
// blocks in the kernel and hands its P to another goroutine there.
type instantSyncFS struct{ faultfs.FS }

type instantSyncFile struct{ faultfs.File }

func (f instantSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return instantSyncFile{file}, nil
}

func (instantSyncFile) Sync() error { return nil }

// TestGroupCommitFormsBatches pins what the leader's yields buy, under every
// sync policy: on one P, with fsyncs that never block, other writers run
// only when the leader pauses. The handle first serves a lone writer long
// enough to count as one, so under SyncNone and SyncInterval the 8 writers
// that follow are seen only through a lone writer's periodic yield; from
// then on, followers a batch just acked re-enqueue in time for the next
// batch only because the leader yields after it. Without either yield
// every batch would hold one op and pay its own write(2) (and fsync, under
// SyncEveryOp, where the leader always yields).
func TestGroupCommitFormsBatches(t *testing.T) {
	for _, tc := range []struct {
		name string
		sync SyncPolicy
	}{
		{"every_op", SyncEveryOp},
		{"interval", SyncInterval},
		{"none", SyncNone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			opts := DirOptions{}
			opts.Sync = tc.sync
			d, err := openDirFS(t.TempDir(), opts, instantSyncFS{faultfs.OS})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			for i := uint64(0); i < 4*soloYieldEvery; i++ {
				if err := d.Insert(1<<63|i, i); err != nil {
					t.Fatal(err)
				}
			}
			lone := d.Health()
			const writers, per = 8, 50
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						k := uint64(w)<<32 | uint64(i)
						if err := d.Insert(k, k); err != nil {
							t.Errorf("Insert(%d): %v", k, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			h := d.Health()
			ops, batches := h.BatchedOps-lone.BatchedOps, h.Batches-lone.Batches
			mean := float64(ops) / float64(batches)
			t.Logf("%d ops in %d batches: %.1f per batch", ops, batches, mean)
			if mean < 2 {
				t.Fatalf("%d writers formed batches of %.2f ops on average, want at least 2", writers, mean)
			}
		})
	}
}

// TestGroupCommitLoneWriterAllocs pins what an uncontended write allocates
// on a SyncNone directory, legacy and tiered: nothing. A lone writer leads a
// batch of one with an entry from the pool, so the entry, the follower's
// done channel, the validation overlay, the batch slices, the WAL frame
// buffer and the broadcast channels nobody waits on must not be made per
// write.
func TestGroupCommitLoneWriterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tiered := range []bool{false, true} {
		name := "legacy"
		if tiered {
			name = "tiered"
		}
		t.Run(name, func(t *testing.T) {
			opts := DirOptions{}
			if tiered {
				opts = tieredOpts()
			}
			opts.Sync = SyncNone
			d, err := OpenDir(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			// Filled by writes, so the tiered engine's keys sit in its
			// memtable as the legacy engine's sit in its index.
			keys := make([]uint64, 20_000)
			for i := range keys {
				keys[i] = uint64(i) * 64
				if err := d.Insert(keys[i], keys[i]); err != nil {
					t.Fatal(err)
				}
			}
			// Deletes take keys out and inserts put them back, so no leaf
			// outgrows its capacity and no rebuild comes due: what is
			// counted is the commit path, not the index's amortized growth.
			var del, ins int
			for _, op := range []struct {
				name string
				fn   func() error
			}{
				{"Delete", func() error { del++; return d.Delete(keys[del]) }},
				{"Insert", func() error { ins++; return d.Insert(keys[ins], 1) }},
			} {
				allocs := testing.AllocsPerRun(2000, func() {
					if err := op.fn(); err != nil {
						t.Fatalf("%s: %v", op.name, err)
					}
				})
				t.Logf("%s: %.2f allocations per call", op.name, allocs)
				if allocs > 0 {
					t.Errorf("%s allocates %.2f objects per call, want 0", op.name, allocs)
				}
			}
		})
	}
}

// TestGroupCommitWriteBatchAllocs pins what write runs allocate when they
// share batches: 4 writers commit runs of 16 ops through WriteBatchCtx, as
// the server commits a burst of pipelined writes, on a SyncNone directory.
// Entries come from the pool and the validation overlay is kept across
// batches, so what is left is a drainer goroutine's start now and then:
// under 0.1 allocations per op. Each writer deletes a run of its keys and
// puts it back, so the index stays the same size.
func TestGroupCommitWriteBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	opts := DirOptions{}
	opts.Sync = SyncNone
	opts.ReconstructThreshold = -1
	d, err := OpenDir(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const writers, run, runs = 4, 16, 400
	keys := make([]uint64, writers*run)
	for i := range keys {
		keys[i] = uint64(i) * 64
		if err := d.Insert(keys[i], keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	write := func(passes int) {
		var wg sync.WaitGroup
		for w := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				del, ins := make([]wal.Record, run), make([]wal.Record, run)
				for i, k := range keys[w*run : (w+1)*run] {
					del[i] = wal.Record{Op: wal.OpDelete, Key: k}
					ins[i] = wal.Record{Op: wal.OpInsert, Key: k, Val: k}
				}
				errs := make([]error, run)
				for i := range passes {
					recs := del
					if i%2 == 1 {
						recs = ins
					}
					d.WriteBatchCtx(context.Background(), recs, errs)
					for j, err := range errs {
						if err != nil {
							t.Errorf("writer %d run %d op %d: %v", w, i, j, err)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	write(20) // warm the pool, the queue arrays and the overlay
	h0 := d.Health()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	write(runs)
	runtime.ReadMemStats(&after)
	h := d.Health()
	ops := writers * run * runs
	perOp := float64(after.Mallocs-before.Mallocs) / float64(ops)
	t.Logf("%d ops in %d batches: %.4f allocations per op", ops, h.Batches-h0.Batches, perOp)
	if perOp >= 0.1 {
		t.Errorf("write runs allocate %.3f objects per op, want under 0.1", perOp)
	}
}

// TestGroupCommitEntryReuse holds pooled entries to the two-state contract.
// Each round stages both cancellations of a follower: behind a batch held
// in the commit hook, some queued followers are cancelled before any leader
// claims them (withdrawn: the context's error, never committed), and once
// the next batch has claimed the rest and is held in turn, the others are
// cancelled after the claim (their true outcome, nil). While the withdrawn
// entries still sit in the queue, and between rounds, writers whose
// contexts expire at random take entries from the pool. The hook counts the
// commits of every key, each op's key unique: an op must report nil and be
// committed exactly once, or report its context's error and never be
// committed. An entry claimed twice, claimed in a later life, or woken by a
// send meant for an earlier one breaks that.
func TestGroupCommitEntryReuse(t *testing.T) {
	opts := DirOptions{}
	opts.Sync = SyncNone
	d, err := OpenDir(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var (
		mu        sync.Mutex
		committed = map[uint64]int{}
		outcome   = map[uint64]error{}
		stallKey  atomic.Uint64
		stalled   = make(chan struct{})
		release   = make(chan struct{})
		wg        sync.WaitGroup
		cancels   []context.CancelFunc
	)
	defer close(release) // a failed test leaves no batch held in the hook
	stallKey.Store(^uint64(0))
	d.SetCommitHook(func(_ uint64, recs []wal.Record) error {
		mu.Lock()
		for _, r := range recs {
			committed[r.Key]++
		}
		mu.Unlock()
		for _, r := range recs {
			if r.Key == stallKey.Load() {
				select {
				case stalled <- struct{}{}:
					<-release
				case <-time.After(10 * time.Second):
					return errors.New("a held batch was not awaited: its key was committed twice")
				}
			}
		}
		runtime.Gosched() // let contexts expire while writers queue
		return nil
	})
	// insert records the outcome of inserting k, and that an acked insert
	// is visible the moment it returns: a follower woken before its batch
	// committed is not.
	insert := func(ctx context.Context, k uint64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := d.InsertCtx(ctx, k, k)
			if _, found := d.Lookup(k); err == nil && !found {
				t.Errorf("insert %d returned nil before it was applied", k)
			}
			mu.Lock()
			outcome[k] = err
			mu.Unlock()
		}()
	}
	// churn inserts n keys from base with contexts that expire after 0–40 µs.
	rng := rand.New(rand.NewPCG(9, 9))
	churn := func(base uint64, n int) {
		for i := range n {
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.IntN(40))*time.Microsecond)
			insert(ctx, base+uint64(i))
			cancels = append(cancels, cancel)
		}
	}
	within := func(what string, c <-chan struct{}) {
		t.Helper()
		select {
		case <-c:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	waitAll := func() {
		t.Helper()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		within("every writer to return (a follower never woken)", done)
	}
	const followers = 4
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	var before, after []uint64
	for r := range rounds {
		base := uint64(r+1) << 20
		lead, next := base, base+1
		stallKey.Store(lead)
		insert(context.Background(), lead)
		within("the leader's batch in the hook", stalled)
		insert(context.Background(), next)
		ctxB, cancelB := context.WithCancel(context.Background())
		ctxA, cancelA := context.WithCancel(context.Background())
		for i := range uint64(followers) {
			before = append(before, base+2+i)
			insert(ctxB, base+2+i)
			after = append(after, base+2+followers+i)
			insert(ctxA, base+2+followers+i)
		}
		waitUntil(t, "followers queued behind the held batch", func() bool { return d.Health().QueueDepth == 2+2*followers })
		cancelB()
		waitUntil(t, "followers withdrawn", func() bool { return d.Health().QueueDepth == 2+followers })
		churn(base+1000, 8) // reuse while the withdrawn entries are queued
		stallKey.Store(next)
		release <- struct{}{}
		within("the drainer's batch, with the ctxA followers claimed, in the hook", stalled)
		cancelA()
		// Either way their outcome is nil; the pause makes it likely that
		// they see the cancellation and lose the CAS before the release.
		time.Sleep(time.Millisecond)
		release <- struct{}{}
		churn(base+2000, 32)
		waitAll()
		for _, cancel := range cancels {
			cancel()
		}
		cancels = cancels[:0]
	}
	mu.Lock()
	defer mu.Unlock()
	for _, k := range before {
		if !errors.Is(outcome[k], context.Canceled) {
			t.Errorf("follower %d cancelled before the claim = %v, want context.Canceled", k, outcome[k])
		}
	}
	for _, k := range after {
		if outcome[k] != nil {
			t.Errorf("follower %d cancelled after the claim = %v, want its true outcome nil", k, outcome[k])
		}
	}
	var acked, withdrawn int
	for k, err := range outcome {
		n := committed[k]
		_, found := d.Lookup(k)
		switch {
		case err == nil:
			acked++
			if n != 1 || !found {
				t.Errorf("acked insert %d committed %d times, found %v: want once and found", k, n, found)
			}
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			withdrawn++
			if n != 0 || found {
				t.Errorf("insert %d = %v but committed %d times, found %v: want never", k, err, n, found)
			}
		default:
			t.Errorf("insert %d = %v, want nil or its context's error", k, err)
		}
	}
	for k := range committed {
		if _, ok := outcome[k]; !ok {
			t.Errorf("key %d committed but no insert of it returned", k)
		}
	}
	t.Logf("%d inserts acked, %d withdrawn", acked, withdrawn)
}

// BenchmarkDurableLoneWriter times an uncontended write on a SyncNone
// directory, legacy and tiered: the group-commit entry, the WAL append (a
// copy into the log's buffer, with one write(2) per 64 KiB of frames) and
// the index update. Keys written in at setup are deleted and put back in
// turn, as in TestGroupCommitLoneWriterAllocs, so the index stays the same
// size and no leaf outgrows its capacity; writer-inline reconstruction is
// off, since its rebuilds are the index's maintenance, not the write path.
func BenchmarkDurableLoneWriter(b *testing.B) {
	for _, tiered := range []bool{false, true} {
		name := "legacy"
		if tiered {
			name = "tiered"
		}
		b.Run(name, func(b *testing.B) {
			opts := DirOptions{}
			if tiered {
				opts = tieredOpts()
			}
			opts.Sync = SyncNone
			opts.ReconstructThreshold = -1
			d, err := OpenDir(b.TempDir(), opts)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			keys := make([]uint64, 20_000)
			for i := range keys {
				keys[i] = uint64(i) * 64
				if err := d.Insert(keys[i], keys[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				k := keys[(i/2)%len(keys)]
				if i%2 == 0 {
					err = d.Delete(k)
				} else {
					err = d.Insert(k, k)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
