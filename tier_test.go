package chameleon

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"chameleon/internal/faultfs"
	"chameleon/internal/wal"
)

func tieredOpts() DirOptions {
	o := durableOpts()
	o.Tiered = true
	// Flushes are explicit in most tests (the background trigger would make
	// crash budgets nondeterministic); the concurrency test lowers this.
	o.MemtableBytes = 1 << 30
	return o
}

// TestTieredRoundTrip: writes survive flush, compaction, and reopen, with
// reads served from every tier (memtable, dead set, segments).
func TestTieredRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 3_000)
	for i := range keys {
		keys[i] = uint64(i)*13 + 1
	}
	if err := d.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		if err := d.Insert(1_000_000+i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Delete(keys[10]); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// Cold reads: the memtable is empty now, so these come from segments.
	if v, ok := d.Lookup(1_000_042); !ok || v != 42 {
		t.Fatalf("cold lookup = %d,%v want 42,true", v, ok)
	}
	if _, ok := d.Lookup(keys[10]); ok {
		t.Fatal("deleted key resurrected from segment")
	}
	// A delete of a segment-resident key must go through the dead set.
	if err := d.Delete(1_000_042); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Lookup(1_000_042); ok {
		t.Fatal("dead-set tombstone not shadowing segment")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Lookup(1_000_042); ok {
		t.Fatal("tombstone lost by compaction")
	}
	wantLen := len(keys) + 500 - 2
	if got := d.Len(); got != wantLen {
		t.Fatalf("Len = %d, want %d", got, wantLen)
	}
	h := d.Health()
	if h.Tier == nil || h.Tier.Flushes < 2 || h.Tier.Segments == 0 {
		t.Fatalf("tier health incomplete: %+v", h.Tier)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir, tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Len(); got != wantLen {
		t.Fatalf("recovered Len = %d, want %d", got, wantLen)
	}
	if _, ok := re.Lookup(1_000_042); ok {
		t.Fatal("tombstone lost across reopen")
	}
	if v, ok := re.Lookup(1_000_041); !ok || v != 41 {
		t.Fatalf("recovered lookup = %d,%v want 41,true", v, ok)
	}
	// Range must stitch segments and stay strictly ascending.
	var prev uint64
	count := 0
	re.Range(0, ^uint64(0), func(k, _ uint64) bool {
		if count > 0 && k <= prev {
			t.Fatalf("range out of order: %d after %d", k, prev)
		}
		prev = k
		count++
		return true
	})
	if count != wantLen {
		t.Fatalf("range visited %d keys, want %d", count, wantLen)
	}
}

// TestTieredWriteToRefused: the legacy monolithic serializer cannot
// represent segments, so tiered handles refuse it rather than silently
// truncating state.
func TestTieredWriteToRefused(t *testing.T) {
	d, err := OpenDir(t.TempDir(), tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.WriteTo(&bytes.Buffer{}); !errors.Is(err, ErrNotTiered) {
		t.Fatalf("WriteTo on tiered handle: %v, want ErrNotTiered", err)
	}
}

// TestTieredCrashMatrix is the tiered twin of TestDurableCrashMatrix: the
// workload exercises flush, the dead-set delete path, a flush-triggered
// merge that stops above the base (carrying a tombstone the base still
// needs), a full merge that reaches it, and post-compaction writes, crashing
// at every filesystem step with all three tear modes, then recovering
// through the manifest + WAL-delta path and checking the same oracle (acked
// writes survive, acked deletes stay deleted, no phantoms). Because flushes rotate the WAL and garbage-collect
// old logs keyed off the flushed watermark, the sweep covers every crash
// point between a manifest commit and its WAL truncation — the coupling the
// legacy checkpoint path got wrong.
func TestTieredCrashMatrix(t *testing.T) {
	total := runTieredCrashWorkload(t, t.TempDir(), 1<<40, 0, nil)
	if total < 30 {
		t.Fatalf("workload consumed only %d steps — matrix degenerate", total)
	}
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	for k := int64(0); k < total; k += stride {
		dir := t.TempDir()
		acked := make(map[uint64]ackState)
		runTieredCrashWorkload(t, dir, k, int(k%3), acked)
		verifyTieredRecovered(t, dir, k, acked)
	}
}

// crashBase is the crash workload's bulk load: eight keys the workload
// deletes from, plus enough bulk that the base outweighs compactRatio × two
// flushes, so the second flush's merge stops above it.
func crashBase() []uint64 {
	base := []uint64{100, 200, 300, 400, 500, 600, 700, 800}
	for i := uint64(0); i < 256; i++ {
		base = append(base, 10_000+10*i)
	}
	return base
}

func runTieredCrashWorkload(t *testing.T, dir string, budget int64, tear int, acked map[uint64]ackState) int64 {
	t.Helper()
	cfs := faultfs.NewCrashFS(faultfs.OS, budget)
	cfs.Tear = tear
	opts := tieredOpts()
	opts.CompactL0 = 2 // the second flush merges L0 into a delta
	d, err := openDirFS(dir, opts, cfs)
	if err != nil {
		return cfs.Steps()
	}
	ack := func(key, val uint64, present bool, err error) {
		if acked == nil {
			return
		}
		if err != nil {
			if st, ok := acked[key]; ok {
				st.unstable = true
				acked[key] = st
			}
			return
		}
		acked[key] = ackState{val: val, present: present}
	}
	base := crashBase()
	if err := d.BulkLoad(base, nil); err == nil && acked != nil {
		for _, k := range base {
			acked[k] = ackState{val: k, present: true}
		}
	}
	for i := uint64(0); i < 6; i++ {
		k := 1000 + i
		ack(k, i, true, d.Insert(k, i))
	}
	ack(200, 0, false, d.Delete(200)) // bulk-loaded key: segment-resident, dead-set path
	d.Flush()                         //nolint:errcheck // a failed flush must not lose anything either
	for i := uint64(0); i < 6; i++ {
		k := 2000 + i
		ack(k, i+50, true, d.Insert(k, i+50))
	}
	ack(1002, 0, false, d.Delete(1002)) // flushed in the L0 segment above
	ack(300, 0, false, d.Delete(300))
	// Second L0 run: this flush also merges both into a delta run, leaving
	// the base alone — the tombstones of 200 and 300 must ride along.
	d.Flush() //nolint:errcheck
	if acked == nil {
		if th := d.Health().Tier; th.Compactions != 1 || th.Runs != 2 || th.L0Segments != 0 {
			t.Fatalf("second flush: %d compactions, %d runs, %d L0 — want a delta above an untouched base",
				th.Compactions, th.Runs, th.L0Segments)
		}
	}
	for i := uint64(0); i < 3; i++ {
		k := 3000 + i
		ack(k, i+90, true, d.Insert(k, i+90))
	}
	d.Flush()   //nolint:errcheck
	d.Compact() //nolint:errcheck // full merge: L0 + delta + base
	if acked == nil {
		if th := d.Health().Tier; th.Compactions != 2 || th.Runs != 1 {
			t.Fatalf("full merge: %d compactions, %d runs — want one run", th.Compactions, th.Runs)
		}
	}
	for i := uint64(0); i < 3; i++ {
		k := 4000 + i
		ack(k, i+70, true, d.Insert(k, i+70))
	}
	d.Close() //nolint:errcheck
	return cfs.Steps()
}

func verifyTieredRecovered(t *testing.T, dir string, k int64, acked map[uint64]ackState) {
	t.Helper()
	re, err := OpenDir(dir, tieredOpts())
	if err != nil {
		t.Fatalf("crash@%d: recovery failed: %v", k, err)
	}
	defer re.Close()
	for key, st := range acked {
		if st.unstable {
			continue
		}
		v, ok := re.Lookup(key)
		if st.present && !ok {
			t.Fatalf("crash@%d: acked key %d lost", k, key)
		}
		if st.present && v != st.val {
			t.Fatalf("crash@%d: acked key %d has value %d, want %d", k, key, v, st.val)
		}
		if !st.present && ok {
			t.Fatalf("crash@%d: acked delete of %d undone", k, key)
		}
	}
	base := crashBase()
	attempted := func(key uint64) bool {
		for _, b := range base {
			if key == b {
				return true
			}
		}
		return (key >= 1000 && key < 1006) || (key >= 2000 && key < 2006) ||
			(key >= 3000 && key < 3003) || (key >= 4000 && key < 4003)
	}
	re.Range(0, ^uint64(0), func(key, _ uint64) bool {
		if !attempted(key) {
			t.Fatalf("crash@%d: phantom key %d", k, key)
		}
		return true
	})
}

// TestTieredWALGCCrashBetweenFlushAndTruncate is the directed regression for
// the checkpoint/WAL-GC coupling: WAL files must only be removed because the
// flushed commit-sequence watermark covers them, never because an operation
// "succeeded". The sweep crashes at every filesystem step inside a flush —
// including every point between its manifest commit and the WAL removals
// that follow — and proves every previously-acked write recovers.
func TestTieredWALGCCrashBetweenFlushAndTruncate(t *testing.T) {
	// Dry run: measure the step budget consumed before the second flush
	// starts, and the total, so the sweep brackets exactly that flush.
	dir := t.TempDir()
	cfs := faultfs.NewCrashFS(faultfs.OS, 1<<40)
	d, err := openDirFS(dir, tieredOpts(), cfs)
	if err != nil {
		t.Fatal(err)
	}
	seed := func(d *DurableIndex) map[uint64]uint64 {
		acked := make(map[uint64]uint64)
		for i := uint64(0); i < 8; i++ {
			if err := d.Insert(10+i, i); err == nil {
				acked[10+i] = i
			}
		}
		d.Flush() //nolint:errcheck
		for i := uint64(0); i < 8; i++ {
			if err := d.Insert(100+i, i+5); err == nil {
				acked[100+i] = i + 5
			}
		}
		return acked
	}
	seed(d)
	before := cfs.Steps()
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	after := cfs.Steps()
	d.Close() //nolint:errcheck
	if after <= before {
		t.Fatalf("flush consumed no steps (%d..%d)", before, after)
	}

	for k := before; k <= after; k++ {
		dir := t.TempDir()
		cfs := faultfs.NewCrashFS(faultfs.OS, k)
		cfs.Tear = int(k % 3)
		d, err := openDirFS(dir, tieredOpts(), cfs)
		if err != nil {
			continue
		}
		acked := seed(d)
		d.Flush() //nolint:errcheck // the crash lands in here
		d.Close() //nolint:errcheck

		re, err := OpenDir(dir, tieredOpts())
		if err != nil {
			t.Fatalf("crash@%d: recovery failed: %v", k, err)
		}
		for key, want := range acked {
			if v, ok := re.Lookup(key); !ok || v != want {
				t.Fatalf("crash@%d in flush: acked key %d = %d,%v want %d,true", k, key, v, ok, want)
			}
		}
		re.Close() //nolint:errcheck
	}
}

// TestTieredOracleUnderConcurrency is the merged-read property test:
// concurrent writers mutate through the group-commit path while background
// flushes and explicit compactions run, and at every quiesce point the
// merged read path (memtable → dead set → frozen → segments) must agree
// exactly with a flat in-memory oracle. A background reader hammers
// Lookup/Range throughout for -race coverage of the lock-free cold path.
func TestTieredOracleUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	o := tieredOpts()
	o.MemtableBytes = 8 << 10 // small: background flushes fire mid-round
	d, err := OpenDir(dir, o)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	oracle := make(map[uint64]uint64)

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			d.Lookup(rng.Uint64() % 4096)
			prev, n := uint64(0), 0
			d.Range(0, 4096, func(k, _ uint64) bool {
				if n > 0 && k <= prev {
					t.Errorf("concurrent range out of order: %d after %d", k, prev)
					return false
				}
				prev, n = k, n+1
				return n < 64
			})
		}
	}()

	const writers = 4
	const rounds = 5
	const opsPerWriter = 250
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w, round int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*writers + w)))
				for i := 0; i < opsPerWriter; i++ {
					// Each writer owns keys ≡ w (mod writers), so validation
					// races never cross goroutines.
					key := uint64(rng.Intn(1024))*uint64(writers) + uint64(w)
					mu.Lock()
					_, present := oracle[key]
					mu.Unlock()
					if present {
						if err := d.Delete(key); err == nil {
							mu.Lock()
							delete(oracle, key)
							mu.Unlock()
						}
					} else {
						val := rng.Uint64()
						if err := d.Insert(key, val); err == nil {
							mu.Lock()
							oracle[key] = val
							mu.Unlock()
						}
					}
				}
			}(w, round)
		}
		wg.Wait()
		switch round % 3 {
		case 0:
			if err := d.Flush(); err != nil {
				t.Fatalf("round %d: flush: %v", round, err)
			}
		case 1:
			if err := d.Compact(); err != nil {
				t.Fatalf("round %d: compact: %v", round, err)
			}
		}
		compareWithOracle(t, d, oracle, fmt.Sprintf("round %d", round))
	}
	close(stop)
	readerWG.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir, tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	compareWithOracle(t, re, oracle, "after reopen")
}

type tieredReadSurface interface {
	Lookup(uint64) (uint64, bool)
	Range(uint64, uint64, func(uint64, uint64) bool)
	Len() int
}

func compareWithOracle(t *testing.T, d tieredReadSurface, oracle map[uint64]uint64, phase string) {
	t.Helper()
	got := make(map[uint64]uint64, len(oracle))
	var prev uint64
	n := 0
	d.Range(0, ^uint64(0), func(k, v uint64) bool {
		if n > 0 && k <= prev {
			t.Fatalf("%s: range out of order: %d after %d", phase, k, prev)
		}
		prev = k
		n++
		got[k] = v
		return true
	})
	if len(got) != len(oracle) {
		t.Fatalf("%s: merged read has %d keys, oracle %d", phase, len(got), len(oracle))
	}
	for k, want := range oracle {
		if v, ok := got[k]; !ok || v != want {
			t.Fatalf("%s: key %d = %d,%v in range, oracle %d", phase, k, v, ok, want)
		}
		if v, ok := d.Lookup(k); !ok || v != want {
			t.Fatalf("%s: key %d = %d,%v in lookup, oracle %d", phase, k, v, ok, want)
		}
	}
	if d.Len() != len(oracle) {
		t.Fatalf("%s: Len = %d, oracle %d", phase, d.Len(), len(oracle))
	}
}

// TestTieredMigration: a legacy checkpoint directory opened with Tiered set
// keeps serving its data, the first flush moves it into segments, and the
// legacy snapshot (now covered by the watermark) is garbage-collected; the
// directory reopens tiered from then on, flag or no flag.
func TestTieredMigration(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{5, 10, 15, 20, 25}
	if err := d.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(30, 99); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	td, err := OpenDir(dir, tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	if td.tier == nil {
		t.Fatal("Tiered flag did not attach a tier to a legacy directory")
	}
	if v, ok := td.Lookup(30); !ok || v != 99 {
		t.Fatalf("migrated lookup = %d,%v want 99,true", v, ok)
	}
	if err := td.Insert(35, 1); err != nil {
		t.Fatal(err)
	}
	if err := td.Flush(); err != nil {
		t.Fatal(err)
	}
	entries, err := faultfs.OS.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok {
			t.Fatalf("legacy snapshot %s survived the flush that covers it", e.Name())
		}
	}
	if err := td.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen WITHOUT the flag: the manifest is sticky.
	re, err := OpenDir(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.tier == nil {
		t.Fatal("directory with a manifest reopened in legacy mode")
	}
	if re.Len() != len(keys)+2 {
		t.Fatalf("Len = %d after migration round trip, want %d", re.Len(), len(keys)+2)
	}
}

// TestTieredSharded: the tier composes with range partitioning — each shard
// gets its own segment directory, flushes independently, and the aggregate
// health sums the per-shard tiers.
func TestTieredSharded(t *testing.T) {
	dir := t.TempDir()
	opts := ShardDirOptions{DirOptions: tieredOpts(), Shards: 4}
	s, err := OpenShardedDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 2_000)
	for i := range keys {
		keys[i] = uint64(i) * 1_000_003 // spread across equi-width shards
	}
	if err := s.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if err := s.Insert(i*999_999_937+7, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil { // tiered shards flush on Checkpoint
		t.Fatal(err)
	}
	h := s.Health()
	if h.Tier == nil || h.Tier.Segments == 0 {
		t.Fatalf("sharded tier health missing: %+v", h.Tier)
	}
	if h.Tier.LiveKeys != int64(s.Len()) {
		t.Fatalf("aggregate LiveKeys %d != Len %d", h.Tier.LiveKeys, s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenShardedDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(keys)+100 {
		t.Fatalf("recovered sharded Len = %d, want %d", re.Len(), len(keys)+100)
	}
}

// TestTieredReplicateBatch: the follower-side ordered replay validates and
// applies against every tier — deleting a segment-resident key must succeed
// (dead-set tombstone), re-inserting it must succeed, and divergence is
// still refused.
func TestTieredReplicateBatch(t *testing.T) {
	d, err := OpenDir(t.TempDir(), tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.ReplicateBatch(1, []wal.Record{
		{Op: wal.OpInsert, Key: 1, Val: 10},
		{Op: wal.OpInsert, Key: 2, Val: 20},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil { // push both into a segment
		t.Fatal(err)
	}
	if err := d.ReplicateBatch(3, []wal.Record{
		{Op: wal.OpDelete, Key: 1},          // segment-resident: dead-set path
		{Op: wal.OpInsert, Key: 1, Val: 11}, // re-insert over the tombstone
		{Op: wal.OpDelete, Key: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if v, ok := d.Lookup(1); !ok || v != 11 {
		t.Fatalf("key 1 = %d,%v want 11,true", v, ok)
	}
	if _, ok := d.Lookup(2); ok {
		t.Fatal("replicated delete of segment-resident key did not shadow")
	}
	if got := d.CommitSeq(); got != 5 {
		t.Fatalf("CommitSeq = %d, want 5", got)
	}
	// Divergence: deleting an absent key is refused before logging.
	err = d.ReplicateBatch(6, []wal.Record{{Op: wal.OpDelete, Key: 777}})
	if !errors.Is(err, ErrReplDivergence) {
		t.Fatalf("delete of absent key: %v, want ErrReplDivergence", err)
	}
}

// TestTieredSnapshotBundleRoundTrip: every pairing of snapshot producer and
// consumer (tiered→tiered, tiered→legacy, legacy→tiered) restores the exact
// contents and adopts the as-of sequence, including tombstones pending in
// the dead set at capture time.
func TestTieredSnapshotBundleRoundTrip(t *testing.T) {
	src, err := OpenDir(t.TempDir(), tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	want := make(map[uint64]uint64)
	for i := uint64(0); i < 400; i++ {
		if err := src.Insert(i*7, i); err != nil {
			t.Fatal(err)
		}
		want[i*7] = i
	}
	if err := src.Flush(); err != nil {
		t.Fatal(err)
	}
	// Post-flush delta: hot inserts plus deletes of segment-resident keys,
	// so the bundle must carry memtable and dead-set state too.
	for i := uint64(0); i < 50; i++ {
		if err := src.Insert(100_000+i, i+3); err != nil {
			t.Fatal(err)
		}
		want[100_000+i] = i + 3
	}
	for i := uint64(0); i < 20; i++ {
		if err := src.Delete(i * 7 * 4); err != nil {
			t.Fatal(err)
		}
		delete(want, i*7*4)
	}

	var buf bytes.Buffer
	asOf, _, err := src.SnapshotAt(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if asOf != src.CommitSeq() {
		t.Fatalf("asOf %d != CommitSeq %d", asOf, src.CommitSeq())
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("CHAMTBN1")) {
		t.Fatalf("tiered snapshot is not a bundle (starts %q)", buf.Bytes()[:8])
	}

	verify := func(t *testing.T, d *DurableIndex) {
		t.Helper()
		if got := d.CommitSeq(); got != asOf {
			t.Fatalf("CommitSeq = %d, want %d", got, asOf)
		}
		if d.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", d.Len(), len(want))
		}
		for k, v := range want {
			if gv, ok := d.Lookup(k); !ok || gv != v {
				t.Fatalf("key %d = %d,%v want %d,true", k, gv, ok, v)
			}
		}
	}

	t.Run("tiered-to-tiered", func(t *testing.T) {
		dst, err := OpenDir(t.TempDir(), tieredOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer dst.Close()
		if err := dst.RestoreSnapshot(bytes.NewReader(buf.Bytes()), asOf); err != nil {
			t.Fatal(err)
		}
		verify(t, dst)
		// Durability: the restore's manifest commit must survive reopen.
		dir := dst.dir
		if err := dst.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenDir(dir, tieredOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		verify(t, re)
		// And the restored follower keeps accepting replicated history.
		if err := re.ReplicateBatch(asOf+1, []wal.Record{{Op: wal.OpInsert, Key: 999_999, Val: 1}}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("tiered-to-legacy", func(t *testing.T) {
		dst, err := OpenDir(t.TempDir(), durableOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer dst.Close()
		if err := dst.RestoreSnapshot(bytes.NewReader(buf.Bytes()), asOf); err != nil {
			t.Fatal(err)
		}
		verify(t, dst)
	})

	t.Run("legacy-to-tiered", func(t *testing.T) {
		// A legacy primary's structure snapshot lands on a tiered follower.
		leg, err := OpenDir(t.TempDir(), durableOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer leg.Close()
		for i := uint64(1); i <= 100; i++ {
			if err := leg.Insert(i*3, i); err != nil {
				t.Fatal(err)
			}
		}
		var lbuf bytes.Buffer
		lAsOf, _, err := leg.SnapshotAt(&lbuf)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := OpenDir(t.TempDir(), tieredOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer dst.Close()
		if err := dst.RestoreSnapshot(bytes.NewReader(lbuf.Bytes()), lAsOf); err != nil {
			t.Fatal(err)
		}
		if dst.Len() != 100 {
			t.Fatalf("Len = %d, want 100", dst.Len())
		}
		if v, ok := dst.Lookup(30); !ok || v != 10 {
			t.Fatalf("key 30 = %d,%v want 10,true", v, ok)
		}
		if got := dst.CommitSeq(); got != lAsOf {
			t.Fatalf("CommitSeq = %d, want %d", got, lAsOf)
		}
	})
}

// TestTieredRestoreBehindRefused: rewinding a tiered directory is refused —
// stale WAL records above the rewound watermark could replay as phantoms.
func TestTieredRestoreBehindRefused(t *testing.T) {
	src, err := OpenDir(t.TempDir(), tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	asOf, _, err := src.SnapshotAt(&buf)
	if err != nil {
		t.Fatal(err)
	}

	dst, err := OpenDir(t.TempDir(), tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	for i := uint64(0); i < 10; i++ {
		if err := dst.Insert(100+i, i); err != nil {
			t.Fatal(err)
		}
	}
	if dst.CommitSeq() <= asOf {
		t.Fatalf("test setup: dst clock %d not ahead of %d", dst.CommitSeq(), asOf)
	}
	err = dst.RestoreSnapshot(bytes.NewReader(buf.Bytes()), asOf)
	if !errors.Is(err, ErrRestoreBehind) {
		t.Fatalf("backward restore: %v, want ErrRestoreBehind", err)
	}
	// The refusal left local state untouched.
	if v, ok := dst.Lookup(105); !ok || v != 5 {
		t.Fatalf("key 105 = %d,%v after refused restore, want 5,true", v, ok)
	}
}

// TestTieredBundleDecodeRejectsCorruption: bit flips anywhere in a bundle
// are detected (manifest CRC, per-segment CRC, framing, or the live-count
// cross-check) — never silently restored.
func TestTieredBundleDecodeRejectsCorruption(t *testing.T) {
	src, err := OpenDir(t.TempDir(), tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := uint64(0); i < 200; i++ {
		if err := src.Insert(i*11, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Flush(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, _, err := src.SnapshotAt(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 64; trial++ {
		mut := append([]byte(nil), data...)
		mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
		if bytes.Equal(mut, data) {
			continue
		}
		if _, _, err := readBundleFlat(bytes.NewReader(mut)); err == nil {
			// A flip confined to padding-free regions must fail; locate it
			// for the report.
			i := 0
			for ; i < len(mut) && mut[i] == data[i]; i++ {
			}
			t.Fatalf("trial %d: bit flip at offset %d decoded cleanly", trial, i)
		}
	}
}

// TestTieredSegmentMetasSorted pins the published read order: newest first
// by sequence watermark, ID breaking ties, so shadowing is well defined.
func TestTieredSegmentMetasSorted(t *testing.T) {
	d, err := OpenDir(t.TempDir(), tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for round := uint64(0); round < 3; round++ {
		for i := uint64(0); i < 10; i++ {
			key := i*5 + round // overlapping ranges across rounds
			if _, ok := d.Lookup(key); !ok {
				if err := d.Insert(key, round); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	metas := d.tier.segs.Load().metas()
	if !sort.SliceIsSorted(metas, func(i, j int) bool {
		if metas[i].Seq != metas[j].Seq {
			return metas[i].Seq > metas[j].Seq
		}
		return metas[i].ID > metas[j].ID
	}) {
		t.Fatalf("segment set not newest-first: %+v", metas)
	}
}
