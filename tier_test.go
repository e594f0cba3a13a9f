package chameleon

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chameleon/internal/dataset"
	"chameleon/internal/faultfs"
	"chameleon/internal/segment"
	"chameleon/internal/wal"
)

func tieredOpts() DirOptions {
	o := DirOptions{}
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

// manifestFailFS fails the creation of tier manifests while fail is set, so
// a replace dies at its commit point.
type manifestFailFS struct {
	faultfs.FS
	fail atomic.Bool
}

func (f *manifestFailFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	if f.fail.Load() && flag&os.O_CREATE != 0 && strings.HasPrefix(filepath.Base(name), "manifest-") {
		return nil, errors.New("injected manifest failure")
	}
	return f.FS.OpenFile(name, flag, perm)
}

// TestTieredBulkLoadManifestFailureLeavesNoFiles: a bulk load whose manifest
// write fails aborts cleanly — the error is returned, neither its segment
// nor a successor WAL is left behind, the previous contents still serve, and
// the handle keeps accepting writes and flushes.
func TestTieredBulkLoadManifestFailureLeavesNoFiles(t *testing.T) {
	dir := t.TempDir()
	fsys := &manifestFailFS{FS: faultfs.OS}
	d, err := openDirFS(dir, tieredOpts(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.BulkLoad([]uint64{10, 20, 30}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(40, 4); err != nil {
		t.Fatal(err)
	}
	files := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			if n := e.Name(); strings.HasPrefix(n, "seg-") || strings.HasPrefix(n, walPrefix) {
				names = append(names, n)
			}
		}
		return names
	}
	before := files()

	keys := make([]uint64, 10_000)
	for i := range keys {
		keys[i] = uint64(i)*3 + 1
	}
	fsys.fail.Store(true)
	if err := d.BulkLoad(keys, nil); err == nil {
		t.Fatal("BulkLoad succeeded with a failing manifest write")
	}
	fsys.fail.Store(false)
	if after := files(); !slices.Equal(after, before) {
		t.Fatalf("failed bulk load left files behind: %v, before %v", after, before)
	}
	if v, ok := d.Lookup(40); !ok || v != 4 || d.Len() != 4 {
		t.Fatalf("after failed bulk load: key 40 = %d,%v, Len %d; want 4,true, 4", v, ok, d.Len())
	}
	if err := d.Insert(50, 5); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, ok := d.Lookup(50); !ok || v != 5 {
		t.Fatalf("key 50 = %d,%v after flush, want 5,true", v, ok)
	}
}

// TestTieredGCKeepsLogsAboveWatermark: a flush whose manifest write fails
// has already rotated the WAL, so the log before the live one holds commits
// above the flushed watermark, kept only in the frozen run in memory. A
// compaction's GC pass in that state must leave that log alone: the
// commits it holds recover after a close without another flush.
func TestTieredGCKeepsLogsAboveWatermark(t *testing.T) {
	dir := t.TempDir()
	fsys := &manifestFailFS{FS: faultfs.OS}
	d, err := openDirFS(dir, tieredOpts(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64]uint64{}
	for _, k := range []uint64{10, 20, 30} {
		oracle[k] = k
	}
	if err := d.BulkLoad([]uint64{10, 20, 30}, nil); err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 2; round++ {
		for i := uint64(0); i < 5; i++ {
			k := 1000*(round+1) + i
			if err := d.Insert(k, i); err != nil {
				t.Fatal(err)
			}
			oracle[k] = i
		}
		fsys.fail.Store(round == 1) // the second flush freezes, then fails
		if err := d.Flush(); (err != nil) != (round == 1) {
			t.Fatalf("flush %d: %v", round, err)
		}
	}
	fsys.fail.Store(false)
	if err := d.Compact(); err != nil { // merges the first flush's L0 run, then GCs
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(dir, tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	compareWithOracle(t, re, oracle, "reopened after a failed flush and a compaction")
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
	gone := make(map[uint64]bool) // deleted and not re-inserted

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
							gone[key] = true
							mu.Unlock()
						}
					} else {
						val := rng.Uint64()
						if err := d.Insert(key, val); err == nil {
							mu.Lock()
							oracle[key] = val
							delete(gone, key)
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
		compareWindows(t, d, oracle, gone, fmt.Sprintf("round %d", round))
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
	compareWindows(t, re, oracle, gone, "after reopen")
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

// compareWindows checks 32 narrow Range windows of 64 oracle ranks each
// against the sorted oracle, so the volatile tiers' window-bounded capture
// is checked, not only the whole-key-space one. Window i starts on a live
// key, or (odd i) on the first deleted key at or after it; it ends on a
// live key, or (i&2 set) on the first deleted key at or after that.
func compareWindows(t *testing.T, d tieredReadSurface, oracle map[uint64]uint64, gone map[uint64]bool, phase string) {
	t.Helper()
	live := make([]uint64, 0, len(oracle))
	for k := range oracle {
		live = append(live, k)
	}
	dead := make([]uint64, 0, len(gone))
	for k := range gone {
		dead = append(dead, k)
	}
	slices.Sort(live)
	slices.Sort(dead)
	if len(live) == 0 {
		return
	}
	onDead := func(k uint64) uint64 {
		if i, _ := slices.BinarySearch(dead, k); i < len(dead) {
			return dead[i]
		}
		return k
	}
	for i := 0; i < 32; i++ {
		r := i * len(live) / 32
		lo, hi := live[r], live[min(r+63, len(live)-1)]
		if i&1 != 0 {
			lo = onDead(lo)
		}
		if i&2 != 0 {
			hi = onDead(hi)
		}
		from, _ := slices.BinarySearch(live, lo)
		to, _ := slices.BinarySearch(live, hi+1)
		want := live[from:max(from, to)] // lo may pass hi when it moved onto a deleted key
		var got []uint64
		d.Range(lo, hi, func(k, v uint64) bool {
			if v != oracle[k] {
				t.Fatalf("%s: window [%d, %d]: key %d = %d, oracle %d", phase, lo, hi, k, v, oracle[k])
			}
			got = append(got, k)
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("%s: window [%d, %d]: range gave %v, oracle %v", phase, lo, hi, got, want)
		}
	}
}

// TestTieredMigration: a legacy directory holding only write-ahead logs,
// opened with Tiered set, keeps serving its data (a checkpointed one is
// refused; see TestRetiredFormatsRefused); the first flush moves it into
// segments, and the directory reopens tiered from then on, flag or no flag.
func TestTieredMigration(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{5, 10, 15, 20, 25}
	for _, k := range keys {
		if err := d.Insert(k, k); err != nil {
			t.Fatal(err)
		}
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
		t.Fatal("Tiered flag did not attach a tier to a log-only legacy directory")
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
	if err := td.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen WITHOUT the flag: the manifest is sticky.
	re, err := OpenDir(dir, DirOptions{})
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

// TestTieredSnapshotRoundTrip: either engine's snapshot is one
// tombstone-free CHAMSEG2 run at the as-of sequence, whatever holds the
// contents, and restores on either engine with the exact contents and the
// as-of sequence, durably. The first rows stay on the tiered engine and
// cover an empty tier, a tier before its first flush (memtable and dead set
// only), and a flushed tier with a hot delta whose deletes shadow
// segment-resident keys; the last rows move that flushed-with-delta history
// between engines. A receiver behind the snapshot holds three commits of
// its own, which the restore replaces.
func TestTieredSnapshotRoundTrip(t *testing.T) {
	insert := func(t *testing.T, d *DurableIndex, want map[uint64]uint64, k, v uint64) {
		t.Helper()
		if err := d.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	remove := func(t *testing.T, d *DurableIndex, want map[uint64]uint64, k uint64) {
		t.Helper()
		if err := d.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	flushedWithDelta := func(t *testing.T, d *DurableIndex, want map[uint64]uint64) {
		for i := uint64(0); i < 400; i++ {
			insert(t, d, want, i*7, i)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 50; i++ {
			insert(t, d, want, 100_000+i, i+3)
		}
		for i := uint64(0); i < 20; i++ {
			remove(t, d, want, i*7*4)
		}
	}
	for _, tc := range []struct {
		name     string
		src, dst DirOptions
		fill     func(t *testing.T, d *DurableIndex, want map[uint64]uint64)
	}{
		{"empty", tieredOpts(), tieredOpts(), func(*testing.T, *DurableIndex, map[uint64]uint64) {}},
		{"memtable-only", tieredOpts(), tieredOpts(), func(t *testing.T, d *DurableIndex, want map[uint64]uint64) {
			for i := uint64(0); i < 100; i++ {
				insert(t, d, want, i*5, i)
			}
			for i := uint64(0); i < 10; i++ {
				remove(t, d, want, i*15)
			}
		}},
		{"flushed-with-delta", tieredOpts(), tieredOpts(), flushedWithDelta},
		{"legacy-to-legacy", DirOptions{}, DirOptions{}, flushedWithDelta},
		{"legacy-to-tiered", DirOptions{}, tieredOpts(), flushedWithDelta},
		{"tiered-to-legacy", tieredOpts(), DirOptions{}, flushedWithDelta},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, err := OpenDir(t.TempDir(), tc.src)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			want := make(map[uint64]uint64)
			tc.fill(t, src, want)

			var buf bytes.Buffer
			asOf, n, err := src.SnapshotAt(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if asOf != src.CommitSeq() || n != int64(buf.Len()) {
				t.Fatalf("asOf %d, n %d; want CommitSeq %d, %d bytes", asOf, n, src.CommitSeq(), buf.Len())
			}
			sr, err := segment.OpenBytes(buf.Bytes(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if m := sr.Meta(); m.Seq != asOf || m.Live != m.Count || m.Count != uint64(len(want)) {
				t.Fatalf("snapshot run %+v; want Seq %d and %d live entries, no tombstones", m, asOf, len(want))
			}
			sr.Close() //nolint:errcheck

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
			dst, err := OpenDir(t.TempDir(), tc.dst)
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()
			for k := uint64(1); asOf >= 3 && k <= 3; k++ {
				if err := dst.Insert(1<<40+k, k); err != nil {
					t.Fatal(err)
				}
			}
			if err := dst.RestoreSnapshot(bytes.NewReader(buf.Bytes()), asOf); err != nil {
				t.Fatal(err)
			}
			verify(t, dst)
			// Durability: the restore's commit must survive reopen.
			dir := dst.dir
			if err := dst.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenDir(dir, tc.dst)
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
	}
}

// TestTieredRestoreBehindRefused: rewinding a directory of either engine is
// refused — stale WAL records above the rewound watermark could replay as
// phantoms.
func TestTieredRestoreBehindRefused(t *testing.T) {
	for name, opts := range map[string]DirOptions{"legacy": DirOptions{}, "tiered": tieredOpts()} {
		t.Run(name, func(t *testing.T) {
			src, err := OpenDir(t.TempDir(), opts)
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

			dst, err := OpenDir(t.TempDir(), opts)
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
			if v, ok := dst.Lookup(105); !ok || v != 5 || dst.Len() != 10 || dst.CommitSeq() != 10 {
				t.Fatalf("after refused restore: key 105 = %d,%v, Len %d, CommitSeq %d; want 5,true, 10, 10",
					v, ok, dst.Len(), dst.CommitSeq())
			}
		})
	}
}

// TestTieredSnapshotRejectsCorruption: bit flips anywhere in a tiered
// snapshot are refused by RestoreSnapshot (the run's CRC, framing or
// geometry checks) — never silently restored — and so is a valid segment
// at another sequence or with a tombstone. Each refusal leaves the
// receiver's contents and commit sequence as they were.
func TestTieredSnapshotRejectsCorruption(t *testing.T) {
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
	asOf, _, err := src.SnapshotAt(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := OpenDir(t.TempDir(), tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	for k := uint64(1); k <= 3; k++ {
		if err := dst.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 64; trial++ {
		mut := append([]byte(nil), data...)
		off := rng.Intn(len(mut))
		mut[off] ^= 1 << uint(rng.Intn(8))
		if err := dst.RestoreSnapshot(bytes.NewReader(mut), asOf); err == nil {
			t.Fatalf("trial %d: bit flip at offset %d restored cleanly", trial, off)
		}
		if dst.Len() != 3 || dst.CommitSeq() != 3 {
			t.Fatalf("trial %d: refused restore left Len %d, CommitSeq %d; want 3, 3", trial, dst.Len(), dst.CommitSeq())
		}
	}
	// Well-formed segments that are not this snapshot: another sequence, or
	// a run holding a tombstone.
	var tombRun bytes.Buffer
	if _, err := segment.Write(&tombRun, []uint64{5, 6}, []uint64{1, 0}, []bool{false, true}, 0, 1, asOf, 0); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		stream []byte
		asOf   uint64
	}{
		"other as-of": {data, asOf + 1},
		"tombstone":   {tombRun.Bytes(), asOf},
	} {
		if err := dst.RestoreSnapshot(bytes.NewReader(tc.stream), tc.asOf); err == nil {
			t.Fatalf("%s: restored cleanly", name)
		}
		if dst.Len() != 3 || dst.CommitSeq() != 3 {
			t.Fatalf("%s: refused restore left Len %d, CommitSeq %d; want 3, 3", name, dst.Len(), dst.CommitSeq())
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

// TestTieredRangeIgnoresDistantTombstones: a RANGE takes only its window's
// pending tombstones, so its cost does not grow with the deletes elsewhere
// in the key space since the last flush.
func TestTieredRangeIgnoresDistantTombstones(t *testing.T) {
	if raceEnabled {
		t.Skip("timings are not meaningful under the race detector")
	}
	const n, stride = 100_000, 8
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * stride
	}
	lo, hi := keys[n/2], keys[n/2+127]
	perRange := func(deletes int) time.Duration {
		o := tieredOpts()
		o.Sync = SyncNone
		d, err := OpenDir(t.TempDir(), o)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if err := d.BulkLoad(keys, nil); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys[n-deletes:] {
			if err := d.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			for i := 0; i < 200; i++ {
				got := 0
				d.Range(lo, hi, func(_, _ uint64) bool { got++; return got < 100 })
				if got != 100 {
					t.Fatalf("range over %d live keys stopped after %d", 128, got)
				}
			}
			best = min(best, time.Since(start)/200)
		}
		return best
	}
	few, many := perRange(256), perRange(32_768)
	t.Logf("per Range: %v with 256 distant tombstones, %v with 32768", few, many)
	if ratio := float64(many) / float64(few); ratio > 4 {
		t.Fatalf("128× more distant tombstones made a Range %.1f× slower, want at most 4×", ratio)
	}
}

// TestTieredColdReadSeesReinsert: a reader that misses the memtable just
// before a deleted, flushed key is re-inserted must return the new value or
// nothing, never the flushed one. The hook runs inside the read's deadMu
// hold, after its memtable miss and before its dead-set probe, and starts
// the re-insert there: the insert must wait for the hold to end, since it
// clears the key's tombstone, and the read must not find the flushed value.
// Rows: Lookup and LookupBatch, and a Lookup whose hook starts a Flush
// instead: the flush must wait too, since it swaps the memtable out under
// deadMu, and the read must return absent.
func TestTieredColdReadSeesReinsert(t *testing.T) {
	t.Cleanup(func() { getHoldFailpoint = nil })
	for _, row := range []struct {
		name         string
		batch, flush bool
	}{{"Lookup", false, false}, {"LookupBatch", true, false}, {"LookupDuringFlush", false, true}} {
		o := tieredOpts()
		o.Sync = SyncNone
		d, err := OpenDir(t.TempDir(), o)
		if err != nil {
			t.Fatal(err)
		}
		const key = 77
		if err := d.Insert(key, 1); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := d.Delete(key); err != nil {
			t.Fatal(err)
		}
		var fired atomic.Bool
		wrote := make(chan error, 1)
		getHoldFailpoint = func() {
			// The insert's own validation reads the key too; only the
			// first read under test starts it.
			if !fired.CompareAndSwap(false, true) {
				return
			}
			go func() {
				if row.flush {
					wrote <- d.Flush()
				} else {
					wrote <- d.Insert(key, 2)
				}
			}()
			select {
			case err := <-wrote:
				t.Errorf("%s: the write finished inside the read's hold (err %v)", row.name, err)
				wrote <- err
			case <-time.After(100 * time.Millisecond):
			}
		}
		var v uint64
		var ok bool
		if row.batch {
			vals, found := make([]uint64, 1), make([]bool, 1)
			d.LookupBatch([]uint64{key}, vals, found)
			v, ok = vals[0], found[0]
		} else {
			v, ok = d.Lookup(key)
		}
		if !fired.Load() {
			t.Fatalf("%s: the read never reached the dead-set probe", row.name)
		}
		if err := <-wrote; err != nil {
			t.Fatal(err)
		}
		getHoldFailpoint = nil
		want, wantOK := uint64(2), !row.flush
		if ok && (v != want || row.flush) {
			t.Fatalf("%s: Lookup during the write = %d, want %d or absent (1 is the deleted value)", row.name, v, want)
		}
		if v, ok := d.Lookup(key); ok != wantOK || (ok && v != want) {
			t.Fatalf("%s: Lookup after the write = %d,%v want %d,%v", row.name, v, ok, want, wantOK)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTieredFreezeAllocs: a freeze swaps the memtable out instead of
// copying it, and the successor WAL takes over the old log's buffer, so
// what it allocates (an empty memtable and the successor log) does not grow
// with the memtable: ~3 KB at both sizes, where a copying freeze allocated
// 353,864 B and 2,989,728 B, and ~77 KB went to a fresh 68 KiB WAL buffer
// per freeze. Skipped under -race, whose instrumentation allocates.
func TestTieredFreezeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, n := range []int{4096, 65536} {
		o := tieredOpts()
		o.Sync = SyncNone
		d, err := OpenDir(t.TempDir(), o)
		if err != nil {
			t.Fatal(err)
		}
		for i := range n {
			if err := d.Insert(uint64(i)*64, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		// Every 8th key deleted: n entries, an eighth of them tombstones.
		for i := 0; i < n; i += 8 {
			if err := d.Delete(uint64(i) * 64); err != nil {
				t.Fatal(err)
			}
		}
		d.tier.tmu.Lock()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		frozen, err := d.tier.freeze()
		runtime.ReadMemStats(&after)
		d.tier.tmu.Unlock()
		if err != nil || frozen == nil {
			t.Fatalf("freeze = %v, %v", frozen, err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d entries: freeze allocated %d B", n, alloc)
		if alloc > 16<<10 {
			t.Errorf("%d entries: freeze allocated %d B, want at most %d", n, alloc, 16<<10)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if got, want := d.Len(), n-n/8; got != want {
			t.Fatalf("%d entries: Len after the flush = %d, want %d", n, got, want)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTieredFlushBytes: a flush writes the frozen memtable as exactly the
// segment segment.Write makes of its merged run — fresh inserts as pairs,
// deletes of segment-resident keys as tombstones, a re-insert over a
// tombstone as a pair — so how it builds the run cannot move the bytes on
// disk.
func TestTieredFlushBytes(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for k := uint64(10); k <= 1000; k += 10 {
		if err := d.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint64{} // key → value; tombstones map to math.MaxUint64
	for k := uint64(5); k <= 1005; k += 100 {
		if err := d.Insert(k, k+1); err != nil {
			t.Fatal(err)
		}
		want[k] = k + 1
	}
	for k := uint64(20); k <= 1000; k += 70 {
		if err := d.Delete(k); err != nil {
			t.Fatal(err)
		}
		want[k] = math.MaxUint64
	}
	for _, k := range []uint64{90, 160} { // deleted above; back over the tombstone
		if err := d.Insert(k, 7); err != nil {
			t.Fatal(err)
		}
		want[k] = 7
	}
	seq := d.CommitSeq()
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	var keys, vals []uint64
	var tombs []bool
	for k := range want {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		v, tomb := want[k], want[k] == math.MaxUint64
		if tomb {
			v = 0
		}
		vals, tombs = append(vals, v), append(tombs, tomb)
	}
	var meta segment.Meta
	for _, m := range d.tier.segs.Load().metas() {
		if m.Level == 0 && m.Seq == seq {
			meta = m
		}
	}
	var exp bytes.Buffer
	if _, err := segment.Write(&exp, keys, vals, tombs, meta.ID, 0, seq, 0); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segment.FileName(meta.ID)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, exp.Bytes()) {
		t.Fatalf("flushed segment %d (%d B) differs from segment.Write of its run (%d B)", meta.ID, len(got), exp.Len())
	}
}

// TestTieredReopenRunsNoRetrainer: a tiered directory reopened before its
// first flush replays its WAL tail into the memtable, whose reconstructions
// give it gates; the memtable must still run no retrainer (DirOptions.Tiered),
// since nothing would stop one once a flush swaps the memtable out.
func TestTieredReopenRunsNoRetrainer(t *testing.T) {
	// retrainers waits out a window in which a just-started retrainer
	// shows up in the dump, and counts the retrainer goroutines.
	retrainers := func() (n int) {
		for range 20 {
			buf := make([]byte, 1<<20)
			n = max(n, strings.Count(string(buf[:runtime.Stack(buf, true)]), ".retrainLoop("))
			time.Sleep(10 * time.Millisecond)
		}
		return n
	}
	base := retrainers()
	o := tieredOpts()
	o.Sync = SyncNone
	o.RetrainEvery = 10 * time.Millisecond
	dir := t.TempDir()
	d, err := OpenDir(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	// FACE: skewed enough that the reconstructed tree has gates, which a
	// retrainer needs to start (evenly spaced keys build none).
	for _, k := range dataset.Generate(dataset.FACE, 100_000, 1) {
		if err := d.Insert(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDir(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if n := retrainers() - base; n != 0 {
		t.Fatalf("the reopened memtable runs %d retrainer(s), want none", n)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := retrainers() - base; n != 0 {
		t.Fatalf("after a flush %d retrainer(s) run, want none", n)
	}
}

// TestTieredLookupValuesUnderConcurrency checks the values point reads
// return while keys move between the memtable, the dead set, the frozen run
// and the segments. Each writer cycles its own keys through insert and
// delete with a strictly increasing value per key, over a memtable small
// enough that background flushes and compactions run mid-test. A reader
// loads a key's newest acknowledged delete and its newest acknowledged
// insert before it reads, and its delete count after: a value must be newer
// than the acknowledged delete (a resurrected value is not), and absence
// needs a delete begun for the acknowledged insert (a lost value is not
// absent). Both Lookup and LookupBatch are checked.
func TestTieredLookupValuesUnderConcurrency(t *testing.T) {
	o := tieredOpts()
	o.Sync = SyncNone
	o.MemtableBytes = 32 * memtableEntryBytes // flushes, and so compactions, keep firing
	d, err := OpenDir(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const writers, keysPerWriter = 2, 8
	const keys = writers * keysPerWriter
	cycles := 1000
	if testing.Short() {
		cycles = 300
	}
	// Value c is the key's c-th incarnation (c from 1). insAcked is the newest
	// acknowledged insert, delBegun the newest delete begun and delAcked the
	// newest acknowledged one; filler keeps the memtable turning over.
	var insAcked, delBegun, delAcked [keys]atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			filler := uint64(1_000_000 * (w + 1))
			for c := uint64(1); c <= uint64(cycles); c++ {
				for k := w; k < keys; k += writers {
					if err := d.Insert(uint64(k), c); err != nil {
						t.Error(err)
						return
					}
					insAcked[k].Store(c)
				}
				for k := w; k < keys; k += writers {
					delBegun[k].Store(c)
					if err := d.Delete(uint64(k)); err != nil {
						t.Error(err)
						return
					}
					delAcked[k].Store(c)
				}
				for range 4 {
					filler++
					if err := d.Insert(filler, 0); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	var reads atomic.Uint64
	var rwg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func(batch bool) {
			defer rwg.Done()
			batchKeys := make([]uint64, keys)
			for k := range batchKeys {
				batchKeys[k] = uint64(k)
			}
			vals, found := make([]uint64, keys), make([]bool, keys)
			var del, ins [keys]uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k := range keys {
					del[k], ins[k] = delAcked[k].Load(), insAcked[k].Load()
				}
				if batch {
					d.LookupBatch(batchKeys, vals, found)
				} else {
					for k := range keys {
						vals[k], found[k] = d.Lookup(uint64(k))
					}
				}
				for k := range keys {
					if found[k] && vals[k] <= del[k] {
						t.Errorf("batch %v: key %d = %d after the delete of value %d was acknowledged", batch, k, vals[k], del[k])
					}
					if !found[k] && ins[k] > del[k] && delBegun[k].Load() < ins[k] {
						t.Errorf("batch %v: key %d absent while its value %d was acknowledged and not deleted", batch, k, ins[k])
					}
				}
				reads.Add(keys)
				// Yield: a spinning reader holds a CPU until preempted, and
				// on two cores that starves the writers' commit leader.
				runtime.Gosched()
			}
		}(r == 1)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	h := d.Health().Tier
	t.Logf("%d point reads over %d flushes and %d compactions", reads.Load(), h.Flushes, h.Compactions)
	if h.Flushes == 0 || h.Compactions == 0 {
		t.Fatalf("no flush or no compaction ran mid-test: %+v", h)
	}
}
