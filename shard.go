package chameleon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/faultfs"
	"chameleon/internal/wal"
)

// ShardedIndex range-partitions the key space into N independent DurableIndex
// shards, each with its own directory, write-ahead log, group-commit queue,
// and retrainer. One process-wide index funnels every write through a single
// WAL and a single fsync pipeline no matter how many cores exist; sharding
// gives each key range its own pipeline, so writers touching different ranges
// share nothing — not a lock, not a queue, not an fsync.
//
// The handle surface matches DurableIndex (Insert/Delete/Lookup/Range/
// Checkpoint/Close/Health plus the Ctx variants): point operations route to
// exactly one shard via the boundary array; Range stitches per-shard scans in
// ascending shard order, preserving the global ascending-key contract and the
// early-stop contract (fn returning false stops the scan without visiting
// later shards); Checkpoint, Close, and Health scatter-gather across every
// shard.
//
// Crash story: each shard recovers independently through the DurableIndex
// machinery (newest intact snapshot + WAL replay, torn tails truncated). A
// crash between one shard's commit and another's loses nothing acknowledged:
// an acked write lives in its own shard's WAL, and no other shard's state can
// invalidate it. The manifest (boundaries) is written once at creation with
// the same atomic temp+fsync+rename+dir-fsync discipline as snapshots.
type ShardedIndex struct {
	dir    string
	fs     faultfs.FS
	shards []*DurableIndex
	// rt holds the immutable boundary router; BulkLoad swaps it atomically
	// (BulkLoad replaces the whole contents and requires quiescent writers,
	// exactly like DurableIndex.BulkLoad — the atomic swap keeps concurrent
	// readers memory-safe, not linearizable across the reload).
	rt atomic.Pointer[shardRouter]
	// manMu serializes manifest rewrites (BulkLoad re-shard vs. follower
	// AdoptManifest).
	manMu sync.Mutex
}

// ShardDirOptions configures OpenShardedDir. The embedded DirOptions apply to
// every shard individually — in particular MaxPending bounds each shard's
// own group-commit queue, so the aggregate admission capacity is
// Shards × MaxPending.
type ShardDirOptions struct {
	DirOptions
	// Shards is the number of range partitions (default 4, max 1024). Ignored
	// when the directory already holds a shard manifest: the stored layout
	// wins, because data is already partitioned by it.
	Shards int
	// boundaries, when non-nil, pins the partition boundaries (len =
	// Shards-1, strictly ascending) in place of the automatic choice; only
	// tests set it.
	boundaries []uint64
}

const (
	shardManifestName = "shards.meta"
	shardDirPrefix    = "shard-"
	maxShards         = 1024
)

// shardManifest is the on-disk layout record: without it, nothing says which
// key range lives in which shard directory.
type shardManifest struct {
	Version int      `json:"version"`
	Shards  int      `json:"shards"`
	Bounds  []uint64 `json:"bounds"`
}

func shardDirName(i int) string { return fmt.Sprintf("%s%04d", shardDirPrefix, i) }

// IsShardedDir reports whether dir holds a sharded index layout (a shard
// manifest). cmd/chameleon-serve uses it to auto-detect the layout so a
// sharded directory reopens sharded without repeating -shards.
func IsShardedDir(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, shardManifestName))
	return err == nil
}

// shardRouter routes keys to shards over the boundary array. Shard i owns
// [bounds[i-1], bounds[i]) with bounds[-1] = 0 and bounds[n-1] = ∞, so a key
// exactly equal to a boundary routes to the upper shard and ^uint64(0) always
// routes to the last shard.
//
// Routing is a binary search over at most Shards-1 boundaries. A learned
// (linear-interpolation) router was measured against it when sharding
// landed (BenchmarkShardRouter, equi-width and skewed equi-depth boundary
// shapes): at the default 4 shards binary search won both shapes (~2.8–3.0
// vs ~3.1–3.2 ns/route); the learned router pulled ahead only on equi-width
// boundaries at 16–64 shards (~1–1.7 ns saved), and on skewed equi-depth
// boundaries — the shape locally skewed data actually produces — its
// misprediction-correction scan made it strictly worse (11.1 vs 6.4 ns at
// 64 shards). Binary search is skew-independent and is the only router.
type shardRouter struct {
	bounds []uint64
}

func newShardRouter(bounds []uint64) *shardRouter { return &shardRouter{bounds: bounds} }

// route returns the index of the shard owning key.
func (r *shardRouter) route(key uint64) int {
	return sort.Search(len(r.bounds), func(i int) bool { return key < r.bounds[i] })
}

// OpenShardedDir opens (or initializes) a sharded durable index rooted at
// dir. Layout on disk: dir/shards.meta records the boundary array;
// dir/shard-0000 … dir/shard-NNNN are independent DurableIndex directories,
// one per range partition. Recovery opens every shard in parallel, each
// through its own snapshot-plus-WAL-replay path.
//
// Boundary selection: an existing manifest always wins (the data is already
// partitioned by it, so opts.Shards is ignored). A directory without one
// gets equi-width boundaries over the full uint64 space; BulkLoad re-shards
// equi-depth. A directory holding an unsharded index is refused with
// ErrLayoutMismatch before anything on disk changes.
func OpenShardedDir(dir string, opts ShardDirOptions) (*ShardedIndex, error) {
	return openShardedDirFS(dir, opts, faultfs.OS)
}

// openShardedDirFS is OpenShardedDir over an injectable filesystem;
// TestCrashSweep recovers with the real one after crashing a faultfs workload.
func openShardedDirFS(dir string, opts ShardDirOptions, fsys faultfs.FS) (*ShardedIndex, error) {
	if opts.Shards <= 0 {
		opts.Shards = 4
	}
	if opts.Shards > maxShards {
		return nil, fmt.Errorf("chameleon: %d shards exceeds the maximum of %d", opts.Shards, maxShards)
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := refuseLayout(fsys, dir, true); err != nil {
		return nil, err
	}

	man, err := readShardManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	if man == nil {
		// No manifest yet: this open creates the layout.
		return initShardedDir(dir, opts, fsys)
	}
	s := &ShardedIndex{dir: dir, fs: fsys}
	s.rt.Store(newShardRouter(man.Bounds))
	if err := s.openShards(man.Shards, opts.DirOptions); err != nil {
		return nil, err
	}
	return s, nil
}

// openShards opens (or creates) the n shard directories in parallel. On any
// failure the already-opened shards are closed.
func (s *ShardedIndex) openShards(n int, opts DirOptions) error {
	s.shards = make([]*DurableIndex, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.shards[i], errs[i] = openDirFS(filepath.Join(s.dir, shardDirName(i)), opts, s.fs)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, sh := range s.shards {
			if sh != nil {
				sh.Close() //nolint:errcheck
			}
		}
		return err
	}
	return nil
}

// initShardedDir creates the sharded layout in a directory with no manifest.
// The manifest is the commit point of initialization: it is written only
// after every shard directory exists, so "manifest present" always implies
// "shards authoritative".
func initShardedDir(dir string, opts ShardDirOptions, fsys faultfs.FS) (*ShardedIndex, error) {
	bounds := opts.boundaries
	if bounds == nil {
		bounds = equiWidthBounds(opts.Shards)
	} else if err := validateBounds(bounds, opts.Shards); err != nil {
		return nil, err
	}
	s := &ShardedIndex{dir: dir, fs: fsys}
	s.rt.Store(newShardRouter(bounds))
	if err := s.openShards(opts.Shards, opts.DirOptions); err != nil {
		return nil, err
	}
	if err := writeShardManifest(fsys, dir, shardManifest{Version: 1, Shards: opts.Shards, Bounds: bounds}); err != nil {
		s.Close() //nolint:errcheck
		return nil, err
	}
	return s, nil
}

// equiDepthBounds picks Shards-1 boundaries splitting the sorted keys into
// near-equal-cardinality partitions — the right split under local skew, where
// equal-width ranges would concentrate most keys (and most writes) in a few
// shards. Callers guarantee len(keys) >= shards.
func equiDepthBounds(keys []uint64, shards int) []uint64 {
	bounds := make([]uint64, 0, shards-1)
	for i := 1; i < shards; i++ {
		b := keys[len(keys)*i/shards]
		// Strictly ascending is required by the router; duplicates can only
		// arise from degenerate tiny inputs (callers prevent them), but guard
		// anyway.
		if len(bounds) > 0 && b <= bounds[len(bounds)-1] {
			b = bounds[len(bounds)-1] + 1
		}
		bounds = append(bounds, b)
	}
	return bounds
}

// equiWidthBounds splits the full uint64 space into equal-width ranges — the
// only reasonable prior when there is no data to sample.
func equiWidthBounds(shards int) []uint64 {
	step := math.MaxUint64 / uint64(shards)
	bounds := make([]uint64, 0, shards-1)
	for i := 1; i < shards; i++ {
		bounds = append(bounds, uint64(i)*step)
	}
	return bounds
}

func validateBounds(bounds []uint64, shards int) error {
	if len(bounds) != shards-1 {
		return fmt.Errorf("chameleon: %d boundaries for %d shards (want %d)", len(bounds), shards, shards-1)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return fmt.Errorf("chameleon: boundaries not strictly ascending at index %d", i)
		}
	}
	return nil
}

// readShardManifest loads and validates the manifest, or returns nil when the
// directory has none.
func readShardManifest(fsys faultfs.FS, dir string) (*shardManifest, error) {
	f, err := fsys.OpenFile(filepath.Join(dir, shardManifestName), os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	data, err := io.ReadAll(f)
	f.Close() //nolint:errcheck
	if err != nil {
		return nil, err
	}
	var man shardManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("chameleon: corrupt shard manifest: %w", err)
	}
	if man.Version != 1 {
		return nil, fmt.Errorf("chameleon: shard manifest version %d not supported", man.Version)
	}
	if man.Shards < 1 || man.Shards > maxShards {
		return nil, fmt.Errorf("chameleon: shard manifest names %d shards", man.Shards)
	}
	if err := validateBounds(man.Bounds, man.Shards); err != nil {
		return nil, fmt.Errorf("chameleon: shard manifest: %w", err)
	}
	return &man, nil
}

// writeShardManifest commits the layout with the snapshot discipline: temp
// file, fsync, rename, directory fsync.
func writeShardManifest(fsys faultfs.FS, dir string, man shardManifest) error {
	data, err := json.Marshal(man)
	if err != nil {
		return err
	}
	return writeFileAtomic(fsys, filepath.Join(dir, shardManifestName), writeBytes(data))
}

// loadPartitioned splits the sorted keys at the boundary array and bulk loads
// every shard with its slice, in parallel. Each shard's BulkLoad checkpoints,
// so on return the data is durable shard by shard.
func (s *ShardedIndex) loadPartitioned(keys, vals []uint64, bounds []uint64) error {
	n := len(s.shards)
	starts := make([]int, n+1)
	for i, b := range bounds {
		starts[i+1] = sort.Search(len(keys), func(j int) bool { return keys[j] >= b })
	}
	starts[n] = len(keys)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var kv, vv []uint64
			kv = keys[starts[i]:starts[i+1]]
			if vals != nil {
				vv = vals[starts[i]:starts[i+1]]
			}
			errs[i] = s.shards[i].BulkLoad(kv, vv)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// shard returns the DurableIndex owning key.
func (s *ShardedIndex) shard(key uint64) *DurableIndex {
	return s.shards[s.rt.Load().route(key)]
}

// Insert routes key→val to its shard's group-commit queue. The durability
// contract is the shard's: a nil return means the write is durable per the
// sync policy, and writes to different shards share nothing — separate WALs,
// separate fsyncs, separate admission bounds.
func (s *ShardedIndex) Insert(key, val uint64) error { return s.shard(key).Insert(key, val) }

// InsertCtx is Insert honoring a context, with DurableIndex.InsertCtx's
// two-state cancellation contract.
func (s *ShardedIndex) InsertCtx(ctx context.Context, key, val uint64) error {
	return s.shard(key).InsertCtx(ctx, key, val)
}

// Delete routes the removal to key's shard.
func (s *ShardedIndex) Delete(key uint64) error { return s.shard(key).Delete(key) }

// DeleteCtx is Delete honoring a context.
func (s *ShardedIndex) DeleteCtx(ctx context.Context, key uint64) error {
	return s.shard(key).DeleteCtx(ctx, key)
}

// WriteBatchCtx commits recs as one group-commit entry per shard they
// touch, each holding its shard's ops in slice order, and sets errs[i] to
// the outcome of recs[i]. The entries commit concurrently, each with
// DurableIndex.WriteBatchCtx's contract: admitted or shed whole, withdrawn
// whole, validated in order. The run as a whole has no such unity: one
// shard's entry may commit while another's is shed or withdrawn.
func (s *ShardedIndex) WriteBatchCtx(ctx context.Context, recs []wal.Record, errs []error) {
	if len(recs) == 0 {
		return
	}
	rt := s.rt.Load()
	shardOf := make([]int, len(recs))
	count := make([]int, len(s.shards)+1)
	for i, r := range recs {
		shardOf[i] = rt.route(r.Key)
		count[shardOf[i]+1]++
	}
	if count[shardOf[0]+1] == len(recs) {
		s.shards[shardOf[0]].WriteBatchCtx(ctx, recs, errs)
		return
	}
	// Group the ops by shard, keeping run order within each: shard i's ops
	// are byShard[count[i]:count[i+1]] once count holds prefix sums.
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	byShard := make([]wal.Record, len(recs))
	shardErrs := make([]error, len(recs))
	pos := make([]int, len(recs))
	next := append([]int(nil), count[:len(s.shards)]...)
	for i, r := range recs {
		pos[i] = next[shardOf[i]]
		byShard[pos[i]] = r
		next[shardOf[i]]++
	}
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		lo, hi := count[i], count[i+1]
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.WriteBatchCtx(ctx, byShard[lo:hi], shardErrs[lo:hi])
		}()
	}
	wg.Wait()
	for i := range recs {
		errs[i] = shardErrs[pos[i]]
	}
}

// Lookup routes the point query to key's shard.
func (s *ShardedIndex) Lookup(key uint64) (uint64, bool) { return s.shard(key).Lookup(key) }

// LookupBatch resolves keys[i] into vals[i], found[i], routing every key off
// ONE router snapshot so a batch observes a single consistent shard layout
// even if a BulkLoad re-partitions mid-flight. Keys are not re-grouped into
// per-shard sub-batches: at server batch sizes the routing snapshot and the
// per-shard tree loads dominate, and each shard's own read path is already
// lock-free.
func (s *ShardedIndex) LookupBatch(keys, vals []uint64, found []bool) {
	rt := s.rt.Load()
	for i, k := range keys {
		vals[i], found[i] = s.shards[rt.route(k)].Lookup(k)
	}
}

// Range calls fn for every key in [lo, hi] in ascending order until fn
// returns false, stitching per-shard scans in shard order. Shards partition
// the key space in ascending ranges and each shard's Range is ascending, so
// the concatenation is globally ascending with no merge step. The early-stop
// contract holds across shards: once fn returns false, later shards are never
// visited.
func (s *ShardedIndex) Range(lo, hi uint64, fn func(key, val uint64) bool) {
	rt := s.rt.Load()
	stitchRange(rt, lo, hi, fn, func(i int, fn func(key, val uint64) bool) {
		s.shards[i].Range(lo, hi, fn)
	})
}

// stitchRange drives a cross-shard scan: shards overlapping [lo, hi] are
// visited in ascending order, each through scan(i, fn), and once fn returns
// false no later shard is visited (the early-stop contract — tested directly
// by injecting a counting scan). Separated from ShardedIndex.Range so the
// visit discipline is testable without real shards.
func stitchRange(rt *shardRouter, lo, hi uint64, fn func(key, val uint64) bool, scan func(shard int, fn func(key, val uint64) bool)) {
	if lo > hi {
		return
	}
	first, last := rt.route(lo), rt.route(hi)
	stopped := false
	for i := first; i <= last && !stopped; i++ {
		scan(i, func(k, v uint64) bool {
			if !fn(k, v) {
				stopped = true
				return false
			}
			return true
		})
	}
}

// BulkLoad replaces the entire contents: boundaries are re-selected
// equi-depth over the new keys (so shard cardinalities stay balanced no
// matter how skewed the data), the manifest is rewritten, and every shard
// bulk loads its slice in parallel (each a replace, one commit on its own
// clock — that is how the re-shard reaches a follower — and durable when
// BulkLoad returns). Like DurableIndex.BulkLoad this replaces
// state wholesale and requires quiescent writers; a crash mid-load can leave
// shards mixed between old and new contents — rerun BulkLoad to converge.
func (s *ShardedIndex) BulkLoad(keys, vals []uint64) error {
	if vals != nil && len(vals) != len(keys) {
		return ErrMismatchedValues
	}
	bounds := s.rt.Load().bounds
	if len(keys) >= len(s.shards) {
		bounds = equiDepthBounds(keys, len(s.shards))
		if err := validateBounds(bounds, len(s.shards)); err != nil {
			return err // non-ascending keys surface here before any shard loads
		}
	}
	if err := s.setLayout(bounds); err != nil {
		return err
	}
	return s.loadPartitioned(keys, vals, bounds)
}

// Checkpoint snapshots every shard in parallel (scatter-gather). Each shard's
// checkpoint is individually atomic; there is no cross-shard barrier — a
// crash between two shards' checkpoints is indistinguishable from a crash
// between two unrelated commits, and recovery handles it shard by shard.
func (s *ShardedIndex) Checkpoint() error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *DurableIndex) {
			defer wg.Done()
			errs[i] = sh.Checkpoint()
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close closes every shard in parallel. Per-shard Close semantics apply:
// writers caught in flight resolve deterministically and acked writes are
// durable before their shard's Close returns.
func (s *ShardedIndex) Close() error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *DurableIndex) {
			defer wg.Done()
			errs[i] = sh.Close()
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Health aggregates every shard's health into one snapshot. State is the
// worst across shards (poisoned > degraded > closed > ok); additive counters
// (queue depth/bytes, sheds, batches, fsync histogram, …) are summed;
// QueueHighWater is the sum of per-shard high-water marks (an upper bound on
// simultaneous depth — the marks need not have coincided); MaxBatch is the
// maximum. Per-shard detail is available from ShardHealths.
func (s *ShardedIndex) Health() Health {
	var agg Health
	closed := 0
	for _, sh := range s.shards {
		h := sh.Health()
		switch h.State {
		case HealthPoisoned:
			if agg.State != HealthPoisoned {
				agg.State, agg.Err = HealthPoisoned, h.Err
			}
		case HealthDegraded:
			if agg.State == HealthOK || agg.State == HealthClosed {
				agg.State, agg.Err = HealthDegraded, h.Err
			}
		case HealthClosed:
			closed++
		}
		agg.QueueDepth += h.QueueDepth
		agg.QueueBytes += h.QueueBytes
		agg.QueueHighWater += h.QueueHighWater
		agg.ShedOps += h.ShedOps
		agg.CancelledOps += h.CancelledOps
		agg.Batches += h.Batches
		agg.BatchedOps += h.BatchedOps
		if h.MaxBatch > agg.MaxBatch {
			agg.MaxBatch = h.MaxBatch
		}
		agg.DiskFullBatches += h.DiskFullBatches
		for i := range agg.FsyncLatency {
			agg.FsyncLatency[i] += h.FsyncLatency[i]
		}
		agg.RetrainPauses += h.RetrainPauses
		agg.RetrainPaused = agg.RetrainPaused || h.RetrainPaused
		agg.Tier = mergeTierHealth(agg.Tier, h.Tier)
	}
	if agg.State == HealthOK && closed == len(s.shards) {
		agg.State, agg.Err = HealthClosed, ErrIndexClosed
	}
	return agg
}

// ShardHealths reports every shard's individual health, in shard order.
func (s *ShardedIndex) ShardHealths() []Health {
	hs := make([]Health, len(s.shards))
	for i, sh := range s.shards {
		hs[i] = sh.Health()
	}
	return hs
}

// Err reports the handle's terminal condition: the first shard's poison
// cause if any shard is poisoned, ErrIndexClosed once the shards are closed,
// nil otherwise.
func (s *ShardedIndex) Err() error {
	closed := 0
	for _, sh := range s.shards {
		if err := sh.Err(); err != nil {
			if !errors.Is(err, ErrIndexClosed) {
				return err
			}
			closed++
		}
	}
	if closed == len(s.shards) {
		return ErrIndexClosed
	}
	return nil
}

// Len sums live keys across shards.
func (s *ShardedIndex) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// WALSize sums the shards' write-ahead log sizes — the total replay debt a
// crash right now would cost recovery (recovered in parallel, one goroutine
// per shard).
func (s *ShardedIndex) WALSize() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.WALSize()
	}
	return n
}

// CommitSeq sums the shards' commit-sequence clocks. The sum is monotonic
// (each shard's clock is), so it works as a read-your-writes token: a write
// acked by any shard advances the sum past every token issued before it.
// Each shard keeps its own clock, so the sum carries no cross-shard order,
// but the token contract ("wait until at least this much history is
// committed") holds.
func (s *ShardedIndex) CommitSeq() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.CommitSeq()
	}
	return n
}

// WaitSeq blocks until the summed CommitSeq reaches seq, the context dies,
// or the handle stops advancing. Because the target is a sum, no single
// shard's broadcast is the right wake-up signal, so waiting polls at a
// short interval instead.
func (s *ShardedIndex) WaitSeq(ctx context.Context, seq uint64) error {
	for {
		if s.CommitSeq() >= seq {
			return nil
		}
		if err := s.Err(); err != nil {
			return err
		}
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Stats aggregates structural metrics across shards: maxima for the bounds,
// key-count-weighted means for the averages, sums for the counts.
func (s *ShardedIndex) Stats() Stats {
	var agg Stats
	total := 0
	var wh, we float64
	for _, sh := range s.shards {
		st := sh.Stats()
		n := sh.Len()
		total += n
		if st.MaxHeight > agg.MaxHeight {
			agg.MaxHeight = st.MaxHeight
		}
		if st.MaxError > agg.MaxError {
			agg.MaxError = st.MaxError
		}
		wh += st.AvgHeight * float64(n)
		we += st.AvgError * float64(n)
		agg.Nodes += st.Nodes
	}
	if total > 0 {
		agg.AvgHeight = wh / float64(total)
		agg.AvgError = we / float64(total)
	}
	return agg
}

// Shards reports the number of range partitions.
func (s *ShardedIndex) Shards() int { return len(s.shards) }

// Bounds returns a copy of the boundary array (len Shards-1, strictly
// ascending; shard i owns [bounds[i-1], bounds[i]) with implicit 0 and ∞ at
// the ends).
func (s *ShardedIndex) Bounds() []uint64 {
	b := s.rt.Load().bounds
	out := make([]uint64, len(b))
	copy(out, b)
	return out
}
