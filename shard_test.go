package chameleon

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// shardOpts is the default sharded layout with the given shard count.
func shardOpts(shards int) ShardDirOptions {
	return ShardDirOptions{Shards: shards}
}

func TestShardedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := shardOpts(4)
	opts.boundaries = []uint64{1000, 2000, 3000}
	s, err := OpenShardedDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Keys landing in every shard, including each boundary key (which must
	// route to the upper shard) and the extremes of the key space.
	keys := []uint64{0, 5, 999, 1000, 1001, 1999, 2000, 2500, 3000, 3500, ^uint64(0)}
	for i, k := range keys {
		if err := s.Insert(k, uint64(i)+100); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if err := s.Delete(2500); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if s.Len() != len(keys)-1 {
		t.Fatalf("Len = %d, want %d", s.Len(), len(keys)-1)
	}
	for i, k := range keys {
		v, ok := s.Lookup(k)
		if k == 2500 {
			if ok {
				t.Fatalf("deleted key %d still present", k)
			}
			continue
		}
		if !ok || v != uint64(i)+100 {
			t.Fatalf("Lookup(%d) = %d,%v want %d,true", k, v, ok, uint64(i)+100)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !IsShardedDir(dir) {
		t.Fatal("IsShardedDir = false after sharded open")
	}

	// Reopen asking for a different layout: the manifest must win — the data
	// on disk is partitioned by the stored boundaries, not the new request.
	re, err := OpenShardedDir(dir, shardOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close() //nolint:errcheck
	if re.Shards() != 4 {
		t.Fatalf("reopen Shards = %d, manifest says 4", re.Shards())
	}
	if got := re.Bounds(); len(got) != 3 || got[0] != 1000 || got[1] != 2000 || got[2] != 3000 {
		t.Fatalf("reopen Bounds = %v, want [1000 2000 3000]", got)
	}
	for i, k := range keys {
		if k == 2500 {
			continue
		}
		if v, ok := re.Lookup(k); !ok || v != uint64(i)+100 {
			t.Fatalf("reopen Lookup(%d) = %d,%v", k, v, ok)
		}
	}
	// Global Range must be ascending across shard boundaries.
	var got []uint64
	re.Range(0, ^uint64(0), func(k, _ uint64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != len(keys)-1 {
		t.Fatalf("Range yielded %d keys, want %d", len(got), len(keys)-1)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("Range not ascending across shards: %v", got)
	}
}

// TestShardRouterBoundaries pins the routing contract: a boundary key belongs
// to the upper shard, keys below the first boundary to shard 0, and the
// maximum key always to the last shard.
func TestShardRouterBoundaries(t *testing.T) {
	r := newShardRouter([]uint64{100, 200, 300})
	cases := []struct {
		key  uint64
		want int
	}{
		{0, 0}, {99, 0},
		{100, 1}, {150, 1}, {199, 1},
		{200, 2}, {299, 2},
		{300, 3}, {1 << 40, 3}, {^uint64(0), 3},
	}
	for _, c := range cases {
		if got := r.route(c.key); got != c.want {
			t.Errorf("route(%d) = %d, want %d", c.key, got, c.want)
		}
	}
}

// BenchmarkShardRouter measures the binary-search router quoted in the
// shardRouter doc comment over two boundary shapes: equi-width, and
// equi-depth over locally skewed clusters (the shape this system actually
// produces).
func BenchmarkShardRouter(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{4, 16, 64} {
		uniform := make([]uint64, n-1)
		for i := range uniform {
			uniform[i] = uint64(i+1) * (^uint64(0) / uint64(n))
		}
		// Skewed: boundaries equi-depth over two dense clusters at the
		// extremes of the key space, probed by keys from those clusters.
		clustered := make([]uint64, 0, 4096)
		for i := 0; i < 2048; i++ {
			clustered = append(clustered, uint64(i)*64)
			clustered = append(clustered, ^uint64(0)-uint64(i)*64)
		}
		sort.Slice(clustered, func(i, j int) bool { return clustered[i] < clustered[j] })
		skewed := equiDepthBounds(clustered, n)

		keys := make([]uint64, 1024)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		skewKeys := make([]uint64, 1024)
		for i := range skewKeys {
			skewKeys[i] = clustered[rng.Intn(len(clustered))]
		}
		for _, bench := range []struct {
			shape  string
			r      *shardRouter
			probes []uint64
		}{
			{"uniform", newShardRouter(uniform), keys},
			{"skewed", newShardRouter(skewed), skewKeys},
		} {
			b.Run(fmt.Sprintf("binary/%s/%dshards", bench.shape, n), func(b *testing.B) {
				var sink int
				for i := 0; i < b.N; i++ {
					sink += bench.r.route(bench.probes[i&1023])
				}
				_ = sink
			})
		}
	}
}

// TestStitchRangeEarlyStop pins the cross-shard early-stop contract through
// an injected scan: once fn returns false, no later shard may be visited —
// not even to be asked for zero keys.
func TestStitchRangeEarlyStop(t *testing.T) {
	rt := newShardRouter([]uint64{100, 200, 300}) // 4 shards
	shardKeys := [][]uint64{{10, 20}, {110, 120}, {210, 220}, {310, 320}}
	var visited []int
	scan := func(i int, fn func(k, v uint64) bool) {
		visited = append(visited, i)
		for _, k := range shardKeys[i] {
			if !fn(k, k) {
				return
			}
		}
	}

	// Stop after 3 keys: the scan must visit shards 0 and 1 and never touch 2
	// or 3.
	var got []uint64
	stitchRange(rt, 0, ^uint64(0), func(k, _ uint64) bool {
		got = append(got, k)
		return len(got) < 3
	}, scan)
	if want := []uint64{10, 20, 110}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	if fmt.Sprint(visited) != fmt.Sprint([]int{0, 1}) {
		t.Fatalf("visited shards %v, want [0 1]", visited)
	}

	// Stop on the very first key: only shard 0 is visited.
	visited = nil
	stitchRange(rt, 0, ^uint64(0), func(_, _ uint64) bool { return false }, scan)
	if fmt.Sprint(visited) != fmt.Sprint([]int{0}) {
		t.Fatalf("visited shards %v, want [0]", visited)
	}

	// lo > hi visits nothing.
	visited = nil
	stitchRange(rt, 10, 5, func(_, _ uint64) bool { return true }, scan)
	if len(visited) != 0 {
		t.Fatalf("lo > hi visited %v", visited)
	}

	// A sub-range confined to one middle shard visits exactly that shard.
	visited = nil
	stitchRange(rt, 110, 120, func(_, _ uint64) bool { return true }, scan)
	if fmt.Sprint(visited) != fmt.Sprint([]int{1}) {
		t.Fatalf("visited shards %v, want [1]", visited)
	}
}

// TestShardedRangeProperty checks the stitched Range against a single-index
// oracle while concurrent writers mutate a disjoint part of the key space:
// every stable key in [lo, hi] appears exactly once in ascending order, and
// anything else the scan surfaces must belong to the writers' key space.
func TestShardedRangeProperty(t *testing.T) {
	dir := t.TempDir()
	opts := shardOpts(4)
	opts.boundaries = []uint64{4000, 8000, 12000}
	s, err := OpenShardedDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck

	// Stable keys: even numbers, loaded before any writer starts. Volatile
	// keys: odd numbers, inserted/deleted concurrently.
	var stable []uint64
	for k := uint64(0); k < 16000; k += 2 {
		stable = append(stable, k)
	}
	if err := s.BulkLoad(stable, nil); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(8000))*2 + 1 // odd → never stable
				if rng.Intn(2) == 0 {
					s.Insert(k, k) //nolint:errcheck
				} else {
					s.Delete(k) //nolint:errcheck
				}
			}
		}(w)
	}

	oracle := func(lo, hi uint64) []uint64 {
		var want []uint64
		for _, k := range stable {
			if k >= lo && k <= hi {
				want = append(want, k)
			}
		}
		return want
	}
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 50; iter++ {
		lo := uint64(rng.Intn(16000))
		hi := lo + uint64(rng.Intn(8000))
		var got []uint64
		last := uint64(0)
		first := true
		s.Range(lo, hi, func(k, _ uint64) bool {
			if k < lo || k > hi {
				t.Errorf("Range(%d,%d) leaked key %d", lo, hi, k)
			}
			if !first && k <= last {
				t.Errorf("Range(%d,%d) not strictly ascending: %d after %d", lo, hi, k, last)
			}
			first, last = false, k
			if k%2 == 0 {
				got = append(got, k)
			}
			return true
		})
		if want := oracle(lo, hi); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Range(%d,%d) stable keys = %d items, want %d", lo, hi, len(got), len(want))
		}
	}
	close(stop)
	wg.Wait()
}

// TestShardedBulkLoadRebalances: BulkLoad re-selects equi-depth boundaries
// over the new data, so heavily skewed keys still spread across shards
// instead of piling into whichever shard owned the hot range before.
func TestShardedBulkLoadRebalances(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShardedDir(dir, shardOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck

	// All keys inside one equi-width quarter of the key space: without
	// re-selection three shards would be empty.
	const n = 4000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 3
	}
	if err := s.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for i, sh := range s.shards {
		if l := sh.Len(); l < n/8 || l > n/2 {
			t.Fatalf("shard %d holds %d keys after equi-depth reload (want ≈%d)", i, l, n/4)
		}
	}
	// The new layout must be durable: reopen and spot-check.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenShardedDir(dir, shardOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close() //nolint:errcheck
	for _, k := range []uint64{0, 3, 3 * (n - 1), 3 * (n / 2)} {
		if v, ok := re.Lookup(k); !ok || v != k {
			t.Fatalf("reopen Lookup(%d) = %d,%v", k, v, ok)
		}
	}
}

// TestShardedHealthAggregation: counters sum across shards, the state is the
// worst across shards, and a fully closed sharded index reports closed.
func TestShardedHealthAggregation(t *testing.T) {
	dir := t.TempDir()
	opts := shardOpts(2)
	opts.boundaries = []uint64{1000}
	s, err := OpenShardedDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 10; k++ {
		if err := s.Insert(k, k); err != nil { // all land in shard 0
			t.Fatal(err)
		}
		if err := s.Insert(100_000+k, k); err != nil { // all land in shard 1
			t.Fatal(err)
		}
	}
	h := s.Health()
	if h.State != HealthOK {
		t.Fatalf("State = %v, want ok", h.State)
	}
	per := s.ShardHealths()
	if len(per) != 2 {
		t.Fatalf("ShardHealths len = %d", len(per))
	}
	if want := per[0].BatchedOps + per[1].BatchedOps; h.BatchedOps != want {
		t.Fatalf("aggregate BatchedOps = %d, want %d", h.BatchedOps, want)
	}
	if h.BatchedOps != 20 {
		t.Fatalf("BatchedOps = %d, want 20", h.BatchedOps)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Health().State; got != HealthClosed {
		t.Fatalf("State after Close = %v, want closed", got)
	}
	if err := s.Err(); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("Err after Close = %v, want ErrIndexClosed", err)
	}
}

// TestShardedSoak hammers a sharded index from concurrent writers with an
// exists-iff-acked oracle and one scatter-gather checkpoint mid-run, then
// reopens and verifies every acknowledged write survived. CI runs it under
// -race; the shards share nothing, so any cross-shard data race is a bug in
// the router or the aggregation paths.
func TestShardedSoak(t *testing.T) {
	dir := t.TempDir()
	opts := shardOpts(4)
	opts.Sync = SyncNone // durability comes from Close; the soak is about races
	s, err := OpenShardedDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers = 8
		perW    = 300
	)
	ackedVals := make([]map[uint64]uint64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		ackedVals[w] = make(map[uint64]uint64, perW)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 31))
			for i := 0; i < perW; i++ {
				// Spread each writer across the whole key space so every
				// shard sees every writer.
				k := rng.Uint64()&^uint64(writers-1) | uint64(w) // low bits = writer id → disjoint
				v := uint64(i) + 1
				if err := s.Insert(k, v); err == nil {
					ackedVals[w][k] = v
				}
				if i%50 == 25 {
					s.Range(k, k+1<<40, func(_, _ uint64) bool { return true })
				}
			}
		}(w)
	}
	// One mid-run scatter-gather checkpoint racing the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.Checkpoint(); err != nil {
			t.Errorf("mid-run Checkpoint: %v", err)
		}
	}()
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenShardedDir(dir, shardOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close() //nolint:errcheck
	total := 0
	for w := 0; w < writers; w++ {
		total += len(ackedVals[w])
		for k, v := range ackedVals[w] {
			got, ok := re.Lookup(k)
			if !ok || got != v {
				t.Fatalf("writer %d: acked key %d = %d,%v want %d,true", w, k, got, ok, v)
			}
		}
	}
	if re.Len() != total {
		t.Fatalf("reopen Len = %d, acked %d (exists-iff-acked violated)", re.Len(), total)
	}
}

// TestShardedBoundsValidation: malformed explicit boundaries are rejected
// before any shard directory is created.
func TestShardedBoundsValidation(t *testing.T) {
	dir := t.TempDir()
	opts := shardOpts(4)
	opts.boundaries = []uint64{100, 100, 300} // not strictly ascending
	if _, err := OpenShardedDir(dir, opts); err == nil {
		t.Fatal("non-ascending boundaries accepted")
	}
	opts.boundaries = []uint64{100} // wrong count
	if _, err := OpenShardedDir(dir, opts); err == nil {
		t.Fatal("wrong boundary count accepted")
	}
	// The failed opens must not have committed a layout.
	if IsShardedDir(dir) {
		t.Fatal("manifest written despite rejected boundaries")
	}
}

// TestShardedManifestCorruption: a corrupt manifest must fail the open loudly
// rather than silently re-initializing over existing shard data.
func TestShardedManifestCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShardedDir(dir, shardOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(7, 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, shardManifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShardedDir(dir, shardOpts(2)); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}
