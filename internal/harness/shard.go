package harness

import (
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"sync"
	"time"

	"chameleon"
	"chameleon/internal/report"
)

// Shard measures what range partitioning buys: aggregate durable-insert and
// mixed read/write throughput at 1/2/4/8 shards (see shardCounts). One shard
// funnels every write through a single WAL, commit queue, and apply mutex; N
// shards give disjoint key ranges their own pipelines.
//
// Two insert geometries are reported because they answer different
// questions. The writers-scale-with-shards sweep (one closed-loop writer per
// pipeline) is the scaling story: on a multi-core machine with a disk that
// accepts concurrent flushes, N shards run N WAL appends, N fsyncs, and N
// index applies truly in parallel. The fixed-pool sweep (8 writers no matter
// the shard count) exposes the countervailing force: a single shard batches
// all 8 writers into one fsync (group commit at its best), while sharding
// splits the pool into smaller batches — so on a device that serializes
// flushes, more shards can mean MORE fsyncs per acked op. The file's
// environment block carries GOMAXPROCS and the CPU count: a single-core
// container (or a device that serializes fsyncs) caps every speedup at ~1x
// no matter the layout, and the artifact must say so rather than flatter the
// layer.
//
// Its results are BENCH_shard.json's.
func Shard(cfg Config) ([]*report.Table, any) {
	cfg = cfg.Defaults()
	out := &shardReport{}
	return []*report.Table{
		shardInsertScaled(cfg, out),
		shardInsertSharedPool(cfg, out),
		shardMixed(cfg, out),
	}, out
}

// shardReport is BENCH_shard.json's results.
type shardReport struct {
	Metrics []shardMetric `json:"metrics"`
}

type shardMetric struct {
	Name      string  `json:"name"`
	Shards    int     `json:"shards"`
	Writers   int     `json:"writers"`
	Units     int     `json:"units"`
	Seconds   float64 `json:"seconds"`
	PerSecond float64 `json:"per_second"`
	// Speedup is throughput relative to the 1-shard row of the same metric —
	// the quantity the sharding layer exists to raise.
	Speedup float64 `json:"speedup_vs_1shard"`
}

func (r *shardReport) add(name string, shards, writers, units int, d time.Duration) shardMetric {
	m := shardMetric{
		Name: name, Shards: shards, Writers: writers, Units: units,
		Seconds:   d.Seconds(),
		PerSecond: float64(units) / d.Seconds(),
		Speedup:   1,
	}
	for _, prev := range r.Metrics {
		if prev.Name == name && prev.Shards == 1 && prev.PerSecond > 0 {
			m.Speedup = m.PerSecond / prev.PerSecond
		}
	}
	r.Metrics = append(r.Metrics, m)
	return m
}

// shardCounts is a sweep's shard counts: 1, 2, 4, 8, stopping early at toy
// sizes so that no shard past the second gets fewer than 500 of the sweep's
// ops (below that its throughput is noise).
func shardCounts(ops int) []int {
	var counts []int
	for s := 1; s <= 8 && (s <= 2 || ops/s >= 500); s *= 2 {
		counts = append(counts, s)
	}
	return counts
}

// shardKey spreads sequence numbers uniformly over the uint64 space (odd
// multiplier → bijection, so no duplicates), matching the equi-width
// boundaries an empty sharded directory starts with.
func shardKey(i uint64) uint64 { return i * 0x9e3779b97f4a7c15 }

// openSharded opens a fresh throwaway sharded index; shards == 1 is the
// unsharded baseline routed through the same code path.
func openSharded(shards int, opts chameleon.DirOptions) (*chameleon.ShardedIndex, string) {
	dir, err := os.MkdirTemp("", "chameleon-shard-*")
	if err != nil {
		panic(err)
	}
	s, err := chameleon.OpenShardedDir(dir, chameleon.ShardDirOptions{DirOptions: opts, Shards: shards})
	if err != nil {
		panic(err)
	}
	return s, dir
}

// runShardInsert drives `writers` closed-loop SyncEveryOp inserters with
// uniformly spread keys and returns the aggregate wall time for `total` ops.
func runShardInsert(s *chameleon.ShardedIndex, writers, total int, salt uint64) (int, time.Duration) {
	per := total / writers
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := shardKey(uint64(w*per+i+1) | salt)
				if err := s.Insert(k, uint64(i)); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
	return per * writers, time.Since(start)
}

// shardInsertScaled scales the writer pool with the shard count — one
// closed-loop writer per pipeline, the canonical partition-scaling geometry.
func shardInsertScaled(cfg Config, out *shardReport) *report.Table {
	ops := min(cfg.Ops, 4_000) // fsync-bound: every op pays a flush wait
	t := &report.Table{
		Title: fmt.Sprintf("Shard — durable insert, writers scale with shards (SyncEveryOp, %d ops)", ops),
		Cols:  []string{"shards", "writers", "inserts/s", "avg insert", "speedup vs 1 shard"},
	}
	for _, shards := range shardCounts(ops) {
		s, dir := openSharded(shards, chameleon.DirOptions{})
		n, elapsed := runShardInsert(s, shards, ops, 0)
		s.Close()         //nolint:errcheck
		os.RemoveAll(dir) //nolint:errcheck
		m := out.add("durable_insert", shards, shards, n, elapsed)
		t.AddRow(strconv.Itoa(shards), strconv.Itoa(shards),
			fmt.Sprintf("%.0f", m.PerSecond),
			report.Ns(elapsed/time.Duration(n)),
			fmt.Sprintf("%.2fx", m.Speedup))
	}
	return t
}

// shardInsertSharedPool holds the writer pool fixed at 8 across shard
// counts: the same offered load, repartitioned. This is where group-commit
// batching and sharding trade off — fewer writers per queue means smaller
// batches per fsync.
func shardInsertSharedPool(cfg Config, out *shardReport) *report.Table {
	ops := min(cfg.Ops, 8_000)
	const writers = 8
	t := &report.Table{
		Title: fmt.Sprintf("Shard — durable insert, fixed pool of %d writers (SyncEveryOp, %d ops)", writers, ops),
		Cols:  []string{"shards", "writers", "inserts/s", "avg insert", "speedup vs 1 shard"},
	}
	for _, shards := range shardCounts(ops) {
		s, dir := openSharded(shards, chameleon.DirOptions{})
		n, elapsed := runShardInsert(s, writers, ops, 1<<63)
		s.Close()         //nolint:errcheck
		os.RemoveAll(dir) //nolint:errcheck
		m := out.add("durable_insert_shared_pool", shards, writers, n, elapsed)
		t.AddRow(strconv.Itoa(shards), strconv.Itoa(writers),
			fmt.Sprintf("%.0f", m.PerSecond),
			report.Ns(elapsed/time.Duration(n)),
			fmt.Sprintf("%.2fx", m.Speedup))
	}
	return t
}

// shardMixed preloads each layout with the same uniform key set and runs a
// closed-loop 50/50 read-write mix, one worker per shard: lookups route
// lock-free to one shard, writes pay their shard's WAL. The read half keeps
// the router and the aggregate surfaces on the hot path alongside the commit
// queues.
func shardMixed(cfg Config, out *shardReport) *report.Table {
	ops := min(cfg.Ops, 8_000)
	preload := min(cfg.N, 200_000)
	t := &report.Table{
		Title: fmt.Sprintf("Shard — mixed 50/50 read-write, writers scale with shards (SyncEveryOp, %d ops, %d preloaded)", ops, preload),
		Cols:  []string{"shards", "writers", "ops/s", "speedup vs 1 shard"},
	}
	keys := make([]uint64, preload)
	for i := range keys {
		keys[i] = uint64(i+1) * (^uint64(0) / uint64(preload+2)) // sorted, uniform
	}
	for _, shards := range shardCounts(ops) {
		s, dir := openSharded(shards, chameleon.DirOptions{})
		if err := s.BulkLoad(keys, nil); err != nil {
			panic(err)
		}
		writers := shards
		per := ops / writers
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(cfg.Seed, uint64(w)))
				for i := 0; i < per; i++ {
					if i%2 == 0 {
						s.Lookup(keys[rng.IntN(len(keys))])
					} else {
						k := shardKey(uint64(w*per+i+1) | 1<<62)
						if err := s.Insert(k, uint64(i)); err != nil {
							panic(err)
						}
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		s.Close()         //nolint:errcheck
		os.RemoveAll(dir) //nolint:errcheck
		n := per * writers
		m := out.add("mixed_50_50", shards, writers, n, elapsed)
		t.AddRow(strconv.Itoa(shards), strconv.Itoa(writers),
			fmt.Sprintf("%.0f", m.PerSecond),
			fmt.Sprintf("%.2fx", m.Speedup))
	}
	return t
}
