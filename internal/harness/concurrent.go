package harness

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/dataset"
	"chameleon/internal/report"
)

// Concurrent throughput mode: unlike the paper's single-threaded replay
// experiments, this drives the index from many goroutines at once to measure
// what the reader-shared interval locks buy — aggregate lookup throughput as
// the reader count grows, with a configurable number of writers and the
// background retrainer churning throughout.

// ConcurrencyConfig scopes a concurrent-throughput run; zero values select
// the defaults below.
type ConcurrencyConfig struct {
	Readers  []int         // reader-count scaling curve (default 1,2,4,8)
	Writers  int           // concurrent writer goroutines (default 1)
	Duration time.Duration // measurement window per point (default 500ms)
}

// Defaults fills unset fields.
func (c ConcurrencyConfig) Defaults() ConcurrencyConfig {
	if len(c.Readers) == 0 {
		c.Readers = []int{1, 2, 4, 8}
	}
	if c.Writers < 0 {
		c.Writers = 0
	} else if c.Writers == 0 {
		c.Writers = 1
	}
	if c.Duration <= 0 {
		c.Duration = 500 * time.Millisecond
	}
	return c
}

// ConcThroughput runs the scaling curve on the FACE dataset: bulk load N
// keys, start the retrainer, then for each reader count run Conc.Duration of
// concurrent traffic and report aggregate and per-reader lookup throughput
// alongside the write rate the writers sustained.
func ConcThroughput(cfg Config) []*report.Table {
	cfg = cfg.Defaults()
	ccfg := cfg.Conc.Defaults()
	keys := dataset.Generate(dataset.FACE, cfg.N, cfg.Seed)
	ix, _ := Build("Chameleon", keys, cfg.Seed)
	defer stopRetraining(ix)
	startRetraining(ix, 10*time.Millisecond)

	t := &report.Table{
		Title: fmt.Sprintf("Concurrent throughput — %d keys, %d writer(s), retrainer on, %s per point",
			cfg.N, ccfg.Writers, ccfg.Duration),
		Cols: []string{"readers", "lookups/s", "per-reader/s", "writes/s", "speedup"},
	}
	// Fresh insert keys per curve point so writers never collide with earlier
	// points' inserts.
	nextKey := keys[len(keys)-1] + 1
	// Unreported warm-up: the first moments after a bulk load are dominated
	// by initial retrainer churn, which would deflate whichever curve point
	// runs first.
	runConcPoint(ix, keys, 1, ccfg.Writers, ccfg.Duration/2, &nextKey)
	var base float64
	for _, r := range ccfg.Readers {
		res := runConcPoint(ix, keys, r, ccfg.Writers, ccfg.Duration, &nextKey)
		if base == 0 {
			base = res.lookups
		}
		t.AddRow(strconv.Itoa(r), report.Mops(res.lookups), report.Mops(res.lookups/float64(max(1, r))),
			report.Mops(res.writes), report.F2(res.lookups/base))
	}
	return []*report.Table{t}
}

type concResult struct {
	lookups float64 // aggregate lookups per second
	writes  float64 // aggregate writes per second
}

// runConcPoint measures one point of the scaling curve: r readers probing
// present keys and w writers inserting disjoint fresh keys (deleting every
// other one back out) for the given duration. nextKey advances past all keys
// the point inserted.
func runConcPoint(ix interface {
	Lookup(uint64) (uint64, bool)
	Insert(uint64, uint64) error
	Delete(uint64) error
}, keys []uint64, r, w int, d time.Duration, nextKey *uint64) concResult {
	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		lookups  atomic.Int64
		writes   atomic.Int64
		maxWrite atomic.Uint64
	)
	maxWrite.Store(*nextKey)
	for g := 0; g < r; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Distinct start offsets and a stride coprime to common key-set
			// sizes keep readers from marching in lockstep.
			i := g * len(keys) / max(1, r)
			n := int64(0)
			for !stop.Load() {
				ix.Lookup(keys[i%len(keys)])
				i += 7
				n++
			}
			lookups.Add(n)
		}(g)
	}
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Writer g owns keys congruent to g modulo w.
			k := *nextKey + uint64(g)
			step := uint64(w)
			n := int64(0)
			for !stop.Load() {
				if ix.Insert(k, k) == nil {
					n++
				}
				if (k/step)%2 == 1 {
					if ix.Delete(k) == nil {
						n++
					}
				}
				k += step
				for {
					cur := maxWrite.Load()
					if k <= cur || maxWrite.CompareAndSwap(cur, k) {
						break
					}
				}
			}
			writes.Add(n)
		}(g)
	}
	start := time.Now()
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	*nextKey = maxWrite.Load() + uint64(max(1, w))
	return concResult{
		lookups: float64(lookups.Load()) / elapsed,
		writes:  float64(writes.Load()) / elapsed,
	}
}
