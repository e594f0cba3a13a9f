package harness

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"chameleon"
	"chameleon/internal/dataset"
	"chameleon/internal/report"
)

// Read measures the optimistic read path (DESIGN.md §13) against a raw Go
// map as the no-structure floor. The local sweep crosses
// {optimistic, map} × {1, 4 readers} × {0, 2 writers} × {uniform,
// hot-16 keys} and reports per-op p50/p99/p999 plus the retry-exhaustion
// fallback count. Its results are BENCH_read.json's. The remote read path
// (GET coalescing over a real socket) is the repo benchmark's remote_get
// workload (bench/).
func Read(cfg Config) ([]*report.Table, any) {
	cfg = cfg.Defaults()
	dur := cfg.Conc.Defaults().Duration
	keys := dataset.Generate(dataset.FACE, cfg.N, cfg.Seed)

	out := &readReport{}
	t := &report.Table{
		Title: fmt.Sprintf("read — lookup path comparison (%s per point, N=%d)", dur, cfg.N),
		Cols:  []string{"mode", "dist", "readers", "writers", "ops/s", "p50", "p99", "p999", "fallbacks"},
	}

	for _, mode := range []string{"optimistic", "map"} {
		// One build per mode: the sweep points reuse the index (rebuilding
		// per point would cost a full DARE training run each and measure
		// nothing different — the read path keeps no cross-point state).
		tgt := buildReadTarget(keys, mode)
		for _, dist := range []string{"uniform", "hot"} {
			for _, readers := range []int{1, 4} {
				for _, writers := range []int{0, 2} {
					if mode == "map" && writers > 0 {
						// The map floor is a plain unsynchronized map; it
						// has no writer story and exists only to price the
						// index structure itself.
						continue
					}
					row := runReadPoint(tgt, keys, mode, dist, readers, writers, dur, cfg.Seed)
					out.Rows = append(out.Rows, row)
					t.AddRow(
						row.Mode, row.Dist, fmt.Sprint(row.Readers), fmt.Sprint(row.Writers),
						report.F2(row.OpsPerSec),
						report.NsF(row.NsP50), report.NsF(row.NsP99), report.NsF(row.NsP999),
						fmt.Sprint(row.Fallbacks),
					)
				}
			}
		}
	}

	return []*report.Table{t}, out
}

// readReport is BENCH_read.json's results.
type readReport struct {
	Rows []readRow `json:"rows"`
}

type readRow struct {
	Mode      string  `json:"mode"` // optimistic | map
	Dist      string  `json:"dist"` // uniform | hot
	Readers   int     `json:"readers"`
	Writers   int     `json:"writers"`
	Ops       uint64  `json:"ops"`
	Seconds   float64 `json:"seconds"`
	OpsPerSec float64 `json:"ops_per_sec"`
	NsP50     float64 `json:"ns_p50"`
	NsP99     float64 `json:"ns_p99"`
	NsP999    float64 `json:"ns_p999"`
	Fallbacks uint64  `json:"fallbacks"`
}

// readTarget is one mode's built lookup surface, shared across its sweep
// points.
type readTarget struct {
	lookup    func(k uint64) (uint64, bool)
	write     func(k uint64) // nil for the map floor
	fallbacks func() uint64
}

func buildReadTarget(keys []uint64, mode string) readTarget {
	if mode == "map" {
		m := make(map[uint64]uint64, len(keys))
		for _, k := range keys {
			m[k] = k
		}
		return readTarget{
			lookup:    func(k uint64) (uint64, bool) { v, ok := m[k]; return v, ok },
			fallbacks: func() uint64 { return 0 },
		}
	}
	ix := chameleon.New(chameleon.Options{Seed: 1})
	if err := ix.BulkLoad(keys, nil); err != nil {
		panic(err)
	}
	return readTarget{
		lookup: ix.Lookup,
		write: func(k uint64) {
			if ix.Insert(k, k) == nil {
				ix.Delete(k) //nolint:errcheck
			}
		},
		fallbacks: ix.ReadFallbacks,
	}
}

// runReadPoint drives one local sweep point. Readers sample every 16th
// lookup's latency (timing every op would measure the clock, not the
// index); writers churn a disjoint fresh-key range so seqlock versions
// actually move under the readers.
func runReadPoint(tgt readTarget, keys []uint64, mode, dist string, readers, writers int, dur time.Duration, seed uint64) readRow {
	lookup, write, fallbacks := tgt.lookup, tgt.write, tgt.fallbacks

	// Probe set: uniform draws over the whole key set, or 16 hot keys.
	probe := keys
	if dist == "hot" {
		hot := make([]uint64, 16)
		for i := range hot {
			hot[i] = keys[(i*len(keys))/len(hot)+7]
		}
		probe = hot
	}

	fb0 := fallbacks()
	stop := make(chan struct{})
	time.AfterFunc(dur, func() { close(stop) })
	var wg sync.WaitGroup
	var ops atomic.Uint64
	lats := make([][]time.Duration, readers)

	if write != nil {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := splitmix(seed ^ (uint64(w)+1)*0x9E3779B9)
				base := uint64(0xC0FFEE)<<32 | uint64(w)<<24
				for {
					select {
					case <-stop:
						return
					default:
					}
					write(base + rng()%(1<<20))
				}
			}(w)
		}
	}

	start := time.Now()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := splitmix(seed + uint64(r)*0x9E37)
			mine := make([]time.Duration, 0, 1<<14)
			var n uint64
			for {
				select {
				case <-stop:
					lats[r] = mine
					ops.Add(n)
					return
				default:
				}
				k := probe[rng()%uint64(len(probe))]
				if n&15 == 0 {
					t0 := time.Now()
					lookup(k)
					mine = append(mine, time.Since(t0))
				} else {
					lookup(k)
				}
				n++
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	slices.Sort(all)
	return readRow{
		Mode: mode, Dist: dist, Readers: readers, Writers: writers,
		Ops: ops.Load(), Seconds: elapsed.Seconds(),
		OpsPerSec: float64(ops.Load()) / elapsed.Seconds(),
		NsP50:     float64(report.Percentile(all, 0.50)),
		NsP99:     float64(report.Percentile(all, 0.99)),
		NsP999:    float64(report.Percentile(all, 0.999)),
		Fallbacks: fallbacks() - fb0,
	}
}

// splitmix returns a tiny deterministic generator (splitmix64) so the load
// generator needs no shared state or locking.
func splitmix(seed uint64) func() uint64 {
	s := seed
	return func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}
