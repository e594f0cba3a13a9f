package harness

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"chameleon"
	"chameleon/internal/dataset"
	"chameleon/internal/report"
)

// Scaling measures concurrent durable inserts through group commit, parallel
// bulk load, and recovery (snapshot load and pipelined WAL replay). Its
// results are BENCH_scaling.json's, so the performance trajectory is
// tracked from run to run.
func Scaling(cfg Config) ([]*report.Table, any) {
	cfg = cfg.Defaults()
	out := &scalingReport{}
	return []*report.Table{
		scalingGroupCommit(cfg, out),
		scalingBulkLoad(cfg, out),
		scalingRecovery(cfg, out),
	}, out
}

// scalingReport is BENCH_scaling.json's results. Every metric carries its
// raw inputs so downstream tooling can recompute speedups.
type scalingReport struct {
	Metrics []scalingMetric `json:"metrics"`
}

type scalingMetric struct {
	Name      string  `json:"name"`
	Workers   int     `json:"workers"`
	Units     int     `json:"units"` // ops or keys measured
	Seconds   float64 `json:"seconds"`
	PerSecond float64 `json:"per_second"`
	Speedup   float64 `json:"speedup_vs_serial"`
	// Snapshot load only: file bytes per key and bytes allocated by the load.
	BytesPerKey float64 `json:"bytes_per_key,omitempty"`
	AllocBytes  uint64  `json:"alloc_bytes,omitempty"`
}

func (r *scalingReport) add(name string, workers, units int, d time.Duration) *scalingMetric {
	m := scalingMetric{
		Name: name, Workers: workers, Units: units,
		Seconds:   d.Seconds(),
		PerSecond: float64(units) / d.Seconds(),
		Speedup:   1,
	}
	for _, prev := range r.Metrics {
		if prev.Name == name && prev.Workers == 1 && prev.Seconds > 0 {
			m.Speedup = prev.Seconds / m.Seconds * float64(prev.Units) / float64(units)
		}
	}
	r.Metrics = append(r.Metrics, m)
	return &r.Metrics[len(r.Metrics)-1]
}

// scalingGroupCommit sweeps concurrent writer counts over the durable
// SyncEveryOp insert path. One writer is the serial per-op baseline (every op
// pays its own fsync); more writers share fsyncs through the group-commit
// queue while every op remains individually durable before its ack.
func scalingGroupCommit(cfg Config, out *scalingReport) *report.Table {
	ops := min(cfg.Ops, 16_000) // fsync-bound: keep the 1-writer row finite
	t := &report.Table{
		Title: fmt.Sprintf("Scaling — durable insert throughput vs concurrent writers (SyncEveryOp, %d ops)", ops),
		Cols:  []string{"writers", "inserts/s", "avg insert", "speedup"},
	}
	for _, writers := range []int{1, 2, 4, 8} {
		dir, err := os.MkdirTemp("", "chameleon-scale-*")
		if err != nil {
			panic(err)
		}
		d, err := chameleon.OpenDir(dir, chameleon.DirOptions{})
		if err != nil {
			panic(err)
		}
		per := ops / writers
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				base := uint64(w+1) << 32
				for i := 0; i < per; i++ {
					if err := d.Insert(base+uint64(i), uint64(i)); err != nil {
						panic(err)
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		d.Close()          //nolint:errcheck
		os.RemoveAll(dir)  //nolint:errcheck
		n := per * writers // per-writer rounding may shave a few ops
		m := out.add("durable_insert", writers, n, elapsed)
		t.AddRow(strconv.Itoa(writers),
			fmt.Sprintf("%.0f", m.PerSecond),
			report.Ns(elapsed/time.Duration(n)),
			fmt.Sprintf("%.2fx", m.Speedup))
	}
	return t
}

// scalingBulkLoad builds the FACE dataset with the serial (Workers: 1) and
// parallel (Workers: 0, one per CPU) MARL construction. The resulting trees
// are bit-identical; only wall clock differs.
func scalingBulkLoad(cfg Config, out *scalingReport) *report.Table {
	keys := dataset.Generate(dataset.FACE, cfg.N, cfg.Seed)
	t := &report.Table{
		Title: fmt.Sprintf("Scaling — parallel bulk load (FACE, %d keys)", len(keys)),
		Cols:  []string{"workers", "build time", "keys/s", "speedup"},
	}
	for _, workers := range []int{1, 0} {
		label := strconv.Itoa(workers)
		if workers == 0 {
			label = fmt.Sprintf("%d (auto)", runtime.GOMAXPROCS(0))
		}
		ix := chameleon.New(chameleon.Options{Workers: workers})
		runtime.GC() // keep collections of the previous tree out of the timed region
		start := time.Now()
		if err := ix.BulkLoad(keys, nil); err != nil {
			panic(err)
		}
		elapsed := time.Since(start)
		effective := workers
		if effective == 0 {
			effective = runtime.GOMAXPROCS(0)
		}
		m := out.add("bulk_load", effective, len(keys), elapsed)
		t.AddRow(label, fmt.Sprintf("%.1fms", elapsed.Seconds()*1000),
			fmt.Sprintf("%.0f", m.PerSecond), fmt.Sprintf("%.2fx", m.Speedup))
	}
	return t
}

// scalingRecovery measures the two recovery paths: the snapshot load (a
// sequential streamed decode whose leaves are restored in windows, serially
// (Workers: 1) and one per CPU (Workers: 0)) and pipelined WAL replay.
func scalingRecovery(cfg Config, out *scalingReport) *report.Table {
	t := &report.Table{
		Title: "Scaling — recovery: snapshot load and WAL replay",
		Cols:  []string{"path", "workers", "time", "per second", "notes"},
	}
	keys := dataset.Generate(dataset.FACE, cfg.N, cfg.Seed)
	src := chameleon.New(chameleon.Options{})
	if err := src.BulkLoad(keys, nil); err != nil {
		panic(err)
	}
	var snap bytes.Buffer
	if _, err := src.WriteTo(&snap); err != nil {
		panic(err)
	}
	for _, workers := range []int{1, 0} {
		effective := workers
		if effective == 0 {
			effective = runtime.GOMAXPROCS(0)
		}
		ix := chameleon.New(chameleon.Options{Workers: workers})
		var before, after runtime.MemStats
		runtime.GC() // keep collections of the source tree out of the timed region
		runtime.ReadMemStats(&before)
		start := time.Now()
		if _, err := ix.ReadFrom(bytes.NewReader(snap.Bytes())); err != nil {
			panic(err)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		m := out.add("snapshot_load", effective, len(keys), elapsed)
		m.BytesPerKey = float64(snap.Len()) / float64(len(keys))
		m.AllocBytes = after.TotalAlloc - before.TotalAlloc
		t.AddRow("snapshot load", strconv.Itoa(effective), fmt.Sprintf("%.1fms", elapsed.Seconds()*1000),
			fmt.Sprintf("%.0f keys/s", m.PerSecond),
			fmt.Sprintf("%.1f B/key, %s allocated", m.BytesPerKey, report.MB(int(m.AllocBytes))))
	}

	// WAL replay: write a pure log (no checkpoint), then time recovery, which
	// is dominated by frame parse + CRC (producer goroutine) and re-insertion
	// (consumer).
	dir, err := os.MkdirTemp("", "chameleon-scale-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir) //nolint:errcheck
	d, err := chameleon.OpenDir(dir, chameleon.DirOptions{Sync: chameleon.SyncNone})
	if err != nil {
		panic(err)
	}
	replayOps := min(cfg.Ops, 200_000)
	for i := 1; i <= replayOps; i++ {
		if err := d.Insert(uint64(i)<<10, uint64(i)); err != nil {
			panic(err)
		}
	}
	if err := d.Close(); err != nil {
		panic(err)
	}
	runtime.GC()
	start := time.Now()
	re, err := chameleon.OpenDir(dir, chameleon.DirOptions{Sync: chameleon.SyncNone})
	if err != nil {
		panic(err)
	}
	elapsed := time.Since(start)
	if re.Len() != replayOps {
		panic(fmt.Sprintf("scaling: WAL replay recovered %d of %d records", re.Len(), replayOps))
	}
	re.Close()                                        //nolint:errcheck
	m := out.add("wal_replay", 2, replayOps, elapsed) // 2: parse/verify + apply pipeline
	t.AddRow("wal replay (pipelined)", "2", fmt.Sprintf("%.1fms", elapsed.Seconds()*1000),
		fmt.Sprintf("%.0f rec/s", m.PerSecond), "-")
	return t
}
