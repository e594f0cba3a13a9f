package harness

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"chameleon"
	"chameleon/internal/dataset"
	"chameleon/internal/report"
)

// Durability benchmarks the crash-safe layer (not a paper figure — the paper
// evaluates an in-memory index; this quantifies what the WAL + checkpoint
// stack adds on top). Two questions:
//
//  1. What does each sync policy cost on the insert path? Acked-write
//     durability (fsync per op) vs group commit vs OS-flushing vs the
//     volatile in-memory index as the ceiling.
//  2. What does recovery cost as the WAL grows, and how does a checkpoint
//     reset it? Recovery replays the log onto the last snapshot, so its
//     latency is linear in the records since the last checkpoint.
func Durability(cfg Config) []*report.Table {
	cfg = cfg.Defaults()
	keys := dataset.Generate(dataset.FACE, cfg.N, cfg.Seed)
	base, rest := splitShuffled(keys, len(keys)/2, cfg.Seed^0xD0)

	return []*report.Table{
		durabilityThroughput(cfg, base, rest),
		durabilityRecovery(cfg, base, rest),
	}
}

func durabilityThroughput(cfg Config, base, rest []uint64) *report.Table {
	// fsync-per-op is orders of magnitude slower than the in-memory insert;
	// keep the op count small enough that the every-op row finishes.
	n := min(len(rest), min(cfg.Ops, 5_000))
	burst := rest[:n]
	t := &report.Table{
		Title: fmt.Sprintf("Durability — insert throughput vs sync policy (FACE, bulk %d, insert %d)",
			len(base), n),
		Cols: []string{"policy", "durability window", "inserts/s", "avg insert"},
	}
	row := func(name, window string, run func() time.Duration) {
		d := run()
		t.AddRow(name, window,
			fmt.Sprintf("%.0f", float64(n)/d.Seconds()),
			report.Ns(d/time.Duration(n)))
	}
	policies := []struct {
		name   string
		window string
		sync   chameleon.SyncPolicy
	}{
		{"wal every-op", "zero acked loss", chameleon.SyncEveryOp},
		{"wal interval 2ms", "≤2ms of acked writes", chameleon.SyncInterval},
		{"wal none", "since last checkpoint", chameleon.SyncNone},
	}
	for _, p := range policies {
		dir, err := os.MkdirTemp("", "chameleon-dur-*")
		if err != nil {
			panic(err)
		}
		d, err := chameleon.OpenDir(dir, chameleon.DirOptions{
			Options:   chameleon.Options{Seed: cfg.Seed},
			Sync:      p.sync,
			SyncEvery: 2 * time.Millisecond,
		})
		if err != nil {
			panic(err)
		}
		if err := d.BulkLoad(base, nil); err != nil {
			panic(err)
		}
		row(p.name, p.window, func() time.Duration {
			start := time.Now()
			for _, k := range burst {
				d.Insert(k, k) //nolint:errcheck
			}
			return time.Since(start)
		})
		d.Close()         //nolint:errcheck
		os.RemoveAll(dir) //nolint:errcheck
	}
	// Volatile ceiling: the plain in-memory index with no logging at all.
	ix := chameleon.New(chameleon.Options{Seed: cfg.Seed})
	if err := ix.BulkLoad(base, nil); err != nil {
		panic(err)
	}
	row("volatile (no wal)", "none — lost on crash", func() time.Duration {
		start := time.Now()
		for _, k := range burst {
			ix.Insert(k, k) //nolint:errcheck
		}
		return time.Since(start)
	})
	return t
}

func durabilityRecovery(cfg Config, base, rest []uint64) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Durability — recovery time vs WAL length (FACE, snapshot %d keys)", len(base)),
		Cols:  []string{"wal records", "wal bytes", "recovery", "keys recovered"},
	}
	dir, err := os.MkdirTemp("", "chameleon-rec-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir) //nolint:errcheck
	opts := chameleon.DirOptions{
		Options: chameleon.Options{Seed: cfg.Seed},
		Sync:    chameleon.SyncNone, // isolate replay cost from fsync cost
	}
	d, err := chameleon.OpenDir(dir, opts)
	if err != nil {
		panic(err)
	}
	if err := d.BulkLoad(base, nil); err != nil {
		panic(err)
	}

	batch := min(len(rest)/4, min(cfg.Ops/4, 50_000))
	written := 0
	measure := func(label string) {
		walBytes := d.WALSize()
		if err := d.Close(); err != nil {
			panic(err)
		}
		start := time.Now()
		d, err = chameleon.OpenDir(dir, opts)
		if err != nil {
			panic(err)
		}
		t.AddRow(label, strconv.Itoa(int(walBytes)),
			fmt.Sprintf("%.1fms", float64(time.Since(start).Microseconds())/1000),
			strconv.Itoa(d.Len()))
	}
	measure("0 (post-checkpoint)")
	for round := 1; round <= 3; round++ {
		for _, k := range rest[written : written+batch] {
			d.Insert(k, k) //nolint:errcheck
		}
		written += batch
		measure(strconv.Itoa(written))
	}
	if err := d.Checkpoint(); err != nil {
		panic(err)
	}
	measure(fmt.Sprintf("0 after checkpoint (%d keys)", d.Len()))
	d.Close() //nolint:errcheck
	return t
}
