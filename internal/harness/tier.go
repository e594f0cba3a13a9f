package harness

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"chameleon"
	"chameleon/internal/report"
)

// Tier measures what the tiered disk-resident layer buys and costs. Four
// questions:
//
//  1. How does flush latency scale with the frozen delta's size? A flush
//     writes exactly the memtable + dead set as one L0 segment, so its cost
//     should be linear in the delta — the property that replaces the legacy
//     checkpoint's rewrite-everything cliff.
//  2. What does a cold read cost? After a flush the memtable is empty and
//     every lookup is a segment read: learned-model rank prediction, one
//     bounded pread, binary search within ε. Reported as p50/p99 alongside
//     the mean rank error the model actually achieved.
//  3. What is the write amplification of checkpoint-every-K versus
//     flush-every-K on the same insert stream? The legacy checkpoint
//     serializes the whole index each time (bytes written grow
//     quadratically in rounds); flushes write each entry roughly once.
//  4. What does the tier write in the long run, compaction included? Five
//     rounds never reach steady state, so the last sweep doubles a base 128
//     memtables large and reports flush + compaction bytes per payload byte
//     — the tier's write amplification — with the most runs a read ever had
//     to consult and what a cold get cost with that ladder in place.
//
// Emits BENCH_tier.json (override the path with CHAMELEON_BENCH_JSON; "off"
// skips the artifact).
func Tier(cfg Config) []*report.Table {
	cfg = cfg.Defaults()
	out := &tierReport{
		Experiment: "tier",
		N:          cfg.N,
		Ops:        cfg.Ops,
		Seed:       cfg.Seed,
	}
	tables := []*report.Table{
		tierFlushLatency(cfg, out),
		tierColdGet(cfg, out),
		tierWriteAmp(cfg, out),
		tierSteadyState(cfg, out),
	}
	path := os.Getenv("CHAMELEON_BENCH_JSON")
	if path == "" {
		path = "BENCH_tier.json"
	}
	if path != "off" {
		if err := report.SaveJSON(path, out); err != nil {
			fmt.Fprintf(os.Stderr, "tier: saving %s: %v\n", path, err)
		}
	}
	return tables
}

// tierReport is the BENCH_tier.json schema.
type tierReport struct {
	Experiment string       `json:"experiment"`
	N          int          `json:"n"`
	Ops        int          `json:"ops"`
	Seed       uint64       `json:"seed"`
	Metrics    []tierMetric `json:"metrics"`
}

type tierMetric struct {
	Name    string  `json:"name"`
	Entries int     `json:"entries,omitempty"`
	Seconds float64 `json:"seconds,omitempty"`
	Bytes   int64   `json:"bytes,omitempty"`
	P50Ns   float64 `json:"p50_ns,omitempty"`
	P99Ns   float64 `json:"p99_ns,omitempty"`
	MeanNs  float64 `json:"mean_ns,omitempty"`
	// NsPerEntry is the flush-latency slope check: roughly constant across
	// delta sizes means the cost is linear in the delta, not the total.
	NsPerEntry float64 `json:"ns_per_entry,omitempty"`
	// WriteAmp is bytes written to disk per logical entry byte.
	WriteAmp float64 `json:"write_amp,omitempty"`
	// RankErr is the mean learned-model rank error over the cold reads.
	RankErr float64 `json:"rank_err,omitempty"`
	// Runs is the most sorted runs (L0 files, deltas, base) published at once.
	Runs int `json:"runs,omitempty"`
}

func openTier(opts chameleon.DirOptions) (*chameleon.DurableIndex, string) {
	dir, err := os.MkdirTemp("", "chameleon-tier-*")
	if err != nil {
		panic(err)
	}
	opts.Tiered = true
	if opts.MemtableBytes == 0 {
		opts.MemtableBytes = 1 << 30 // flushes are explicit in these sweeps
	}
	d, err := chameleon.OpenDir(dir, opts)
	if err != nil {
		panic(err)
	}
	return d, dir
}

// tierKey spreads sequence numbers uniformly over the key space (odd
// multiplier → bijection, no duplicates).
func tierKey(i uint64) uint64 { return i * 0x9e3779b97f4a7c15 }

// tierFlushLatency freezes and flushes deltas of doubling size from the same
// handle and reports wall time, segment bytes, and the per-entry slope. The
// acceptance property is that ns/entry stays roughly flat while the
// accumulated on-disk total keeps growing — flush cost tracks the delta,
// not the database.
func tierFlushLatency(cfg Config, out *tierReport) *report.Table {
	t := &report.Table{
		Title: "Tier — flush latency vs delta size (explicit flush, SyncNone WAL)",
		Cols:  []string{"delta entries", "flush", "segment MB", "ns/entry", "disk total MB"},
	}
	d, dir := openTier(chameleon.DirOptions{
		Options: chameleon.Options{Seed: cfg.Seed},
		Sync:    chameleon.SyncNone, // isolate flush cost from per-op fsyncs
	})
	defer os.RemoveAll(dir) //nolint:errcheck
	defer d.Close()         //nolint:errcheck

	next := uint64(1)
	base := min(cfg.Ops, 10_000)
	for _, delta := range []int{base / 4, base / 2, base, base * 2} {
		for i := 0; i < delta; i++ {
			if err := d.Insert(tierKey(next), next); err != nil {
				panic(err)
			}
			next++
		}
		before := d.Health().Tier.FlushedBytes
		start := time.Now()
		if err := d.Flush(); err != nil {
			panic(err)
		}
		elapsed := time.Since(start)
		h := d.Health().Tier
		segMB := float64(h.FlushedBytes-before) / (1 << 20)
		m := tierMetric{
			Name:       "flush_latency",
			Entries:    delta,
			Seconds:    elapsed.Seconds(),
			Bytes:      int64(h.FlushedBytes - before),
			NsPerEntry: float64(elapsed.Nanoseconds()) / float64(delta),
		}
		out.Metrics = append(out.Metrics, m)
		t.AddRow(itoa(delta),
			fmt.Sprintf("%.2fms", float64(elapsed.Microseconds())/1000),
			fmt.Sprintf("%.2f", segMB),
			fmt.Sprintf("%.0f", m.NsPerEntry),
			fmt.Sprintf("%.2f", float64(h.SegmentBytes)/(1<<20)))
	}
	return t
}

// tierColdGet bulk loads, flushes everything into segments, and measures
// lookup latency with an empty memtable: every probe is a learned-model
// prediction plus a bounded segment read.
func tierColdGet(cfg Config, out *tierReport) *report.Table {
	t := &report.Table{
		Title: "Tier — cold get latency (all keys segment-resident)",
		Cols:  []string{"segments", "probes", "p50", "p99", "mean", "model rank err"},
	}
	d, dir := openTier(chameleon.DirOptions{
		Options: chameleon.Options{Seed: cfg.Seed},
		Sync:    chameleon.SyncNone,
	})
	defer os.RemoveAll(dir) //nolint:errcheck
	defer d.Close()         //nolint:errcheck

	n := min(cfg.N, 400_000)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i+1) * (^uint64(0) / uint64(n+2))
	}
	if err := d.BulkLoad(keys, nil); err != nil {
		panic(err)
	}
	// Several overlapping segments, so reads pay realistic newest-to-oldest
	// pruning rather than a single-segment best case.
	for round := 0; round < 3; round++ {
		for i := 0; i < n/20; i++ {
			if err := d.Insert(tierKey(uint64(round*n+i+1))|1, uint64(i)); err != nil {
				panic(err)
			}
		}
		if err := d.Flush(); err != nil {
			panic(err)
		}
	}

	probes := min(cfg.Ops, 30_000)
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xC01D))
	samples := make([]float64, 0, probes)
	for i := 0; i < probes; i++ {
		k := keys[rng.IntN(len(keys))]
		t0 := time.Now()
		if _, ok := d.Lookup(k); !ok {
			panic("cold probe missed a loaded key")
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds()))
	}
	sort.Float64s(samples)
	var sum float64
	for _, s := range samples {
		sum += s
	}
	h := d.Health().Tier
	var rankErr float64
	if h.ColdReads > 0 {
		rankErr = float64(h.ColdRankErrorSum) / float64(h.ColdReads)
	}
	m := tierMetric{
		Name:    "cold_get",
		Entries: probes,
		P50Ns:   samples[len(samples)/2],
		P99Ns:   samples[len(samples)*99/100],
		MeanNs:  sum / float64(len(samples)),
		RankErr: rankErr,
	}
	out.Metrics = append(out.Metrics, m)
	t.AddRow(itoa(h.Segments), itoa(probes),
		report.NsF(m.P50Ns), report.NsF(m.P99Ns), report.NsF(m.MeanNs),
		fmt.Sprintf("%.1f", rankErr))
	return t
}

// tierWriteAmp drives the same insert stream through a legacy directory
// checkpointing every K ops and a tiered one flushing every K ops, and
// compares total bytes written for durability against the logical entry
// bytes. The checkpoint rewrites the whole index every round; the flush
// writes each entry once.
func tierWriteAmp(cfg Config, out *tierReport) *report.Table {
	const rounds = 5
	per := min(cfg.Ops/rounds, 8_000)
	logical := int64(rounds*per) * 16 // 8B key + 8B value per entry
	t := &report.Table{
		Title: fmt.Sprintf("Tier — write amplification, %d rounds × %d inserts (SyncNone WAL)", rounds, per),
		Cols:  []string{"mode", "bytes written", "logical bytes", "write amp"},
	}

	// Legacy: sum each checkpoint's snapshot size as it lands.
	{
		dir, err := os.MkdirTemp("", "chameleon-ckpt-*")
		if err != nil {
			panic(err)
		}
		d, err := chameleon.OpenDir(dir, chameleon.DirOptions{
			Options: chameleon.Options{Seed: cfg.Seed},
			Sync:    chameleon.SyncNone,
		})
		if err != nil {
			panic(err)
		}
		var written int64
		next := uint64(1)
		for r := 0; r < rounds; r++ {
			for i := 0; i < per; i++ {
				if err := d.Insert(tierKey(next), next); err != nil {
					panic(err)
				}
				next++
			}
			if err := d.Checkpoint(); err != nil {
				panic(err)
			}
			written += newestSnapshotSize(dir)
		}
		d.Close()         //nolint:errcheck
		os.RemoveAll(dir) //nolint:errcheck
		m := tierMetric{Name: "checkpoint_write_amp", Entries: rounds * per,
			Bytes: written, WriteAmp: float64(written) / float64(logical)}
		out.Metrics = append(out.Metrics, m)
		t.AddRow("checkpoint every round", itoa(int(written)), itoa(int(logical)),
			fmt.Sprintf("%.1fx", m.WriteAmp))
	}

	// Tiered: the flush counter is exactly the segment bytes written.
	{
		d, dir := openTier(chameleon.DirOptions{
			Options: chameleon.Options{Seed: cfg.Seed},
			Sync:    chameleon.SyncNone,
		})
		next := uint64(1)
		for r := 0; r < rounds; r++ {
			for i := 0; i < per; i++ {
				if err := d.Insert(tierKey(next), next); err != nil {
					panic(err)
				}
				next++
			}
			if err := d.Flush(); err != nil {
				panic(err)
			}
		}
		h := d.Health().Tier
		written := int64(h.FlushedBytes)
		compacted := int64(h.CompactBytes)
		d.Close()         //nolint:errcheck
		os.RemoveAll(dir) //nolint:errcheck
		m := tierMetric{Name: "flush_write_amp", Entries: rounds * per,
			Bytes: written + compacted, WriteAmp: float64(written+compacted) / float64(logical)}
		out.Metrics = append(out.Metrics, m)
		t.AddRow("flush every round", itoa(int(written+compacted)), itoa(int(logical)),
			fmt.Sprintf("%.1fx", m.WriteAmp))
	}
	return t
}

// tierSteadyState bulk loads a base, then inserts as many uniformly spread
// fresh keys again, flushing every 1/128 of the base so the default trigger
// compacts on every fourth flush, and reports where the bytes went. Flush
// alone is ~1× by construction; the figure that matters is the total.
func tierSteadyState(cfg Config, out *tierReport) *report.Table {
	n := min(cfg.N, 131_072)
	per := max(n/128, 16)
	t := &report.Table{
		Title: fmt.Sprintf("Tier — steady-state write amplification, base %d keys doubled in flushes of %d (SyncNone WAL)", n, per),
		Cols:  []string{"bytes of", "bytes written", "payload bytes", "write amp", "max runs", "cold get p50", "range(100) p50"},
	}
	d, dir := openTier(chameleon.DirOptions{
		// The memtable's own structure search re-runs as it regrows from
		// empty after every flush; it is not what this sweep measures.
		Options: chameleon.Options{Seed: cfg.Seed, ReconstructThreshold: -1},
		Sync:    chameleon.SyncNone,
	})
	defer os.RemoveAll(dir) //nolint:errcheck
	defer d.Close()         //nolint:errcheck

	base := make([]uint64, n)
	for i := range base {
		base[i] = uint64(i) * 1024
	}
	if err := d.BulkLoad(base, nil); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x57EAD))
	seen := make(map[uint64]bool, n)
	maxRuns := 0
	for i := 0; i < n; i++ {
		key := rng.Uint64N(uint64(n)*512)<<1 | 1 // odd: never a base key
		for seen[key] {
			key += 2
		}
		seen[key] = true
		if err := d.Insert(key, uint64(i)); err != nil {
			panic(err)
		}
		if i%per == per-1 {
			if err := d.Flush(); err != nil {
				panic(err)
			}
			maxRuns = max(maxRuns, d.Health().Tier.Runs)
		}
	}
	if err := d.Flush(); err != nil {
		panic(err)
	}
	// With the ladder at its fullest: a point read asks each run's filter and
	// reads one; a short range has to open every run that overlaps it.
	probes := min(cfg.Ops, 30_000)
	p50 := func(probe func(k uint64)) float64 {
		samples := make([]float64, probes)
		for i := range samples {
			k := base[rng.IntN(n)]
			t0 := time.Now()
			probe(k)
			samples[i] = float64(time.Since(t0).Nanoseconds())
		}
		mid, _ := pctAndMax(samples)
		return mid
	}
	getP50 := p50(func(k uint64) {
		if _, ok := d.Lookup(k); !ok {
			panic("steady-state probe missed a base key")
		}
	})
	rangeP50 := p50(func(k uint64) {
		got := 0
		d.Range(k, ^uint64(0), func(_, _ uint64) bool { got++; return got < 100 })
	})

	h := d.Health().Tier
	payload := int64(n) * 16
	amp := func(name string, bytes uint64) tierMetric {
		return tierMetric{Name: name, Entries: n, Bytes: int64(bytes), WriteAmp: float64(bytes) / float64(payload)}
	}
	amps := []tierMetric{
		amp("steady_flush_write_amp", h.FlushedBytes),
		amp("steady_compact_write_amp", h.CompactBytes),
		amp("total_write_amp", h.FlushedBytes+h.CompactBytes),
	}
	amps[2].Runs = maxRuns
	for _, m := range amps {
		row := []string{m.Name, itoa(int(m.Bytes)), itoa(int(payload)), fmt.Sprintf("%.1fx", m.WriteAmp), "", "", ""}
		if m.Runs > 0 {
			row[4], row[5], row[6] = itoa(m.Runs), report.NsF(getP50), report.NsF(rangeP50)
		}
		t.AddRow(row...)
	}
	out.Metrics = append(append(out.Metrics, amps...),
		tierMetric{Name: "steady_cold_get", Entries: probes, P50Ns: getP50},
		tierMetric{Name: "steady_range100", Entries: probes, P50Ns: rangeP50})
	return t
}

// newestSnapshotSize reports the size of the most recent snapshot file in a
// legacy checkpoint directory — the bytes the checkpoint just wrote.
func newestSnapshotSize(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var newest string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, ".ckpt") && name > newest {
			newest = name
		}
	}
	if newest == "" {
		return 0
	}
	fi, err := os.Stat(filepath.Join(dir, newest))
	if err != nil {
		return 0
	}
	return fi.Size()
}
