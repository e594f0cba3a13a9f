package harness

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"time"

	"chameleon/internal/core"
	"chameleon/internal/dataset"
	"chameleon/internal/index"
	"chameleon/internal/report"
	"chameleon/internal/rl"
	"chameleon/internal/workload"
)

// Experiment is one reproduction: a paper figure or table, or one of the
// repo's own sweeps beyond the paper.
type Experiment struct {
	ID    string
	Descr string
	// Run returns the report tables and, for the sweeps whose numbers are
	// tracked from run to run, a JSON-encodable results value that
	// cmd/chameleon-bench writes to BENCH_<ID>.json (nil for the rest).
	Run func(Config) ([]*report.Table, any)
}

// Experiments lists every experiment, the paper's in its order first.
var Experiments = []Experiment{
	{"fig1", "motivation: insertion-latency oscillation (ALEX vs Chameleon)", tablesOnly(Fig1Motivation)},
	{"fig8", "read-only query latency and index size vs cardinality", tablesOnly(Fig8ReadOnly)},
	{"fig9", "latency ratio vs B+Tree as local skewness grows", tablesOnly(Fig9Skewness)},
	{"fig10", "index construction time", tablesOnly(Fig10Construction)},
	{"table5", "structure analysis of the ablations", tablesOnly(Table5Structure)},
	{"fig11", "throughput vs read-write ratio", tablesOnly(Fig11ReadWrite)},
	{"fig12", "throughput vs insert-delete ratio", tablesOnly(Fig12UpdateRatio)},
	{"fig13", "read/write latency on batched workloads", tablesOnly(Fig13Batched)},
	{"fig14", "insertion time and retraining share", tablesOnly(Fig14Retraining)},
	{"fig15", "query latency with vs without the retraining thread", tablesOnly(Fig15RetrainThread)},
	{"scaling", "group-commit writers, parallel bulk load, snapshot load and WAL replay (emits BENCH_scaling.json)", Scaling},
	{"overload", "bounded admission: shed/block/deadline behavior past disk saturation (emits BENCH_overload.json)", Overload},
	{"shard", "range-partitioned shards: insert and mixed throughput vs shard count (emits BENCH_shard.json)", Shard},
	{"repl", "primary/follower replication: ack latency, lag, read-your-writes, failover time (emits BENCH_repl.json)", Repl},
	{"failover", "automatic failover: crash the primary, detector promotes, pool client follows (emits BENCH_failover.json)", Failover},
	{"tier", "tiered storage: flush latency vs delta size, cold-get percentiles, checkpoint-vs-flush bytes, steady-state total write amplification (emits BENCH_tier.json)", Tier},
	{"ablation", "design-choice ablations: τ sweep, α sweep, interval-lock overhead", tablesOnly(Ablations)},
}

// tablesOnly adapts an experiment that records no results.
func tablesOnly(run func(Config) []*report.Table) func(Config) ([]*report.Table, any) {
	return func(cfg Config) ([]*report.Table, any) { return run(cfg), nil }
}

// Fig1Motivation reproduces Fig. 1(b): per-window insertion latency while
// streaming inserts into a bulk-loaded index. ALEX oscillates (expansion/
// split retraining spikes); Chameleon stays flat.
func Fig1Motivation(cfg Config) []*report.Table {
	cfg = cfg.Defaults()
	keys := dataset.Generate(dataset.FACE, cfg.N, cfg.Seed)
	base, rest := splitShuffled(keys, len(keys)/2, cfg.Seed)

	t := &report.Table{
		Title: "Fig 1(b) — insertion latency per window (FACE, bulk 50% then insert 50%)",
		Cols:  []string{"window", "ALEX avg", "ALEX max", "Chameleon avg", "Chameleon max"},
	}
	const windows = 16
	per := len(rest) / windows
	type series struct{ avg, max []time.Duration }
	measure := func(name string) series {
		ix, _ := Build(name, base)
		defer stopRetraining(ix)
		var s series
		for w := 0; w < windows; w++ {
			chunk := rest[w*per : (w+1)*per]
			var worst time.Duration
			start := time.Now()
			for _, k := range chunk {
				t0 := time.Now()
				ix.Insert(k, k) //nolint:errcheck
				if d := time.Since(t0); d > worst {
					worst = d
				}
			}
			total := time.Since(start)
			s.avg = append(s.avg, total/time.Duration(per))
			s.max = append(s.max, worst)
		}
		return s
	}
	a := measure("ALEX")
	c := measure("Chameleon")
	for w := 0; w < windows; w++ {
		t.AddRow(fmt.Sprintf("%d", w), report.Ns(a.avg[w]), report.Ns(a.max[w]),
			report.Ns(c.avg[w]), report.Ns(c.max[w]))
	}
	return []*report.Table{t}
}

// Fig8ReadOnly reproduces Fig. 8: per dataset, bulk load 25/50/75/100% of N
// and report mean point-query latency and index size for all nine indexes.
func Fig8ReadOnly(cfg Config) []*report.Table {
	cfg = cfg.Defaults()
	cache := datasetCache{}
	lat := &report.Table{
		Title: fmt.Sprintf("Fig 8 (top) — read-only query latency, N up to %d", cfg.N),
		Cols:  append([]string{"dataset", "keys"}, AllIndexes...),
	}
	size := &report.Table{
		Title: "Fig 8 (bottom) — index size",
		Cols:  append([]string{"dataset", "keys"}, AllIndexes...),
	}
	for _, ds := range dataset.Names {
		full := cache.get(ds, cfg.N, cfg.Seed)
		for _, frac := range []int{25, 50, 75, 100} {
			n := cfg.N * frac / 100
			keys := full[:n]
			probes := Probes(keys, min(cfg.Ops, 100_000), cfg.Seed^uint64(frac))
			latRow := []string{ds, strconv.Itoa(n)}
			sizeRow := []string{ds, strconv.Itoa(n)}
			for _, name := range AllIndexes {
				ix, _ := Build(name, keys)
				ns, _ := MeasureLookupNs(ix, probes)
				latRow = append(latRow, report.NsF(ns))
				sizeRow = append(sizeRow, report.MB(ix.Bytes()))
				stopRetraining(ix)
			}
			lat.AddRow(latRow...)
			size.AddRow(sizeRow...)
		}
	}
	return []*report.Table{lat, size}
}

// Fig9Skewness reproduces Fig. 9: generate cluster datasets with decreasing
// variance (rising lsn) and report each index's latency relative to B+Tree.
func Fig9Skewness(cfg Config) []*report.Table {
	cfg = cfg.Defaults()
	t := &report.Table{
		Title: "Fig 9 — latency ratio vs B+Tree as local skewness grows",
		Cols:  append([]string{"sigma", "lsn"}, AllIndexes...),
	}
	for _, sigma := range []float64{1 << 22, 1 << 18, 1 << 14, 1 << 10, 1 << 6, 1 << 2} {
		keys := dataset.ClusterVariance(cfg.N, cfg.Seed, sigma)
		lsn := dataset.LocalSkewness(keys)
		probes := Probes(keys, min(cfg.Ops, 100_000), cfg.Seed^uint64(sigma))
		var base float64
		row := []string{fmt.Sprintf("2^%d", intLog2(sigma)), report.F2(lsn)}
		for _, name := range AllIndexes {
			ix, _ := Build(name, keys)
			ns, _ := MeasureLookupNs(ix, probes)
			stopRetraining(ix)
			if name == "B+Tree" {
				base = ns
			}
			row = append(row, report.F2(ns/base))
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}
}

func intLog2(x float64) int {
	n := 0
	for x >= 2 {
		x /= 2
		n++
	}
	return n
}

// Fig10Construction reproduces Fig. 10: bulk-load wall time per index on the
// two "real" datasets. The paper's result — RL-based construction
// (Chameleon, DIC) is slower than the greedy baselines — should reproduce.
func Fig10Construction(cfg Config) []*report.Table {
	cfg = cfg.Defaults()
	t := &report.Table{
		Title: fmt.Sprintf("Fig 10 — index construction time (%d keys)", cfg.N),
		Cols:  append([]string{"dataset"}, AllIndexes...),
	}
	for _, ds := range []string{dataset.OSMC, dataset.FACE} {
		keys := dataset.Generate(ds, cfg.N, cfg.Seed)
		row := []string{ds}
		for _, name := range AllIndexes {
			ix, d := Build(name, keys)
			stopRetraining(ix)
			row = append(row, fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000))
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}
}

// Table5Structure reproduces Table V: structural metrics of DILI, ALEX, and
// the Chameleon ablations after bulk loading each dataset.
func Table5Structure(cfg Config) []*report.Table {
	cfg = cfg.Defaults()
	t := &report.Table{
		Title: fmt.Sprintf("Table V — analysis of index structures (%d keys)", cfg.N),
		Cols:  []string{"dataset", "index", "MaxHeight", "MaxError", "AvgHeight", "AvgError", "#Nodes"},
	}
	for _, ds := range dataset.Names {
		keys := dataset.Generate(ds, cfg.N, cfg.Seed)
		for _, name := range AblationIndexes {
			ix, _ := Build(name, keys)
			sp, ok := ix.(index.StatsProvider)
			if !ok {
				continue
			}
			s := sp.Stats()
			t.AddRow(ds, name, strconv.Itoa(s.MaxHeight), strconv.Itoa(s.MaxError),
				report.F2(s.AvgHeight), report.F2(s.AvgError), strconv.Itoa(s.Nodes))
			stopRetraining(ix)
		}
	}
	return []*report.Table{t}
}

// Fig11ReadWrite reproduces Fig. 11: throughput under increasing write
// fraction (insert+delete split evenly, as in the paper's 8r/1i/1d cycles).
func Fig11ReadWrite(cfg Config) []*report.Table {
	return mixedThroughput(cfg, "Fig 11 — throughput vs read-write ratio", "writeFrac",
		func(x float64) workload.MixedConfig {
			return workload.MixedConfig{WriteFrac: x, InsertFrac: 0.5}
		})
}

// Fig12UpdateRatio reproduces Fig. 12: throughput under varying
// insert/delete split at a fixed half-write mix.
func Fig12UpdateRatio(cfg Config) []*report.Table {
	return mixedThroughput(cfg, "Fig 12 — throughput vs insert-delete ratio", "insertFrac",
		func(x float64) workload.MixedConfig {
			return workload.MixedConfig{WriteFrac: 0.5, InsertFrac: x}
		})
}

func mixedThroughput(cfg Config, title, axis string, mk func(float64) workload.MixedConfig) []*report.Table {
	cfg = cfg.Defaults()
	var tables []*report.Table
	for _, ds := range dataset.Names {
		keys := dataset.Generate(ds, cfg.N, cfg.Seed)
		t := &report.Table{
			Title: fmt.Sprintf("%s (%s, %d keys, %d ops)", title, ds, cfg.N, cfg.Ops),
			Cols:  append([]string{axis}, UpdatableIndexes...),
		}
		for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
			wcfg := mk(x)
			wcfg.Ops = cfg.Ops
			wcfg.Seed = cfg.Seed ^ uint64(x*1000)
			ops := workload.Mixed(keys, wcfg)
			row := []string{report.F2(x)}
			for _, name := range UpdatableIndexes {
				ix, _ := Build(name, keys)
				row = append(row, report.Mops(Throughput(ix, ops)))
				stopRetraining(ix)
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables
}

// Fig13Batched reproduces Fig. 13: read and write latency per quarter-wise
// batch (4 insert rounds then 4 delete rounds).
func Fig13Batched(cfg Config) []*report.Table {
	cfg = cfg.Defaults()
	var tables []*report.Table
	for _, ds := range dataset.Names {
		keys := dataset.Generate(ds, cfg.N, cfg.Seed)
		read := &report.Table{
			Title: fmt.Sprintf("Fig 13 — read latency per batch (%s)", ds),
			Cols:  append([]string{"batch"}, UpdatableIndexes...),
		}
		write := &report.Table{
			Title: fmt.Sprintf("Fig 13 — write latency per batch (%s)", ds),
			Cols:  append([]string{"batch"}, UpdatableIndexes...),
		}
		batches := workload.Batched(keys, 4, min(cfg.Ops/8, 50_000), cfg.Seed)
		readRows := make([][]string, len(batches))
		writeRows := make([][]string, len(batches))
		for b := range batches {
			phase := "ins"
			if b >= 4 {
				phase = "del"
			}
			readRows[b] = []string{fmt.Sprintf("%s-%d", phase, b%4+1)}
			writeRows[b] = readRows[b][:1:1]
		}
		for _, name := range UpdatableIndexes {
			ix := Builder(name)()
			if err := ix.BulkLoad(nil, nil); err != nil {
				panic(err)
			}
			ch, isChameleon := ix.(*core.Index)
			for b, batch := range batches {
				wd, _ := RunOps(ix, batch.Writes)
				if isChameleon {
					// The paper attributes Chameleon's Fig. 13 stability to
					// its retraining thread; drive it deterministically
					// between batches.
					ch.RetrainPass()
				}
				qd, _ := RunOps(ix, batch.Queries)
				writeRows[b] = append(writeRows[b], report.Ns(wd/time.Duration(max(1, len(batch.Writes)))))
				readRows[b] = append(readRows[b], report.Ns(qd/time.Duration(max(1, len(batch.Queries)))))
			}
			stopRetraining(ix)
		}
		for b := range batches {
			read.AddRow(readRows[b]...)
			write.AddRow(writeRows[b]...)
		}
		tables = append(tables, read, write)
	}
	return tables
}

// Fig14Retraining reproduces Fig. 14: bulk load 10% of the keys, insert the
// remaining 90%, and report the average insertion time with the share spent
// retraining. Chameleon's retraining is measured exactly (interval-locked
// subtree rebuilds, triggered by periodic RetrainPass calls); for the
// baselines, whose retraining is inlined in the insert path (expansions,
// splits, merges), the spike time — insertions costing over 10× the median —
// is reported as the retraining share.
func Fig14Retraining(cfg Config) []*report.Table {
	cfg = cfg.Defaults()
	t := &report.Table{
		Title: "Fig 14 — average insertion time and retraining share (bulk 10%, insert 90%)",
		Cols:  []string{"dataset", "index", "avg insert", "retrain share"},
	}
	for _, ds := range dataset.Names {
		keys := dataset.Generate(ds, cfg.N, cfg.Seed)
		base, rest := splitShuffled(keys, len(keys)/10, cfg.Seed^0x14)
		for _, name := range UpdatableIndexes {
			ix, _ := Build(name, base)
			ch, isChameleon := ix.(*core.Index)
			samples := make([]time.Duration, 0, len(rest))
			start := time.Now()
			for i, k := range rest {
				t0 := time.Now()
				ix.Insert(k, k) //nolint:errcheck
				samples = append(samples, time.Since(t0))
				if isChameleon && i%(1<<14) == 0 {
					ch.RetrainPass()
				}
			}
			total := time.Since(start)
			var retrain time.Duration
			if isChameleon {
				ch.RetrainPass()
				_, retrain = ch.RetrainStats()
			} else {
				retrain = spikeTime(samples)
			}
			avg := total / time.Duration(len(rest))
			share := float64(retrain) / float64(total)
			t.AddRow(ds, name, report.Ns(avg), fmt.Sprintf("%.1f%%", 100*share))
			stopRetraining(ix)
		}
	}
	return []*report.Table{t}
}

// spikeTime sums the insertion time spent in operations over 10× the
// median — the inlined-retraining proxy for baselines.
func spikeTime(samples []time.Duration) time.Duration {
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	threshold := 10 * report.Percentile(sorted, 0.5)
	var total time.Duration
	for _, s := range samples {
		if s > threshold {
			total += s
		}
	}
	return total
}

// Fig15RetrainThread reproduces Fig. 15: stream inserts in waves and sample
// query latency with and without the retraining thread. To isolate the
// structural effect the paper plots (retraining keeps leaf density and
// layout healthy → lower average query latency), both arms disable the
// full-reconstruction fallback, and the retrainer arm runs its pass
// deterministically between a wave and its measurement (the timer-driven
// goroutine produces the same structure; running it synchronously keeps the
// measurement free of in-flight-lock noise at laptop scale, where one
// subtree retrain spans many measurement windows — at the paper's scale the
// 10s period makes overlap negligible).
func Fig15RetrainThread(cfg Config) []*report.Table {
	cfg = cfg.Defaults()
	t := &report.Table{
		Title: "Fig 15 — Chameleon latency with vs without the retraining thread",
		Cols: []string{"dataset", "phase", "query no-rt", "query with-rt",
			"insert no-rt", "insert with-rt", "retrains"},
	}
	for _, ds := range dataset.Names {
		keys := dataset.Generate(ds, cfg.N, cfg.Seed)
		base, rest := splitShuffled(keys, len(keys)/2, cfg.Seed^0x15)
		const phases = 4
		qOff, iOff, _ := fig15Run(cfg, fig15Index(), base, rest, phases, false)
		qOn, iOn, retrains := fig15Run(cfg, fig15Index(), base, rest, phases, true)
		for p := 0; p < phases; p++ {
			t.AddRow(ds, fmt.Sprintf("insert wave %d/%d", p+1, phases),
				report.NsF(qOff[p]), report.NsF(qOn[p]),
				report.NsF(iOff[p]), report.NsF(iOn[p]), strconv.Itoa(int(retrains[p])))
		}
	}
	return []*report.Table{t}
}

// fig15Index is the index both arms of Fig. 15 run on.
func fig15Index() *core.Index {
	return core.New(core.Config{
		Name:                 "Chameleon",
		Policy:               rl.NewCostPolicy(rl.DefaultEnv()),
		ReconstructThreshold: -1, // isolate the retrainer's effect
	})
}

// fig15Run bulk-loads base into ix and inserts rest in phases waves,
// measuring each wave's insert latency and then the lookup latency over
// every key present; withRetrainer runs a retraining pass between the
// two. retrains[p] is how many leaves wave p retrained.
func fig15Run(cfg Config, ix *core.Index, base, rest []uint64, phases int, withRetrainer bool) (qLat, iLat []float64, retrains []int64) {
	if err := ix.BulkLoad(base, nil); err != nil {
		panic(err)
	}
	per := len(rest) / phases
	present := append([]uint64(nil), base...)
	prev, _ := ix.RetrainStats()
	for p := 0; p < phases; p++ {
		wave := rest[p*per : (p+1)*per]
		start := time.Now()
		for _, k := range wave {
			ix.Insert(k, k) //nolint:errcheck
		}
		iLat = append(iLat, float64(time.Since(start).Nanoseconds())/float64(len(wave)))
		present = append(present, wave...)
		if withRetrainer {
			ix.RetrainPass()
		}
		probes := Probes(present, min(cfg.Ops/4, 50_000), cfg.Seed^uint64(p))
		ns, _ := MeasureLookupNs(ix, probes)
		qLat = append(qLat, ns)
		n, _ := ix.RetrainStats()
		retrains = append(retrains, n-prev)
		prev = n
	}
	return qLat, iLat, retrains
}

// splitShuffled partitions a sorted key set into a sorted bulk-load base of
// baseN keys plus the remaining keys in a deterministic shuffled order —
// the "continuous dense arrival" insert streams of Section VI-C.
func splitShuffled(keys []uint64, baseN int, seed uint64) (base, rest []uint64) {
	rng := rand.New(rand.NewPCG(seed, seed^0x5bd1e995))
	perm := rng.Perm(len(keys))
	base = make([]uint64, 0, baseN)
	rest = make([]uint64, 0, len(keys)-baseN)
	for i, p := range perm {
		if i < baseN {
			base = append(base, keys[p])
		} else {
			rest = append(rest, keys[p])
		}
	}
	slices.Sort(base)
	return base, rest
}
