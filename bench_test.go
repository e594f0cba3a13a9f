package chameleon_test

// One testing.B benchmark per paper table and figure (plus per-operation
// micro-benchmarks). Each BenchmarkFigN runs the corresponding harness
// experiment once per b.N at a reduced scale and reports its wall time; the
// micro-benchmarks at the bottom give per-op numbers for the core structures.
//
// Full-scale reproductions with printed tables come from
//
//	go run ./cmd/chameleon-bench -exp all -n 1000000
//
// (see EXPERIMENTS.md for recorded outputs and the paper-vs-measured match).

import (
	"testing"

	"chameleon"
	"chameleon/internal/dataset"
	"chameleon/internal/harness"
	"chameleon/internal/report"
	"chameleon/internal/workload"
)

// benchCfg is the reduced scale used inside testing.B loops (full-scale
// reproductions come from cmd/chameleon-bench; see the file comment).
func benchCfg() harness.Config {
	return harness.Config{N: 50_000, Ops: 25_000, Seed: 42}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchCfg()
	var run func(harness.Config) ([]*report.Table, any)
	for _, e := range harness.Experiments {
		if e.ID == id {
			run = e.Run
		}
	}
	if run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tables, _ := run(cfg); len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

func BenchmarkFig1Motivation(b *testing.B)    { runExperiment(b, "fig1") }
func BenchmarkFig8ReadOnly(b *testing.B)      { runExperiment(b, "fig8") }
func BenchmarkFig9Skewness(b *testing.B)      { runExperiment(b, "fig9") }
func BenchmarkFig10Construction(b *testing.B) { runExperiment(b, "fig10") }
func BenchmarkTable5Structure(b *testing.B)   { runExperiment(b, "table5") }
func BenchmarkFig11ReadWrite(b *testing.B)    { runExperiment(b, "fig11") }
func BenchmarkFig12UpdateRatio(b *testing.B)  { runExperiment(b, "fig12") }
func BenchmarkFig13Batched(b *testing.B)      { runExperiment(b, "fig13") }
func BenchmarkFig14Retraining(b *testing.B)   { runExperiment(b, "fig14") }
func BenchmarkFig15RetrainThread(b *testing.B) {
	runExperiment(b, "fig15")
}
func BenchmarkConcThroughput(b *testing.B) { runExperiment(b, "conc") }

// BenchmarkScaling runs the group-commit / parallel-build / recovery
// experiment once per iteration. It writes no file: BENCH_scaling.json
// comes from `chameleon-bench -exp scaling`.
func BenchmarkScaling(b *testing.B) { runExperiment(b, "scaling") }

// BenchmarkShard runs the shard-count sweep (insert and mixed throughput at
// 1/2/4/8 range partitions) once per iteration. It writes no file:
// BENCH_shard.json comes from `chameleon-bench -exp shard`.
func BenchmarkShard(b *testing.B) { runExperiment(b, "shard") }

// ---- per-operation micro-benchmarks ----

// benchLookup measures mean point-query latency per index on one dataset.
func benchLookup(b *testing.B, indexName, ds string) {
	b.Helper()
	keys := dataset.Generate(ds, 200_000, 42)
	ix, _ := harness.Build(indexName, keys, 42)
	probes := harness.Probes(keys, 1<<16, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Lookup(probes[i&(1<<16-1)])
	}
}

func BenchmarkLookupChameleonFACE(b *testing.B) { benchLookup(b, "Chameleon", dataset.FACE) }
func BenchmarkLookupChameleonUDEN(b *testing.B) { benchLookup(b, "Chameleon", dataset.UDEN) }
func BenchmarkLookupALEXFACE(b *testing.B)      { benchLookup(b, "ALEX", dataset.FACE) }
func BenchmarkLookupBTreeFACE(b *testing.B)     { benchLookup(b, "B+Tree", dataset.FACE) }
func BenchmarkLookupLIPPFACE(b *testing.B)      { benchLookup(b, "LIPP", dataset.FACE) }
func BenchmarkLookupPGMFACE(b *testing.B)       { benchLookup(b, "PGM", dataset.FACE) }

// BenchmarkInsertChameleon measures in-place EBH insert latency.
func BenchmarkInsertChameleon(b *testing.B) {
	keys := dataset.Generate(dataset.FACE, 200_000, 42)
	ix := chameleon.New(chameleon.Options{Seed: 1})
	if err := ix.BulkLoad(keys, nil); err != nil {
		b.Fatal(err)
	}
	fresh := workload.FreshKeys(keys, b.N, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Insert(fresh[i], fresh[i]) //nolint:errcheck
	}
}

// BenchmarkInsertALEX is the baseline for the same insert stream.
func BenchmarkInsertALEX(b *testing.B) {
	keys := dataset.Generate(dataset.FACE, 200_000, 42)
	ix, _ := harness.Build("ALEX", keys, 42)
	fresh := workload.FreshKeys(keys, b.N, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Insert(fresh[i], fresh[i]) //nolint:errcheck
	}
}

// BenchmarkMixedThroughput replays a pre-generated Fig. 11-style mixed
// stream (50% writes, even insert/delete split) against Chameleon.
func BenchmarkMixedThroughput(b *testing.B) {
	keys := dataset.Generate(dataset.OSMC, 200_000, 42)
	ops := workload.Mixed(keys, workload.MixedConfig{
		WriteFrac: 0.5, InsertFrac: 0.5, Ops: 1 << 17, Seed: 5,
	})
	ix := chameleon.New(chameleon.Options{Seed: 1})
	if err := ix.BulkLoad(keys, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i&(1<<17-1)]
		switch op.Kind {
		case workload.Lookup:
			ix.Lookup(op.Key)
		case workload.Insert:
			ix.Insert(op.Key, op.Val) //nolint:errcheck
		case workload.Delete:
			ix.Delete(op.Key) //nolint:errcheck
		}
	}
}

// BenchmarkBulkLoadChameleon measures full MARL construction (Fig. 10's
// Chameleon bar).
func BenchmarkBulkLoadChameleon(b *testing.B) {
	keys := dataset.Generate(dataset.FACE, 100_000, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := chameleon.New(chameleon.Options{Seed: 1})
		if err := ix.BulkLoad(keys, nil); err != nil {
			b.Fatal(err)
		}
	}
}
