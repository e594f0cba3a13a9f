package chameleon_test

// Per-operation micro-benchmarks for the core structures: lookup per index
// and dataset, insert, a mixed stream, and bulk load. The paper's tables and
// figures come from the experiments, not from here:
//
//	go run ./cmd/chameleon-bench -exp all -n 1000000
//
// (see EXPERIMENTS.md for recorded outputs and the paper-vs-measured match).

import (
	"testing"

	"chameleon"
	"chameleon/internal/dataset"
	"chameleon/internal/harness"
	"chameleon/internal/workload"
)

// benchLookup measures mean point-query latency per index on one dataset.
func benchLookup(b *testing.B, indexName, ds string) {
	b.Helper()
	keys := dataset.Generate(ds, 200_000, 42)
	ix, _ := harness.Build(indexName, keys)
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
	ix := chameleon.New(chameleon.Options{})
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
	ix, _ := harness.Build("ALEX", keys)
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
	ix := chameleon.New(chameleon.Options{})
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := chameleon.New(chameleon.Options{})
		if err := ix.BulkLoad(keys, nil); err != nil {
			b.Fatal(err)
		}
	}
}
