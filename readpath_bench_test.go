package chameleon_test

// Read-path micro-benchmarks for the optimistic seqlock lookup (DESIGN.md
// §13) against a raw Go map as the no-structure floor: serial, with
// RunParallel, on 16 hot keys, and on absent keys. They are the repo's one
// measure of the in-process lookup path outside bench/, whose core.lookup_ns
// and core.read_fallbacks cover it under the embed_mem workload; remote
// pipelined GETs are bench/'s remote_get workload. BenchmarkTieredLookup
// times the tiered point read (a memtable hit, a segment hit) on its own.
// Read-path safety under writers is TestOptimisticTornReadOracle's
// (internal/core) and TestTieredLookupValuesUnderConcurrency's, not a
// timing's.

import (
	"math/rand/v2"
	"testing"

	"chameleon"
	"chameleon/internal/dataset"
	"chameleon/internal/harness"
)

func buildReadBench(b *testing.B) *chameleon.Index {
	b.Helper()
	keys := dataset.Generate(dataset.FACE, 200_000, 42)
	ix := chameleon.New(chameleon.Options{})
	if err := ix.BulkLoad(keys, nil); err != nil {
		b.Fatal(err)
	}
	return ix
}

// BenchmarkLookupOptimistic is the versioned lock-free read path.
func BenchmarkLookupOptimistic(b *testing.B) {
	ix := buildReadBench(b)
	keys := dataset.Generate(dataset.FACE, 200_000, 42)
	probes := harness.Probes(keys, 1<<16, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Lookup(probes[i&(1<<16-1)])
	}
}

// BenchmarkLookupMap is the floor: a plain map probe with zero index
// structure, ordering, or concurrency safety.
func BenchmarkLookupMap(b *testing.B) {
	keys := dataset.Generate(dataset.FACE, 200_000, 42)
	m := make(map[uint64]uint64, len(keys))
	for _, k := range keys {
		m[k] = k
	}
	probes := harness.Probes(keys, 1<<16, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m[probes[i&(1<<16-1)]]
	}
}

// BenchmarkLookupOptimisticParallel exercises reader scaling: optimistic
// readers share nothing, so no lock word bounces between them.
func BenchmarkLookupOptimisticParallel(b *testing.B) {
	ix := buildReadBench(b)
	keys := dataset.Generate(dataset.FACE, 200_000, 42)
	probes := harness.Probes(keys, 1<<16, 7)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			ix.Lookup(probes[i&(1<<16-1)])
			i++
		}
	})
}

// BenchmarkLookupHotOptimistic measures the optimistic path on 16 hot keys:
// the same walk and probe as a uniform lookup, but over tree and leaf lines
// that stay resident in the CPU cache.
func BenchmarkLookupHotOptimistic(b *testing.B) {
	ix := buildReadBench(b)
	keys := dataset.Generate(dataset.FACE, 200_000, 42)
	// 16 hot keys spread across the keyspace: the shape of a skewed
	// read-mostly workload.
	hot := make([]uint64, 16)
	for i := range hot {
		hot[i] = keys[(i*len(keys))/len(hot)+7]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Lookup(hot[i&15])
	}
}

// BenchmarkLookupMiss probes absent keys, gap midpoints of a 2 M-key FACE
// load (the repo benchmark's data). A miss scans the whole window [P̂−cd,
// P̂+cd] of its leaf, as does Insert's absent-key search, so this is the
// lookup that pays for a leaf's conflict degree.
func BenchmarkLookupMiss(b *testing.B) {
	keys := dataset.Generate(dataset.FACE, 2_000_000, 42)
	ix := chameleon.New(chameleon.Options{})
	if err := ix.BulkLoad(keys, nil); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 7))
	misses := make([]uint64, 0, 1<<16)
	for len(misses) < cap(misses) {
		i := rng.IntN(len(keys) - 1)
		if keys[i+1]-keys[i] > 1 {
			misses = append(misses, keys[i]+(keys[i+1]-keys[i])/2)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ix.Lookup(misses[i&(1<<16-1)]); ok {
			b.Fatal("absent key found")
		}
	}
}

// BenchmarkTieredLookup times DurableIndex.Lookup on a tiered directory: a
// 200 k-key FACE bulk load, which lands as one segment, under a memtable of
// 4,096 keys inserted into its gaps. "memtable" probes the inserted keys
// (the lock-free hit), "cold" the loaded ones (a memtable miss, the
// memtable and dead-set probes under the dead set's read lock, then the
// segment: one filter probe and one pread from the page cache), and
// "memtable-parallel" the inserted keys from every P, where a shared lock
// word on the hit path would show.
func BenchmarkTieredLookup(b *testing.B) {
	keys := dataset.Generate(dataset.FACE, 200_000, 42)
	d, err := chameleon.OpenDir(b.TempDir(), chameleon.DirOptions{
		Sync: chameleon.SyncNone, Tiered: true, MemtableBytes: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if err := d.BulkLoad(keys, nil); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 7))
	hot := make([]uint64, 0, 1<<12)
	for len(hot) < cap(hot) {
		i := rng.IntN(len(keys) - 1)
		k := keys[i] + (keys[i+1]-keys[i])/2
		if k == keys[i] {
			continue
		}
		if err := d.Insert(k, k); err == nil {
			hot = append(hot, k)
		}
	}
	cold := harness.Probes(keys, 1<<16, 7)
	probe := func(b *testing.B, ks []uint64) {
		mask := len(ks) - 1
		for i := 0; i < b.N; i++ {
			if _, ok := d.Lookup(ks[i&mask]); !ok {
				b.Fatal("stored key not found")
			}
		}
	}
	b.Run("memtable", func(b *testing.B) { probe(b, hot) })
	b.Run("cold", func(b *testing.B) { probe(b, cold) })
	b.Run("memtable-parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				if _, ok := d.Lookup(hot[i&(len(hot)-1)]); !ok {
					b.Error("stored key not found")
					return
				}
			}
		})
	})
}
