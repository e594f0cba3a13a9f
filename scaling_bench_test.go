package chameleon

import (
	"bytes"
	"sync/atomic"
	"testing"

	"chameleon/internal/dataset"
)

// Scaling benchmarks for the group-commit write path, the parallel bulk
// load and the recovery paths. Run with -cpu 1,2,4,8 to sweep core counts;
// `chameleon-bench -exp scaling` runs the same measurements programmatically
// and writes BENCH_scaling.json.

// BenchmarkDurableInsertSerial is the pre-group-commit baseline shape: one
// writer, so every op pays its own WAL append and fsync.
func BenchmarkDurableInsertSerial(b *testing.B) {
	d, err := OpenDir(b.TempDir(), DirOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Insert(uint64(i)+1, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableInsertParallel drives concurrent writers through the
// group-commit queue under SyncEveryOp. Throughput over the serial benchmark
// is the fsync-amortization factor: every op is still individually durable
// before it is acked, but batches share one fsync.
func BenchmarkDurableInsertParallel(b *testing.B) {
	d, err := OpenDir(b.TempDir(), DirOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	var next atomic.Uint64
	b.SetParallelism(8) // 8×GOMAXPROCS writers: batches form even on few cores
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := next.Add(1) // unique key per iteration across goroutines
			if err := d.Insert(k, k); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBulkLoadSerial and BenchmarkBulkLoadParallel build the same
// 2M-key FACE dataset with Workers pinned to 1 vs one-per-CPU. The trees are
// bit-identical (TestParallelBuildMatchesSerial); only wall clock differs.
func BenchmarkBulkLoadSerial(b *testing.B)   { benchBulkLoad(b, 1) }
func BenchmarkBulkLoadParallel(b *testing.B) { benchBulkLoad(b, 0) }

func benchBulkLoad(b *testing.B, workers int) {
	keys := dataset.Generate(dataset.FACE, 2_000_000, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := New(Options{Workers: workers})
		if err := ix.BulkLoad(keys, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad measures recovery's snapshot decode, a sequential
// streamed read: its allocations are the loaded index itself plus one
// read window.
func BenchmarkSnapshotLoad(b *testing.B) {
	keys := dataset.Generate(dataset.FACE, 1_000_000, 42)
	src := New(Options{})
	if err := src.BulkLoad(keys, nil); err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := src.WriteTo(&snap); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(snap.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := New(Options{})
		if _, err := ix.ReadFrom(bytes.NewReader(snap.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALReplay measures the pipelined WAL replay (parse+CRC on one
// goroutine, apply on the caller) over a log far past the pipelining
// threshold.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	d, err := OpenDir(dir, DirOptions{Sync: SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	const n = 200_000
	for i := uint64(1); i <= n; i++ {
		if err := d.Insert(i*1024, i); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := OpenDir(dir, DirOptions{Sync: SyncNone})
		if err != nil {
			b.Fatal(err)
		}
		if re.Len() != n {
			b.Fatalf("recovered %d keys, want %d", re.Len(), n)
		}
		b.StopTimer()
		re.Close()
		b.StartTimer()
	}
}
