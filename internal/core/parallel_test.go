package core

import (
	"bytes"
	"runtime"
	"testing"

	"chameleon/internal/dataset"
	"chameleon/internal/rl"
)

// workerIndex is fastIndex with an explicit worker count, so the serial
// (Workers: 1) and parallel builds differ in nothing but parallelism.
func workerIndex(workers int) *Index {
	dcfg := rl.DefaultDAREConfig()
	dcfg.SampleCap = 8192
	dcfg.Workers = workers
	return New(Config{
		Name:    "Chameleon",
		Dare:    rl.NewCostDARE(dcfg),
		Policy:  rl.NewCostPolicy(rl.DefaultEnv()),
		Workers: workers,
	})
}

// TestParallelBuildMatchesSerial is the determinism contract of the parallel
// bulk load: for every evaluation dataset, the trees built with 8 workers and
// with one per CPU (Workers: 0) must be indistinguishable from the serial
// build — same lookups, same structural stats, and a byte-identical
// serialized snapshot (the strongest equality the public surface can
// express: it covers node intervals, fanouts, gate bases, and every leaf's
// geometry and entries). The worker count reaches the construction search
// too, so this also pins the parallel GA to the serial one.
func TestParallelBuildMatchesSerial(t *testing.T) {
	for _, name := range dataset.Names {
		keys := dataset.Generate(name, 30_000, 11)
		serial := workerIndex(1)
		if err := serial.BulkLoad(keys, nil); err != nil {
			t.Fatalf("%s: serial BulkLoad: %v", name, err)
		}
		var sbuf bytes.Buffer
		if _, err := serial.WriteTo(&sbuf); err != nil {
			t.Fatalf("%s: serial WriteTo: %v", name, err)
		}
		for _, workers := range []int{8, 0} {
			parallel := workerIndex(workers)
			if err := parallel.BulkLoad(keys, nil); err != nil {
				t.Fatalf("%s: %d-worker BulkLoad: %v", name, workers, err)
			}
			if serial.Len() != parallel.Len() {
				t.Fatalf("%s: Len %d vs %d", name, serial.Len(), parallel.Len())
			}
			if ss, ps := serial.Stats(), parallel.Stats(); ss != ps {
				t.Fatalf("%s: stats diverge:\nserial    %+v\n%d workers %+v", name, ss, workers, ps)
			}
			for i := 0; i < len(keys); i += 37 {
				sv, sok := serial.Lookup(keys[i])
				pv, pok := parallel.Lookup(keys[i])
				if sv != pv || sok != pok {
					t.Fatalf("%s: Lookup(%d) serial=(%d,%v) %d workers=(%d,%v)",
						name, keys[i], sv, sok, workers, pv, pok)
				}
			}
			var pbuf bytes.Buffer
			if _, err := parallel.WriteTo(&pbuf); err != nil {
				t.Fatalf("%s: %d-worker WriteTo: %v", name, workers, err)
			}
			if !bytes.Equal(sbuf.Bytes(), pbuf.Bytes()) {
				t.Fatalf("%s: serialized snapshots differ at %d workers (%d vs %d bytes)",
					name, workers, sbuf.Len(), pbuf.Len())
			}
		}
	}
}

// TestReconstructAllocations bounds what a runtime reconstruction of a
// memtable-sized index allocates: the default reduced-budget search over a
// 16,384-key FACE index. Its cost-model walk reuses one slot buffer and
// never materialises empty children, so the whole rebuild stays a few MB;
// a walk that allocated per child of a 2^20-way root cost ~124 MB here.
func TestReconstructAllocations(t *testing.T) {
	keys := dataset.Generate(dataset.FACE, 16_384, 42)
	ix := New(Config{Policy: rl.NewCostPolicy(rl.DefaultEnv())})
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix.Reconstruct()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Fatalf("Reconstruct allocated %.1f MB, want <= 8 MB", float64(got)/(1<<20))
	}
	if ix.Len() != len(keys) {
		t.Fatalf("Len %d after Reconstruct, want %d", ix.Len(), len(keys))
	}
}

// TestSnapshotReloadIsFixedPoint: a snapshot is a fixed point of load and
// save — the loaded index writes back the same bytes — because the file holds
// each leaf's geometry and sorted entries, not the slot layout a load
// re-derives. The index is churned first, so leaves have been grown, rebuilt
// and emptied in place.
func TestSnapshotReloadIsFixedPoint(t *testing.T) {
	keys := dataset.Generate(dataset.FACE, 30_000, 7)
	src := workerIndex(0)
	if err := src.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if i%3 == 0 {
			src.Insert(k+1, k) //nolint:errcheck // a neighbor may already exist
		}
		if i%5 == 0 {
			if err := src.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	var snap bytes.Buffer
	if _, err := src.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	loaded := workerIndex(1)
	if _, err := loaded.ReadFrom(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != src.Len() {
		t.Fatalf("Len %d, source %d", loaded.Len(), src.Len())
	}
	for i, k := range keys {
		for _, q := range []uint64{k, k + 1} {
			sv, sok := src.Lookup(q)
			lv, lok := loaded.Lookup(q)
			if sv != lv || sok != lok {
				t.Fatalf("Lookup(%d) source=(%d,%v) loaded=(%d,%v) [key %d]", q, sv, sok, lv, lok, i)
			}
		}
	}
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), again.Bytes()) {
		t.Fatalf("re-saved snapshot differs (%d vs %d bytes)", snap.Len(), again.Len())
	}
}
