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
// bulk load: for every evaluation dataset, the trees built with 2 and 8
// workers and with one per CPU (Workers: 0) must be indistinguishable from
// the serial build — same lookups, same structural stats, and a
// byte-identical serialized snapshot (the strongest equality the public
// surface can express: it covers node intervals, fanouts, gate bases, and
// every leaf's geometry and entries). The worker count reaches the
// construction search too, so this also pins the parallel search to the
// serial one. The 30 k-key trees have height 2; the two FACE rows of
// 1.1 M keys (skipped under -short) have height 3, where the level-h
// subtrees sit under the root's children: with the default policies
// (g = 1, so those children are degenerate upper nodes and no gate
// exists), and with FixedDARE's (p0, g) = (1024, 32), so the upper pass
// registers gates under every root child.
func TestParallelBuildMatchesSerial(t *testing.T) {
	type row struct {
		name, gen string
		n         int
		ix        func(workers int) *Index
		gated     bool // the build must register gates
	}
	var rows []row
	for _, name := range dataset.Names {
		rows = append(rows, row{name: name, gen: name, n: 30_000, ix: workerIndex, gated: true})
	}
	for _, dare := range []struct {
		name string
		p    rl.DAREPolicy
	}{{"FACE-h3-default", nil}, {"FACE-h3-fixedDARE-M32", rl.FixedDARE{}}} {
		rows = append(rows, row{name: dare.name, gen: dataset.FACE, n: 1_100_000, gated: dare.p != nil,
			ix: func(workers int) *Index {
				return New(Config{Dare: dare.p, Policy: rl.NewCostPolicy(rl.DefaultEnv()), Workers: workers})
			}})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if testing.Short() && r.n > 1<<20 {
				t.Skip("builds 1.1 M-key trees")
			}
			keys := dataset.Generate(r.gen, r.n, 11)
			serial := r.ix(1)
			if err := serial.BulkLoad(keys, nil); err != nil {
				t.Fatalf("serial BulkLoad: %v", err)
			}
			st := serial.tree.Load()
			if want := heightFor(len(keys)); st.h != want {
				t.Fatalf("height %d, want %d", st.h, want)
			}
			if r.gated && len(st.gates) == 0 {
				t.Fatal("no gates registered: the row does not reach the gated build")
			}
			var sbuf bytes.Buffer
			if _, err := serial.WriteTo(&sbuf); err != nil {
				t.Fatalf("serial WriteTo: %v", err)
			}
			for _, workers := range []int{2, 8, 0} {
				parallel := r.ix(workers)
				if err := parallel.BulkLoad(keys, nil); err != nil {
					t.Fatalf("%d-worker BulkLoad: %v", workers, err)
				}
				if serial.Len() != parallel.Len() {
					t.Fatalf("Len %d vs %d", serial.Len(), parallel.Len())
				}
				if ss, ps := serial.Stats(), parallel.Stats(); ss != ps {
					t.Fatalf("stats diverge:\nserial    %+v\n%d workers %+v", ss, workers, ps)
				}
				for i := 0; i < len(keys); i += 37 {
					sv, sok := serial.Lookup(keys[i])
					pv, pok := parallel.Lookup(keys[i])
					if sv != pv || sok != pok {
						t.Fatalf("Lookup(%d) serial=(%d,%v) %d workers=(%d,%v)",
							keys[i], sv, sok, workers, pv, pok)
					}
				}
				var pbuf bytes.Buffer
				if _, err := parallel.WriteTo(&pbuf); err != nil {
					t.Fatalf("%d-worker WriteTo: %v", workers, err)
				}
				if !bytes.Equal(sbuf.Bytes(), pbuf.Bytes()) {
					t.Fatalf("serialized snapshots differ at %d workers (%d vs %d bytes)",
						workers, sbuf.Len(), pbuf.Len())
				}
			}
		})
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
