package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	"chameleon/internal/dataset"
	"chameleon/internal/ebh"
	"chameleon/internal/index"
	"chameleon/internal/rl"
	"chameleon/internal/workload"
)

// fastIndex builds a Chameleon with cheap analytic policies for tests.
func fastIndex(name string) *Index {
	dcfg := rl.DefaultDAREConfig()
	dcfg.SampleCap = 8192
	return New(Config{
		Name:   name,
		Dare:   rl.NewCostDARE(dcfg),
		Policy: rl.NewCostPolicy(rl.DefaultEnv()),
	})
}

func TestBulkLoadAndLookupAllDatasets(t *testing.T) {
	for _, name := range dataset.Names {
		keys := dataset.Generate(name, 50_000, 11)
		ix := fastIndex("Chameleon")
		if err := ix.BulkLoad(keys, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ix.Len() != len(keys) {
			t.Fatalf("%s: Len = %d, want %d", name, ix.Len(), len(keys))
		}
		for i := 0; i < len(keys); i += 97 {
			v, ok := ix.Lookup(keys[i])
			if !ok || v != keys[i] {
				t.Fatalf("%s: Lookup(%d) = %d,%v", name, keys[i], v, ok)
			}
		}
		// Absent keys between real ones must miss.
		misses := 0
		for i := 1; i < len(keys); i += 1009 {
			if keys[i]-keys[i-1] > 1 {
				if _, ok := ix.Lookup(keys[i] - 1); !ok {
					misses++
				} else if keys[i]-1 != keys[i-1] {
					t.Fatalf("%s: phantom hit on absent key %d", name, keys[i]-1)
				}
			}
		}
		if misses == 0 {
			t.Fatalf("%s: no absent-key probes executed", name)
		}
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	ix := fastIndex("Chameleon")
	if err := ix.BulkLoad([]uint64{3, 2, 5}, nil); err != ErrUnsortedKeys {
		t.Fatalf("unsorted keys: err = %v", err)
	}
	if err := ix.BulkLoad([]uint64{3, 3}, nil); err != ErrUnsortedKeys {
		t.Fatalf("duplicate keys: err = %v", err)
	}
	if err := ix.BulkLoad([]uint64{1, 2}, []uint64{9}); err != ErrMismatchedValues {
		t.Fatalf("mismatched vals: err = %v, want ErrMismatchedValues", err)
	}
	if err := ix.BulkLoad([]uint64{1, 2}, []uint64{9, 10, 11}); err != ErrMismatchedValues {
		t.Fatalf("oversized vals: err = %v, want ErrMismatchedValues", err)
	}
	if err := ix.BulkLoad([]uint64{1, 2}, []uint64{9, 10}); err != nil {
		t.Fatalf("matched vals: err = %v, want nil", err)
	}
}

func TestEmptyIndexUsable(t *testing.T) {
	ix := fastIndex("Chameleon")
	if _, ok := ix.Lookup(5); ok {
		t.Fatal("lookup on empty index hit")
	}
	if err := ix.Insert(5, 50); err != nil {
		t.Fatal(err)
	}
	if v, ok := ix.Lookup(5); !ok || v != 50 {
		t.Fatalf("Lookup(5) = %d,%v", v, ok)
	}
	if err := ix.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(5); err != index.ErrKeyNotFound {
		t.Fatalf("double delete: err = %v", err)
	}
	if ix.Len() != 0 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestOracleDifferential(t *testing.T) {
	// Random operation stream against a map oracle, including keys outside
	// the bulk-loaded range.
	keys := dataset.Generate(dataset.OSMC, 20_000, 3)
	ix := fastIndex("Chameleon")
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64]uint64{}
	for _, k := range keys {
		oracle[k] = k
	}
	rng := rand.New(rand.NewPCG(5, 5))
	span := keys[len(keys)-1] + 1<<20
	for op := 0; op < 60_000; op++ {
		k := rng.Uint64N(span)
		switch rng.IntN(3) {
		case 0: // lookup
			want, wantOK := oracle[k]
			got, ok := ix.Lookup(k)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("op %d: Lookup(%d) = %d,%v, oracle %d,%v", op, k, got, ok, want, wantOK)
			}
		case 1: // insert
			err := ix.Insert(k, k^0xff)
			if _, dup := oracle[k]; dup {
				if err != index.ErrDuplicateKey {
					t.Fatalf("op %d: duplicate insert err = %v", op, err)
				}
			} else {
				if err != nil {
					t.Fatalf("op %d: insert err = %v", op, err)
				}
				oracle[k] = k ^ 0xff
			}
		case 2: // delete
			err := ix.Delete(k)
			if _, present := oracle[k]; present {
				if err != nil {
					t.Fatalf("op %d: delete err = %v", op, err)
				}
				delete(oracle, k)
			} else if err != index.ErrKeyNotFound {
				t.Fatalf("op %d: absent delete err = %v", op, err)
			}
		}
		if ix.Len() != len(oracle) {
			t.Fatalf("op %d: Len = %d, oracle %d", op, ix.Len(), len(oracle))
		}
	}
}

func TestRangeOrderedAndComplete(t *testing.T) {
	keys := dataset.Generate(dataset.LOGN, 10_000, 7)
	ix := fastIndex("Chameleon")
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	lo, hi := keys[1000], keys[3000]
	var got []uint64
	ix.Range(lo, hi, func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 2001 {
		t.Fatalf("range returned %d keys, want 2001", len(got))
	}
	for i, k := range got {
		if k != keys[1000+i] {
			t.Fatalf("range out of order at %d: %d vs %d", i, k, keys[1000+i])
		}
	}
	// Early stop.
	n := 0
	ix.Range(lo, hi, func(k, v uint64) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early-stop range visited %d", n)
	}
	// Empty and inverted ranges.
	ix.Range(hi, lo, func(k, v uint64) bool { t.Fatal("inverted range emitted"); return false })
}

// TestRangeOnGatelessIndexAllocatesResult: a Range allocates for its result
// and the leaves it reads, not for the whole index. Gateless is a 100-key
// Range over a 200 k-key tree with no gates (a p0 = 1 build, all
// partitioning below the gate level). GatedEarlyStop is a whole-key-space
// Range over a gated FACE 200 k tree that stops after 10 keys: it must stop
// reading where it stops emitting.
func TestRangeOnGatelessIndexAllocatesResult(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ix     *Index
		keys   []uint64
		gated  bool
		lo, hi func(keys []uint64) uint64
		emit   int // keys emitted per call: the call stops after that many
	}{
		{
			name: "Gateless",
			ix:   New(Config{Name: "Chameleon", Dare: rl.FixedDARE{Root: 1}, Policy: rl.FixedFanout{F: 1024}}),
			keys: dataset.Uniform(200_000, 3),
			lo:   func(keys []uint64) uint64 { return keys[100_000] },
			hi:   func(keys []uint64) uint64 { return keys[100_099] },
			emit: 100,
		},
		{
			name:  "GatedEarlyStop",
			ix:    fastIndex("Chameleon"),
			keys:  dataset.Generate(dataset.FACE, 200_000, 1),
			gated: true,
			lo:    func([]uint64) uint64 { return 0 },
			hi:    func([]uint64) uint64 { return math.MaxUint64 },
			emit:  10,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := tc.ix
			if err := ix.BulkLoad(tc.keys, nil); err != nil {
				t.Fatal(err)
			}
			if n := len(ix.tree.Load().gates); (n > 0) != tc.gated {
				t.Fatalf("tree registered %d gates, gated = %v", n, tc.gated)
			}
			lo, hi := tc.lo(tc.keys), tc.hi(tc.keys)
			const runs = 10
			n := 0
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				m := 0
				ix.Range(lo, hi, func(k, v uint64) bool { m++; return m < tc.emit })
				n += m
			}
			runtime.ReadMemStats(&after)
			if n != tc.emit*runs {
				t.Fatalf("ranges emitted %d keys, want %d", n, tc.emit*runs)
			}
			// Sized to the index, or reading all of it, one Range would
			// allocate 200 k × 16 B = 3.2 MB.
			per := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%d gates: a Range emitting %d keys allocated %d bytes", len(ix.tree.Load().gates), tc.emit, per)
			if per > 64<<10 {
				t.Fatalf("a Range emitting %d keys allocated %d bytes", tc.emit, per)
			}
		})
	}
}

func TestStatsShape(t *testing.T) {
	keys := dataset.Generate(dataset.FACE, 100_000, 1)
	ix := fastIndex("Chameleon")
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	s := ix.Stats()
	if s.MaxHeight < 2 || s.MaxHeight > 6 {
		t.Fatalf("MaxHeight = %d, want the paper's 2-4 band", s.MaxHeight)
	}
	if s.AvgHeight > float64(s.MaxHeight) || s.AvgHeight < 1 {
		t.Fatalf("AvgHeight = %v inconsistent with MaxHeight %d", s.AvgHeight, s.MaxHeight)
	}
	if s.Nodes < 2 {
		t.Fatalf("Nodes = %d", s.Nodes)
	}
	if s.AvgError > float64(s.MaxError) {
		t.Fatalf("AvgError %v above MaxError %d", s.AvgError, s.MaxError)
	}
	if ix.Bytes() < 16*len(keys) {
		t.Fatalf("Bytes = %d below raw key/value storage", ix.Bytes())
	}
	if h := ix.Height(); h != s.MaxHeight {
		t.Fatalf("Height() = %d disagrees with Stats %d", h, s.MaxHeight)
	}
}

func TestAblationsBuildAndServe(t *testing.T) {
	keys := dataset.Generate(dataset.FACE, 30_000, 9)
	for _, ix := range []*Index{NewChaB(), fastChaDA(), fastIndex("ChaDATS")} {
		if err := ix.BulkLoad(keys, nil); err != nil {
			t.Fatalf("%s: %v", ix.Name(), err)
		}
		for i := 0; i < len(keys); i += 501 {
			if _, ok := ix.Lookup(keys[i]); !ok {
				t.Fatalf("%s: lost key %d", ix.Name(), keys[i])
			}
		}
	}
}

func fastChaDA() *Index {
	dcfg := rl.DefaultDAREConfig()
	dcfg.SampleCap = 8192
	return New(Config{Name: "ChaDA", Dare: rl.NewCostDARE(dcfg)})
}

func TestRetrainPassLightAndStructural(t *testing.T) {
	keys := dataset.Generate(dataset.UDEN, 50_000, 2)
	ix := fastIndex("Chameleon")
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	if got := ix.RetrainPass(); got != 0 {
		t.Fatalf("clean index retrained %d subtrees", got)
	}
	// Hammer one region with inserts to force drift past the structural
	// threshold.
	base := keys[100]
	inserted := []uint64{}
	for i := uint64(1); i <= 60_000; i++ {
		k := base + i*3
		if err := ix.Insert(k, k); err == nil {
			inserted = append(inserted, k)
		}
	}
	if ix.driftedGates() == 0 {
		t.Fatal("no gate registered drift after 60k localized inserts")
	}
	if got := ix.RetrainPass(); got == 0 {
		t.Fatal("retrain pass skipped drifted gates")
	}
	count, total := ix.RetrainStats()
	if count == 0 || total <= 0 {
		t.Fatalf("RetrainStats = %d,%v", count, total)
	}
	// Every key must survive retraining.
	for i := 0; i < len(keys); i += 199 {
		if _, ok := ix.Lookup(keys[i]); !ok {
			t.Fatalf("retrain lost bulk key %d", keys[i])
		}
	}
	for i := 0; i < len(inserted); i += 97 {
		if _, ok := ix.Lookup(inserted[i]); !ok {
			t.Fatalf("retrain lost inserted key %d", inserted[i])
		}
	}
}

func TestConcurrentRetrainerWithForeground(t *testing.T) {
	// The Section V model: one foreground thread + the retrainer goroutine,
	// synchronized only by interval locks. Run under -race.
	keys := dataset.Generate(dataset.FACE, 40_000, 4)
	ix := fastIndex("Chameleon")
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	ix.StartRetrainer(2 * time.Millisecond)
	defer ix.StopRetrainer()
	rng := rand.New(rand.NewPCG(8, 8))
	span := keys[len(keys)-1]
	live := map[uint64]bool{}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		for i := 0; i < 2000; i++ {
			k := rng.Uint64N(span)
			switch rng.IntN(4) {
			case 0, 1:
				if err := ix.Insert(k, k); err == nil {
					live[k] = true
				}
			case 2:
				if err := ix.Delete(k); err == nil {
					delete(live, k)
				}
			default:
				ix.Lookup(k)
			}
		}
	}
	ix.StopRetrainer()
	for k := range live {
		if _, ok := ix.Lookup(k); !ok {
			t.Fatalf("key %d lost during concurrent retraining", k)
		}
	}
	// Double Start/Stop are safe no-ops.
	ix.StopRetrainer()
	ix.StartRetrainer(time.Hour)
	ix.StartRetrainer(time.Hour)
	ix.StopRetrainer()
}

func TestHeightFor(t *testing.T) {
	cases := map[int]int{10: 2, 1 << 10: 2, 1 << 20: 2, 1<<20 + 1: 3, 200_000_000: 3}
	for n, want := range cases {
		if got := heightFor(n); got != want {
			t.Errorf("heightFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestValuesPreserved(t *testing.T) {
	keys := dataset.Uniform(5000, 6)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i) * 7
	}
	ix := fastIndex("Chameleon")
	if err := ix.BulkLoad(keys, vals); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if v, ok := ix.Lookup(k); !ok || v != vals[i] {
			t.Fatalf("Lookup(%d) = %d,%v, want %d", k, v, ok, vals[i])
		}
	}
}

func TestFullReconstructionTrigger(t *testing.T) {
	dcfg := rl.DefaultDAREConfig()
	dcfg.SampleCap = 4096
	ix := New(Config{
		Name:                 "Chameleon",
		Dare:                 rl.NewCostDARE(dcfg),
		ReconstructThreshold: 0.5,
	})
	keys := dataset.Uniform(10_000, 3)
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	if ix.Reconstructions() != 0 {
		t.Fatal("fresh index already reconstructed")
	}
	// 0.5 × 10k = 5k updates trigger a rebuild.
	base := keys[len(keys)-1]
	for i := uint64(1); i <= 6000; i++ {
		if err := ix.Insert(base+i*7, i); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Reconstructions() == 0 {
		t.Fatal("threshold crossed but no reconstruction ran")
	}
	if ix.Len() != 16_000 {
		t.Fatalf("Len = %d after reconstruction", ix.Len())
	}
	for i := 0; i < len(keys); i += 97 {
		if _, ok := ix.Lookup(keys[i]); !ok {
			t.Fatalf("reconstruction lost bulk key %d", keys[i])
		}
	}
	for i := uint64(1); i <= 6000; i += 53 {
		if v, ok := ix.Lookup(base + i*7); !ok || v != i {
			t.Fatalf("reconstruction lost inserted key %d", base+i*7)
		}
	}
	// The retrainer (if any) must survive a reconstruction.
	ix.StartRetrainer(time.Hour)
	for i := uint64(1); i <= 9000; i++ {
		ix.Insert(base+1_000_000+i*3, i) //nolint:errcheck
	}
	if ix.Reconstructions() < 2 {
		t.Fatalf("second reconstruction missing: %d", ix.Reconstructions())
	}
	ix.StopRetrainer()
}

// TestReconstructKeepsConstructionPolicy checks that a runtime
// reconstruction builds with the index's own construction policy: ChaB's
// FixedDARE keeps its 1,024-way root, and without a Dare the default
// search runs under the index's τ, on the smaller reconstruction sample.
func TestReconstructKeepsConstructionPolicy(t *testing.T) {
	keys := dataset.Generate(dataset.FACE, 200_000, 42)
	tauEnv := rl.DefaultEnv()
	tauEnv.Tau = 0.3
	search := rl.DefaultDAREConfig()
	search.SampleCap = reconstructSample
	search.Env = tauEnv
	wantP0, _ := rl.NewCostDARE(search).Parameters(keys, heightFor(len(keys)))
	for _, c := range []struct {
		name   string
		ix     *Index
		wantP0 int
	}{
		{"ChaB", NewChaB(), 1 << 10},
		{"default-tau0.3", New(Config{Tau: 0.3, Policy: rl.NewCostPolicy(tauEnv)}), wantP0},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.ix.BulkLoad(keys, nil); err != nil {
				t.Fatal(err)
			}
			c.ix.Reconstruct()
			if got := c.ix.tree.Load().root.fanout; got != c.wantP0 {
				t.Fatalf("root fanout %d after Reconstruct, want %d", got, c.wantP0)
			}
		})
	}
}

func TestConcurrentRangeAndStatsWithRetrainer(t *testing.T) {
	// Every read-only walk (Range, stopped early and run to the end,
	// AppendPairs, Stats, Bytes, Height and LocalSkewness) reads gate child
	// slots that structural retrains swap, so each must be safe beside them
	// and beside reconstructions. The churner deletes and reinserts every
	// even-indexed key twice, which pushes every gate past the structural
	// ratio, then runs a retrain pass. The odd-indexed keys are never
	// touched, so every walk must return each of them: one skipped interval,
	// or a leaf lost across a subtree swap or a tree swap, shows.
	keys := dataset.Generate(dataset.LOGN, 30_000, 6)
	ix := fastIndex("Chameleon")
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	stored := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		stored[k] = true
	}
	// complete reports the first odd-indexed key in keys[lo:hi] missing from
	// a walk's ascending output ks.
	complete := func(ks []uint64, lo, hi int) string {
		j := 0
		for i := lo | 1; i < hi; i += 2 {
			for j < len(ks) && ks[j] < keys[i] {
				j++
			}
			if j == len(ks) || ks[j] != keys[i] {
				return fmt.Sprintf("untouched key %d (index %d) missing from %d keys", keys[i], i, len(ks))
			}
		}
		return ""
	}
	// ordered reports the first fault of a walk's output: a key out of
	// order, one never stored, or a value other than the key.
	ordered := func(ks, vs []uint64) string {
		for i, k := range ks {
			switch {
			case i > 0 && k <= ks[i-1]:
				return fmt.Sprintf("key %d after %d", k, ks[i-1])
			case !stored[k]:
				return fmt.Sprintf("phantom key %d", k)
			case vs[i] != k:
				return fmt.Sprintf("key %d has value %d", k, vs[i])
			}
		}
		return ""
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(read func() string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if msg := read(); msg != "" {
					t.Error(msg)
					return
				}
			}
		}()
	}
	reader(func() string {
		var ks, vs []uint64
		ix.Range(keys[100], keys[len(keys)-100], func(k, v uint64) bool {
			ks, vs = append(ks, k), append(vs, v)
			return len(ks) < 10
		})
		if len(ks) != 10 || ks[0] < keys[100] {
			return fmt.Sprintf("early-stopped Range emitted %v", ks)
		}
		return ordered(ks, vs)
	})
	reader(func() string {
		var ks, vs []uint64
		ix.Range(keys[100], keys[len(keys)-100], func(k, v uint64) bool {
			ks, vs = append(ks, k), append(vs, v)
			return true
		})
		if msg := ordered(ks, vs); msg != "" {
			return "Range: " + msg
		}
		return complete(ks, 100, len(keys)-99)
	})
	reader(func() string {
		ks, vs := ix.AppendPairs(nil, nil)
		if msg := ordered(ks, vs); msg != "" {
			return "AppendPairs: " + msg
		}
		return complete(ks, 0, len(keys))
	})
	reader(func() string {
		if s := ix.Stats(); s.Nodes < 1 || s.MaxHeight < 2 {
			return fmt.Sprintf("Stats under retraining: %+v", s)
		}
		if h := ix.Height(); h < 2 {
			return fmt.Sprintf("Height under retraining: %d", h)
		}
		if b := ix.Bytes(); b < 16*len(keys) {
			return fmt.Sprintf("Bytes under retraining: %d", b)
		}
		if lsn := ix.LocalSkewness(); !(lsn >= 0) {
			return fmt.Sprintf("LocalSkewness under retraining: %v", lsn)
		}
		return ""
	})
	for round := 0; round < 3; round++ {
		rebuilt := ix.Reconstructions()
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < len(keys); i += 2 {
				if err := ix.Delete(keys[i]); err != nil {
					t.Fatal(err)
				}
				if err := ix.Insert(keys[i], keys[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A reconstruction mid-round resets the drift counters.
		if n := ix.RetrainPass(); n == 0 && ix.Reconstructions() == rebuilt {
			t.Errorf("round %d: churned half the keys twice, yet no gate retrained", round)
		}
	}
	close(done)
	wg.Wait()
	if ix.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(keys))
	}
}

func TestTinyBulkLoads(t *testing.T) {
	for _, keys := range [][]uint64{{42}, {1, 2}, {5, 1 << 60}} {
		ix := fastIndex("Chameleon")
		if err := ix.BulkLoad(keys, nil); err != nil {
			t.Fatalf("%v: %v", keys, err)
		}
		for _, k := range keys {
			if v, ok := ix.Lookup(k); !ok || v != k {
				t.Fatalf("%v: Lookup(%d) = %d,%v", keys, k, v, ok)
			}
		}
		if _, ok := ix.Lookup(3); ok && keys[0] != 3 {
			t.Fatalf("%v: phantom hit", keys)
		}
		if ix.Height() < 1 {
			t.Fatalf("%v: height %d", keys, ix.Height())
		}
	}
}

func TestRootLeafNoGates(t *testing.T) {
	// A root fanout of 1 degenerates to a single leaf: no gates, no locks,
	// but everything must still work, including the retrainer no-op.
	ix := New(Config{
		Name: "Chameleon",
		Dare: rl.FixedDARE{Root: 1},
	})
	keys := dataset.Uniform(1000, 2)
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	if n := len(ix.tree.Load().gates); n != 0 {
		t.Fatalf("degenerate tree registered %d gates", n)
	}
	ix.StartRetrainer(time.Millisecond) // must be a no-op without gates
	if ix.retrainerRunning() {
		t.Fatal("retrainer started without gates")
	}
	for _, k := range keys[:100] {
		if _, ok := ix.Lookup(k); !ok {
			t.Fatalf("lost %d", k)
		}
	}
	if err := ix.Insert(keys[len(keys)-1]+7, 1); err != nil {
		t.Fatal(err)
	}
	if got := ix.RetrainPass(); got != 0 {
		t.Fatalf("RetrainPass on gateless index retrained %d", got)
	}
}

func TestBulkLoadReplacesContents(t *testing.T) {
	ix := fastIndex("Chameleon")
	first := dataset.Uniform(5000, 1)
	if err := ix.BulkLoad(first, nil); err != nil {
		t.Fatal(err)
	}
	second := dataset.Generate(dataset.FACE, 5000, 2)
	if err := ix.BulkLoad(second, nil); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != len(second) {
		t.Fatalf("Len = %d", ix.Len())
	}
	// Old keys must be gone unless they also exist in the new set.
	newSet := map[uint64]bool{}
	for _, k := range second {
		newSet[k] = true
	}
	for i := 0; i < len(first); i += 53 {
		if _, ok := ix.Lookup(first[i]); ok && !newSet[first[i]] {
			t.Fatalf("stale key %d survived reload", first[i])
		}
	}
}

// TestFACEBulkLoadAllocs: a 100 k-key FACE bulk load under the cost
// policies allocates under 2.5× the index it builds: 1.90× with one search
// worker, 2.04× with two. The DARE search's cost walks reuse their slot
// counters (costmodel.Counters, one set per worker, each grown to the
// largest leaf its worker scored, ~1 MB); a fresh set per walk made it
// 40.9 MB for a 5.0 MB index (8.2×). Two workers, whatever the machine's
// CPU count, so the figure does not move with it. Skipped under -race,
// whose instrumentation allocates.
func TestFACEBulkLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	keys := dataset.Generate(dataset.FACE, 100_000, 42)
	dcfg := rl.DefaultDAREConfig()
	dcfg.Workers = 2
	ix := New(Config{Dare: rl.NewCostDARE(dcfg), Policy: rl.NewCostPolicy(dcfg.Env)})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("BulkLoad allocated %.1f MB for %.1f MB of index (%.2f×)", alloc/1e6, float64(ix.Bytes())/1e6, alloc/float64(ix.Bytes()))
	if alloc > 2.5*float64(ix.Bytes()) {
		t.Errorf("BulkLoad allocated %.1f MB, want under 2.5× Bytes() = %.1f MB", alloc/1e6, 2.5*float64(ix.Bytes())/1e6)
	}
}

// TestFirstInsertsAllocs: the first 5,000 inserts into a 400 k-key FACE
// bulk load allocate under 0.1× the index. Every bulk-built leaf sits at
// its Theorem 1 capacity; an EBH leaf grows only past growHeadroom times
// that population, so these inserts land in place (0.03×) instead of
// re-scattering each leaf they reach into a larger slab (0.38× when the
// growth trigger was the build's τ). Skipped under -race, whose
// instrumentation allocates.
func TestFirstInsertsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	keys := dataset.Generate(dataset.FACE, 400_000, 42)
	ix := New(Config{Policy: rl.NewCostPolicy(rl.DefaultEnv()), ReconstructThreshold: -1})
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	fresh := workload.FreshKeys(keys, 5000, 7)
	built := ix.Bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range fresh {
		if err := ix.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	alloc := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d inserts allocated %.2f MB; Bytes() %.2f → %.2f MB", len(fresh), alloc/1e6, float64(built)/1e6, float64(ix.Bytes())/1e6)
	if alloc > 0.1*float64(ix.Bytes()) {
		t.Errorf("%d inserts allocated %.2f MB, want under 0.1× Bytes() = %.2f MB", len(fresh), alloc/1e6, 0.1*float64(ix.Bytes())/1e6)
	}
}

// TestInGapChurnAllocs: a steady stream into a 400 k-key FACE bulk load,
// 50,000 inserts into gaps between its keys, each also deleting the key
// inserted 4,096 before it, allocates under 0.02× the index. A bulk-built
// leaf hashes over its keys' range widened toward its routing cell's
// edges, so a fresh key in the cell lands in place (~0.003×); with the
// interval fitted to the keys, the first such key past a leaf's min or max
// re-scattered the leaf into a new slab (0.25×). Skipped under -race,
// whose instrumentation allocates.
func TestInGapChurnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	keys := dataset.Generate(dataset.FACE, 400_000, 42)
	ix := New(Config{Policy: rl.NewCostPolicy(rl.DefaultEnv()), ReconstructThreshold: -1})
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	const inserts, window = 50_000, 4096
	rng := rand.New(rand.NewPCG(7, 7))
	used := make(map[uint64]bool, inserts)
	fresh := make([]uint64, 0, inserts)
	for len(fresh) < inserts {
		i := rng.IntN(len(keys) - 1)
		if gap := keys[i+1] - keys[i]; gap > 1 {
			if k := keys[i] + 1 + rng.Uint64N(gap-1); !used[k] {
				used[k] = true
				fresh = append(fresh, k)
			}
		}
	}
	built := ix.Bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, k := range fresh {
		if err := ix.Insert(k, k); err != nil {
			t.Fatal(err)
		}
		if i >= window {
			if err := ix.Delete(fresh[i-window]); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	alloc := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d inserts and %d deletes allocated %.2f MB; Bytes() %.2f → %.2f MB", inserts, inserts-window, alloc/1e6, float64(built)/1e6, float64(ix.Bytes())/1e6)
	if alloc > 0.02*float64(ix.Bytes()) {
		t.Errorf("churn allocated %.2f MB, want under 0.02× Bytes() = %.2f MB", alloc/1e6, 0.02*float64(ix.Bytes())/1e6)
	}
}

// TestFACEBulkLoadAtTheorem1Size: a FACE bulk load with the public
// package's default policies keeps every leaf at its Theorem 1 size (about
// 1.67 slots, 27 B, per key at τ = 0.45) and inside the conflict-degree
// bound, because a leaf the configured α cannot flatten climbs the α ladder
// instead of doubling its capacity.
func TestFACEBulkLoadAtTheorem1Size(t *testing.T) {
	if testing.Short() {
		t.Skip("2 M-key bulk load")
	}
	keys := dataset.Generate(dataset.FACE, 2_000_000, 42)
	ix := New(Config{Policy: rl.NewCostPolicy(rl.DefaultEnv())})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	var leaves, over, saturated, slots int
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf == nil {
			for _, c := range n.children {
				walk(c)
			}
			return
		}
		g := n.leaf.Geometry()
		leaves++
		slots += g.Cap
		if g.Cap > max(ebh.CapacityFor(n.leaf.Len(), g.Tau), 8) {
			over++
		}
		if g.Saturated {
			saturated++
		}
	}
	walk(ix.tree.Load().root)
	perKey := float64(ix.Bytes()) / float64(ix.Len())
	st := ix.Stats()
	t.Logf("%d leaves: %.2f slots/key, %.1f B/key, %d above Theorem 1 capacity, %d saturated, MaxError %d",
		leaves, float64(slots)/float64(ix.Len()), perKey, over, saturated, st.MaxError)
	if perKey > 30 {
		t.Errorf("Bytes/Len = %.1f B/key, want ≤ 30 (Theorem 1 sizing is ~27)", perKey)
	}
	if st.MaxError > 128 {
		t.Errorf("MaxError = %d, want ≤ 128 (the conflict-degree bound)", st.MaxError)
	}
	// The bulk load allocates the leaves it keeps, not one per α rung its
	// leaves tried (ebh's climb tries rungs on an occupancy bitmap): 1.11×
	// Bytes() on a 2-vCPU VM, 3.3× when each rung tried built a slab. The
	// race detector's instrumentation allocates too, so the bound is not
	// checked under it; the size and error bounds above are.
	alloc := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("BulkLoad allocated %.1f MB for %.1f MB of index (%.2f×)", alloc/1e6, float64(ix.Bytes())/1e6, alloc/float64(ix.Bytes()))
	if !raceEnabled && alloc > 1.5*float64(ix.Bytes()) {
		t.Errorf("BulkLoad allocated %.1f MB, want at most 1.5× Bytes() = %.1f MB", alloc/1e6, 1.5*float64(ix.Bytes())/1e6)
	}
}

// TestBulkLoadTreeShape bulk-loads 2 M keys of each generator with the
// Config chameleon.New builds and logs the tree's shape. Above 2^20 keys the
// tree has h = 3, where a search that settles on p0 = 1 makes the root one
// leaf (LOGN) or leaves every level-2 node to the fanout policy (UDEN at
// 51.7 B/key): the root must split on every generator, and FACE and UDEN
// must stay near Theorem 1's ~27 B/key.
func TestBulkLoadTreeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("2 M-key bulk loads")
	}
	maxPerKey := map[string]float64{dataset.FACE: 28.5, dataset.UDEN: 30}
	for _, gen := range dataset.Names {
		ix := New(Config{Policy: rl.NewCostPolicy(rl.DefaultEnv())})
		if err := ix.BulkLoad(dataset.Generate(gen, 2_000_000, 42), nil); err != nil {
			t.Fatal(err)
		}
		tr := ix.tree.Load()
		var inner, leaves, empty int
		var walk func(n *node)
		walk = func(n *node) {
			if n.leaf != nil {
				leaves++
				if n.leaf.Len() == 0 {
					empty++
				}
				return
			}
			inner++
			for _, c := range n.children {
				walk(c)
			}
		}
		walk(tr.root)
		perKey := float64(ix.Bytes()) / float64(ix.Len())
		t.Logf("%s: root fanout %d, %d inner nodes, %d leaves (%d empty), %d gates, %.2f B/key",
			gen, tr.root.fanout, inner, leaves, empty, len(tr.gates), perKey)
		if tr.root.fanout <= 1 {
			t.Errorf("%s: the root is one leaf", gen)
		}
		if bound, ok := maxPerKey[gen]; ok && perKey > bound {
			t.Errorf("%s: %.2f B/key, want ≤ %.1f", gen, perKey, bound)
		}
	}
}
