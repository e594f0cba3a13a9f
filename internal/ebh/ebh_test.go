package ebh

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"chameleon/internal/dataset"
)

func TestCapacityForTheorem1(t *testing.T) {
	// Paper's worked example: n=7, τ=0.45 needs capacity of about 10.
	got := CapacityFor(7, 0.45)
	if got < 10 || got > 11 {
		t.Fatalf("CapacityFor(7, 0.45) = %d, want ≈ 10 (paper example)", got)
	}
	// Theorem 1 inequality holds for a spread of n and τ.
	for _, n := range []int{2, 10, 1000, 1 << 20} {
		for _, tau := range []float64{0.1, 0.45, 0.9} {
			c := CapacityFor(n, tau)
			if float64(c) < float64(n-1)/-math.Log(1-tau) {
				t.Errorf("CapacityFor(%d, %v) = %d violates Theorem 1", n, tau, c)
			}
			if c < n {
				t.Errorf("CapacityFor(%d, %v) = %d cannot hold the keys", n, tau, c)
			}
		}
	}
	if CapacityFor(0, 0.45) != 1 || CapacityFor(1, 0.45) != 1 {
		t.Error("degenerate n should yield capacity 1")
	}
}

func TestPaperHashExample(t *testing.T) {
	// Section III worked example: D={3,4,5,6,7,9,11}, c=10, α=131, interval
	// [3, 11]: predicted positions 0,3,7,1,5,2,7 and conflict degree 1.
	nd := New(3, 11, 1, 0.45, 131)
	nd.p.Store(newProbe(3, 11, 10, 131))
	pr := nd.p.Load()
	// The paper lists 0,3,7,1,5,2,7; for k=11 its own formula evaluates to
	// 131·(10/8·8) mod 10 = 1310 mod 10 = 0, so we check 0 there (the listed
	// 7 appears to be a typo — the example's conflict degree of 1 holds
	// either way because slot 0 then carries two keys).
	want := []int{0, 3, 7, 1, 5, 2, 0}
	keys := []uint64{3, 4, 5, 6, 7, 9, 11}
	for i, k := range keys {
		if got := pr.home(k); got != want[i] {
			t.Errorf("home(%d) = %d, want %d", k, got, want[i])
		}
	}
	for _, k := range keys {
		if !nd.Insert(k, k) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if nd.ConflictDegree() != 1 {
		t.Errorf("conflict degree = %d, want 1 (paper example)", nd.ConflictDegree())
	}
}

func TestInsertLookupDelete(t *testing.T) {
	nd := New(0, 1<<20, 16, 0, 0)
	const n = 5000
	rng := rand.New(rand.NewPCG(1, 2))
	present := map[uint64]uint64{}
	for len(present) < n {
		k := rng.Uint64N(1 << 20)
		if _, ok := present[k]; ok {
			if nd.Insert(k, k) {
				t.Fatalf("duplicate insert of %d succeeded", k)
			}
			continue
		}
		v := rng.Uint64()
		if !nd.Insert(k, v) {
			t.Fatalf("insert %d failed", k)
		}
		present[k] = v
	}
	if nd.Len() != n {
		t.Fatalf("Len = %d, want %d", nd.Len(), n)
	}
	for k, v := range present {
		got, ok := nd.Lookup(k)
		if !ok || got != v {
			t.Fatalf("Lookup(%d) = %d,%v, want %d,true", k, got, ok, v)
		}
	}
	// Delete half, verify the survivors and the removed.
	i := 0
	for k := range present {
		if i%2 == 0 {
			if !nd.Delete(k) {
				t.Fatalf("Delete(%d) failed", k)
			}
			if nd.Delete(k) {
				t.Fatalf("double Delete(%d) succeeded", k)
			}
			delete(present, k)
		}
		i++
	}
	for k, v := range present {
		if got, ok := nd.Lookup(k); !ok || got != v {
			t.Fatalf("after deletes Lookup(%d) = %d,%v, want %d,true", k, got, ok, v)
		}
	}
	if nd.Len() != len(present) {
		t.Fatalf("Len = %d, want %d", nd.Len(), len(present))
	}
}

func TestConflictDegreeIsValidBound(t *testing.T) {
	// Property: after arbitrary inserts, ErrorStats' max error never exceeds
	// the recorded conflict degree — cd really is an upper bound (Def. 2).
	f := func(raw []uint64) bool {
		keys := dataset.SortDedup(raw)
		if len(keys) == 0 {
			return true
		}
		nd := NewFromSorted(keys[0], keys[len(keys)-1], keys, nil, 0, 0)
		maxErr, _ := nd.ErrorStats()
		return maxErr <= nd.ConflictDegree()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCollisionRateUnderTau(t *testing.T) {
	// Theorem 1: with capacity from CapacityFor, the fraction of keys that
	// land on an occupied home slot stays near or below τ even on a densely
	// skewed interval.
	keys := dataset.Clustered(20000, 3, 0.8, 1, 64)
	keys = dataset.SortDedup(keys)
	nd := NewFromSorted(keys[0], keys[len(keys)-1], keys, nil, 0.45, 0)
	_, sum := nd.ErrorStats()
	avg := sum / float64(nd.Len())
	// Offsets above zero mark collisions; mean offset ≤ 1 implies the vast
	// majority of keys sit at or adjacent to their home slot.
	if avg > 1.0 {
		t.Fatalf("mean placement offset %.3f too high for τ=0.45", avg)
	}
}

func TestLocallySkewedDataFlattened(t *testing.T) {
	// The paper's core claim for EBH: densely clustered keys scatter across
	// slots instead of piling up, keeping the conflict degree small.
	keys := make([]uint64, 0, 4096)
	for i := uint64(0); i < 4096; i++ {
		keys = append(keys, 1<<30+i) // a contiguous run: maximal local skew
	}
	nd := NewFromSorted(keys[0], keys[len(keys)-1], keys, nil, 0, 0)
	if cd := nd.ConflictDegree(); cd > 8 {
		t.Fatalf("conflict degree %d on a contiguous run; EBH failed to flatten", cd)
	}
	for _, k := range keys {
		if _, ok := nd.Lookup(k); !ok {
			t.Fatalf("key %d lost", k)
		}
	}
}

func TestExpansionPreservesContents(t *testing.T) {
	nd := New(0, 1<<40, 4, 0, 0) // deliberately undersized
	const n = 10000
	for i := uint64(0); i < n; i++ {
		k := i * 977
		if !nd.Insert(k, i) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if nd.Len() != n {
		t.Fatalf("Len = %d, want %d", nd.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := nd.Lookup(i * 977); !ok || v != i {
			t.Fatalf("Lookup(%d) = %d,%v after expansion", i*977, v, ok)
		}
	}
	if nd.Cap() < CapacityFor(n, DefaultTau) {
		t.Fatalf("capacity %d below Theorem 1 bound after growth", nd.Cap())
	}
}

func TestBulkBuiltLeafGrowsWithHysteresis(t *testing.T) {
	// A bulk-built leaf sits at its Theorem 1 capacity c. It takes in-range
	// inserts into the same probe until it holds growHeadroom times the
	// keys Theorem 1 sizes c for, and the insert after that grows it.
	keys := dataset.Uniform(5000, 3)
	nd := NewFromSorted(0, 0, keys, nil, 0, 0)
	c := nd.Cap()
	if want := CapacityFor(len(keys), DefaultTau); c != want {
		t.Fatalf("bulk-built capacity %d, want the Theorem 1 capacity %d", c, want)
	}
	// The largest population that still takes a key in place.
	last := min(c-1, int(growHeadroom*float64(SizingFor(DefaultTau))*float64(c)))
	lo, hi := nd.Interval()
	rng := rand.New(rand.NewPCG(3, 3))
	insert := func() {
		for !nd.Insert(lo+1+rng.Uint64N(hi-lo-1), 0) {
		}
	}
	pr := nd.p.Load()
	for nd.Len() <= last {
		insert()
		if nd.p.Load() != pr {
			t.Fatalf("insert %d of %d published a new probe (capacity %d → %d)",
				nd.Len()-len(keys), last+1-len(keys), c, nd.Cap())
		}
	}
	insert()
	if want := nd.capFor(growthFor(last + 1)); nd.Cap() != want {
		t.Fatalf("after %d in-place inserts the next grew capacity %d → %d, want %d",
			last+1-len(keys), c, nd.Cap(), want)
	}
	checkLeaf(t, nd, nd.base, nd.Len())
	t.Logf("%d keys at %d slots took %d inserts in place", len(keys), c, last+1-len(keys))
}

func TestRetrainRestoresBound(t *testing.T) {
	nd := New(0, 1<<30, 1<<14, 0, 0)
	rng := rand.New(rand.NewPCG(7, 7))
	keys := map[uint64]bool{}
	for len(keys) < 1<<14 {
		k := rng.Uint64N(1 << 30)
		if !keys[k] {
			nd.Insert(k, k)
			keys[k] = true
		}
	}
	// Churn: delete 75%, creating holes and a stale conflict degree.
	for k := range keys {
		if len(keys) <= 1<<12 {
			break
		}
		nd.Delete(k)
		delete(keys, k)
	}
	nd.Retrain()
	maxErr, _ := nd.ErrorStats()
	if maxErr > nd.ConflictDegree() {
		t.Fatalf("retrain broke the cd bound: maxErr %d > cd %d", maxErr, nd.ConflictDegree())
	}
	for k := range keys {
		if _, ok := nd.Lookup(k); !ok {
			t.Fatalf("retrain lost key %d", k)
		}
	}
}

func TestAppendEntries(t *testing.T) {
	keys := []uint64{10, 20, 30, 40, 50}
	nd := NewFromSorted(10, 50, keys, nil, 0, 0)
	gotK, gotV := nd.AppendEntries(nil, nil)
	if len(gotK) != len(keys) || len(gotV) != len(keys) {
		t.Fatalf("AppendEntries returned %d/%d entries, want %d", len(gotK), len(gotV), len(keys))
	}
	seen := map[uint64]bool{}
	for i, k := range gotK {
		if gotV[i] != k {
			t.Fatalf("value mismatch for %d", k)
		}
		seen[k] = true
	}
	for _, k := range keys {
		if !seen[k] {
			t.Fatalf("key %d missing from AppendEntries", k)
		}
	}
}

func TestBytesGrowsWithCapacity(t *testing.T) {
	small := New(0, 100, 8, 0, 0)
	big := New(0, 100, 1<<16, 0, 0)
	if small.Bytes() >= big.Bytes() {
		t.Fatalf("Bytes not monotone in capacity: %d vs %d", small.Bytes(), big.Bytes())
	}
}

func TestLookupAbsentOnEmptyAndMiss(t *testing.T) {
	nd := New(0, 1000, 8, 0, 0)
	if _, ok := nd.Lookup(5); ok {
		t.Fatal("lookup on empty leaf succeeded")
	}
	nd.Insert(5, 50)
	if _, ok := nd.Lookup(6); ok {
		t.Fatal("lookup of absent key succeeded")
	}
	if nd.Delete(6) {
		t.Fatal("delete of absent key succeeded")
	}
}

func TestSingleKeyIntervalDegenerate(t *testing.T) {
	nd := New(42, 42, 1, 0, 0)
	if !nd.Insert(42, 1) {
		t.Fatal("insert into zero-span leaf failed")
	}
	if v, ok := nd.Lookup(42); !ok || v != 1 {
		t.Fatal("lookup in zero-span leaf failed")
	}
}

func TestPathologicalBimodalInsertsTerminate(t *testing.T) {
	// A dense cluster plus a far outlier in one leaf: re-scattering cannot
	// separate them, so the leaf must accept a large conflict degree instead
	// of doubling forever (the OOM regression found via the Fig. 13
	// workload).
	nd := New(0, math.MaxUint64, 4, 0, 0)
	if !nd.Insert(math.MaxUint64-7, 1) {
		t.Fatal("outlier insert failed")
	}
	for i := uint64(0); i < 4096; i++ {
		if !nd.Insert(7_500_000+i*1000, i) {
			t.Fatalf("cluster insert %d failed", i)
		}
	}
	if nd.Len() != 4097 {
		t.Fatalf("Len = %d", nd.Len())
	}
	for i := uint64(0); i < 4096; i += 37 {
		if _, ok := nd.Lookup(7_500_000 + i*1000); !ok {
			t.Fatalf("cluster key %d lost", i)
		}
	}
	if _, ok := nd.Lookup(math.MaxUint64 - 7); !ok {
		t.Fatal("outlier lost")
	}
	// Capacity must stay proportional to the population, not explode.
	if nd.Cap() > 64*nd.Len() {
		t.Fatalf("capacity %d exploded for %d keys", nd.Cap(), nd.Len())
	}
}

func TestRebuildRefitsInterval(t *testing.T) {
	// The bulk interval is the stored keys' min/max (Table II: lk/uk are the
	// node's min/max keys) widened by up to one key span on each side, as
	// far as the routing cell reaches, and rebuilds refit after churn.
	keys := []uint64{100, 200, 300}
	for _, c := range []struct{ cellLo, cellHi, lo, hi uint64 }{
		{0, 1 << 60, 0, 500},     // the low side stops at the cell's edge
		{150, 1 << 60, 100, 300}, // a cell that does not contain the keys
		{60, 420, 60, 420},
	} {
		lo, hi := NewFromSorted(c.cellLo, c.cellHi, keys, nil, 0, 0).Interval()
		if lo != c.lo || hi != c.hi {
			t.Fatalf("keys [100,300] in cell [%d,%d]: interval [%d,%d], want [%d,%d]", c.cellLo, c.cellHi, lo, hi, c.lo, c.hi)
		}
	}
	nd := NewFromSorted(0, 1<<60, keys, nil, 0, 0)
	nd.Delete(100)
	nd.Insert(1<<50, 1)
	nd.Retrain()
	lo, hi := nd.Interval()
	if lo != 200 || hi != 1<<50 {
		t.Fatalf("refit interval [%d,%d], want [200,%d]", lo, hi, uint64(1)<<50)
	}
	for _, k := range []uint64{200, 300, 1 << 50} {
		if _, ok := nd.Lookup(k); !ok {
			t.Fatalf("key %d lost after refit", k)
		}
	}
}

func TestBulkBuiltLeafTakesCellInsertsInPlace(t *testing.T) {
	// A leaf bulk-built inside a wider routing cell hashes over its keys'
	// range widened toward the cell's edges, so inserts between its max key
	// and the cell's edge (and below its min key, as far as one key span)
	// land in the probe it was built with, where a leaf fitted to its keys
	// re-scattered its whole slab on the first of them.
	keys := dataset.Uniform(5000, 11)
	for i := range keys {
		keys[i] += 1 << 40
	}
	kmin, kmax := keys[0], keys[len(keys)-1]
	span := kmax - kmin
	cellLo, cellHi := kmin-3*span, kmax+span/2
	nd := NewFromSorted(cellLo, cellHi, keys, nil, 0, 0)
	if lo, hi := nd.Interval(); lo != kmin-span || hi != cellHi {
		t.Fatalf("interval [%d,%d], want [%d,%d]", lo, hi, kmin-span, cellHi)
	}
	pr := nd.p.Load()
	rng := rand.New(rand.NewPCG(11, 11))
	var fresh []uint64
	for len(fresh) < 400 {
		k := kmax + 1 + rng.Uint64N(cellHi-kmax) // in (kmax, cellHi]
		if len(fresh)%2 == 1 {
			k = kmin - 1 - rng.Uint64N(span) // in [kmin − span, kmin)
		}
		if !nd.Insert(k, k) {
			continue
		}
		fresh = append(fresh, k)
		if nd.p.Load() != pr {
			t.Fatalf("insert %d (key %d) published a new probe", len(fresh), k)
		}
	}
	checkLeaf(t, nd, nd.base, nd.Len())
	for _, k := range append(fresh, keys...) {
		if v, ok := nd.Lookup(k); !ok || v != k {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestOutOfIntervalInsertAfterRefit(t *testing.T) {
	// Regression: once a rebuild refits [lo,hi] to the stored min/max, a
	// subsequent insert below lo computed k−lo on unsigned ints, wrapping to
	// ~2^64. The float64 hash then lost all low-order bits of the key, so
	// every out-of-interval key quantized onto the same clamped edge slot and
	// the probe distance grew linearly with each insert (cd ≈ 57 on this
	// workload before the fix, 0 after). The fix extends the interval with
	// slack before hashing.
	const n, stride = 2000, 20
	base := uint64(1) << 30
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = base + uint64(i)*stride
	}
	nd := NewFromSorted(0, ^uint64(0), keys, nil, 0.45, 1.3)
	nd.Retrain() // refit the interval to the stored min/max
	check := func(k uint64) {
		t.Helper()
		if !nd.Insert(k, k) {
			t.Fatalf("Insert(%d) reported duplicate", k)
		}
		if cd := nd.ConflictDegree(); cd > 16 {
			t.Fatalf("conflict degree %d after inserting %d; out-of-interval keys are piling up", cd, k)
		}
		if v, ok := nd.Lookup(k); !ok || v != k {
			t.Fatalf("Lookup(%d) = %d,%v after out-of-interval insert", k, v, ok)
		}
	}
	for i := uint64(1); i <= 100; i++ {
		check(base - i*32) // below lo
	}
	for i := uint64(1); i <= 100; i++ {
		check(base + n*stride + i*32) // above hi
	}
	// Nothing already stored was lost along the way.
	for _, k := range keys {
		if _, ok := nd.Lookup(k); !ok {
			t.Fatalf("key %d lost after interval extensions", k)
		}
	}
}

func TestLeafPersistRoundTrip(t *testing.T) {
	keys := dataset.Clustered(5000, 9, 0.6, 1, 128)
	keys = dataset.SortDedup(keys)
	nd := NewFromSorted(keys[0], keys[len(keys)-1], keys, nil, 0, 0)
	// Restore keeps the geometry and re-places the keys; the re-derived
	// conflict degree bounds every placement and stays within the probe bound.
	back := restore(t, nd)
	if back.Len() != nd.Len() || back.Geometry() != nd.Geometry() {
		t.Fatalf("shape changed: n %d/%d geometry %+v/%+v", back.Len(), nd.Len(), back.Geometry(), nd.Geometry())
	}
	if maxErr, _ := back.ErrorStats(); maxErr > back.ConflictDegree() || back.ConflictDegree() > maxConflictDegree {
		t.Fatalf("cd %d (bulk load %d), max placement error %d", back.ConflictDegree(), nd.ConflictDegree(), maxErr)
	}
	for i := 0; i < len(keys); i += 13 {
		if v, ok := back.Lookup(keys[i]); !ok || v != keys[i] {
			t.Fatalf("Lookup(%d) = %d,%v after restore", keys[i], v, ok)
		}
	}
	// The restored leaf keeps working for updates (refit factors restored).
	if !back.Insert(keys[len(keys)-1]+77, 1) {
		t.Fatal("insert into restored leaf failed")
	}
}

// runPlusSpread is one leaf's worth of locally skewed keys: a dense run of
// consecutive keys beside evenly spread ones. Under the configured α the
// run's slots crowd into one stretch and the bulk placement overflows the
// conflict-degree bound.
func runPlusSpread() []uint64 {
	var keys []uint64
	for i := uint64(0); i < 1000; i++ {
		keys = append(keys, 1<<20+i)
	}
	for i := uint64(0); i < 2000; i++ {
		keys = append(keys, 1<<21+i*997)
	}
	return keys
}

func TestClusteredBulkLoadKeepsTheorem1Capacity(t *testing.T) {
	keys := runPlusSpread()
	nd := NewFromSorted(0, 0, keys, nil, 0, 0)
	g := nd.Geometry()
	if want := CapacityFor(len(keys), DefaultTau); g.Cap != want {
		t.Errorf("capacity %d, want the Theorem 1 capacity %d", g.Cap, want)
	}
	if cd := nd.ConflictDegree(); cd > maxConflictDegree || g.Saturated {
		t.Errorf("cd %d (saturated %v), want ≤ %d and not saturated", cd, g.Saturated, maxConflictDegree)
	}
	if maxErr, _ := nd.ErrorStats(); maxErr > nd.ConflictDegree() {
		t.Fatalf("cd %d below a placement error of %d", nd.ConflictDegree(), maxErr)
	}
	for _, k := range keys {
		if v, ok := nd.Lookup(k); !ok || v != k {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
}

// TestBulkLoadAllocatesWhatItKeeps pins what a bulk-built leaf that climbs
// the α ladder allocates: the slab it keeps, which also held the abandoned
// placement at the configured α, and a trial occupancy bitmap for the rungs
// it tried. Built as a full probe per rung tried, the leaf allocated three
// slabs.
func TestBulkLoadAllocatesWhatItKeeps(t *testing.T) {
	keys := runPlusSpread()
	const builds = 10
	var nd *Node
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range builds {
		nd = NewFromSorted(0, 0, keys, nil, 0, 0)
	}
	runtime.ReadMemStats(&after)
	if g := nd.Geometry(); g.Alpha == DefaultAlpha || g.Saturated {
		t.Fatalf("leaf at α %v (saturated %v): the test needs one that climbs to another rung", g.Alpha, g.Saturated)
	}
	perBuild := float64(after.TotalAlloc-before.TotalAlloc) / builds
	t.Logf("%.0f B allocated per build, Bytes() %d", perBuild, nd.Bytes())
	if perBuild > 1.5*float64(nd.Bytes()) {
		t.Errorf("a bulk build allocates %.0f B for a leaf of %d B, want at most 1.5×", perBuild, nd.Bytes())
	}
}

func TestChurnAcrossIntervalKeepsGrowthRule(t *testing.T) {
	// Balanced churn: every insert is paired with a delete, and every 40th
	// insert lands just outside the bulk-loaded key range, alternating
	// sides, so the leaf widens its interval with slack. The capacity must
	// stay within the growth rule for the largest population the leaf held.
	rng := rand.New(rand.NewPCG(5, 5))
	keys := dataset.Uniform(5000, 5)
	for i := range keys {
		keys[i] += 1 << 40
	}
	nd := NewFromSorted(0, 0, keys, nil, 0, 0)
	lo0, hi0 := nd.Interval()
	span := hi0 - lo0
	live := append([]uint64(nil), keys...)
	present := map[uint64]bool{}
	for _, k := range keys {
		present[k] = true
	}
	peak, outside := nd.Len(), 0
	for i := 0; i < 20_000; i++ {
		k := lo0 + rng.Uint64N(span)
		switch i % 80 {
		case 0:
			k = lo0 - 1 - rng.Uint64N(span/8)
		case 40:
			k = hi0 + 1 + rng.Uint64N(span/8)
		}
		if present[k] {
			continue
		}
		if lo, hi := nd.Interval(); k < lo || k > hi {
			outside++
		}
		if !nd.Insert(k, k) {
			t.Fatalf("Insert(%d) reported a duplicate", k)
		}
		present[k] = true
		live = append(live, k)
		peak = max(peak, nd.Len())
		j := rng.IntN(len(live))
		if !nd.Delete(live[j]) {
			t.Fatalf("Delete(%d) missed", live[j])
		}
		delete(present, live[j])
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
		if c, bound := nd.Cap(), CapacityFor(peak+max(peak/4, 16), DefaultTau); c > bound {
			t.Fatalf("op %d: capacity %d above %d, the growth rule's for a peak of %d keys", i, c, bound, peak)
		}
	}
	if outside < 2 {
		t.Fatalf("only %d inserts outside the leaf's interval", outside)
	}
	for _, k := range live {
		if v, ok := nd.Lookup(k); !ok || v != k {
			t.Fatalf("Lookup(%d) = %d,%v after churn", k, v, ok)
		}
	}
}

func TestAlphaLadderNeverCompounds(t *testing.T) {
	// A configured α of 1 keeps the hash order-preserving, so a dense run
	// crowds its own stretch of slots and overflows the bound; the leaf
	// climbs the ladder, and repeated overflows move it between the rungs,
	// never past 16× the configured α. playTape and checkLeaf check the rung,
	// the conflict degree and the capacity after every operation.
	const base = 1.0
	if nd := playTape(t, denseRunTape(), base); nd.Geometry().Alpha == base {
		t.Error("the dense-run tape left the leaf at the configured α")
	}
	// Forty dense runs far apart over a 2^40 interval.
	nd := New(0, 1<<40, 16, 0, base)
	climbs, prev := 0, base
	for r := uint64(0); r < 40; r++ {
		start := (r * 7919 % 40) << 34
		for i := uint64(0); i < 400; i++ {
			k := start + i
			if !nd.Insert(k, k) {
				t.Fatalf("Insert(%d) reported a duplicate", k)
			}
			checkLeaf(t, nd, base, nd.Len())
			if a := nd.Geometry().Alpha; a != prev {
				climbs, prev = climbs+1, a
			}
		}
	}
	if climbs < 2 {
		t.Fatalf("α changed %d times over 40 dense runs, want repeated changes", climbs)
	}
	t.Logf("α changed %d times; final α %v, cap %d for %d keys", climbs, nd.Geometry().Alpha, nd.Cap(), nd.Len())
	for r := uint64(0); r < 40; r++ {
		start := (r * 7919 % 40) << 34
		for i := uint64(0); i < 400; i += 7 {
			if _, ok := nd.Lookup(start + i); !ok {
				t.Fatalf("key %d lost", start+i)
			}
		}
	}
}

func TestSaturatedLeafAppendsRescatterRarely(t *testing.T) {
	// A dense run plus a far outlier is a distribution no rung of the
	// ladder spreads, so the leaf is saturated. Ascending keys past its
	// interval then extend the interval with slack at the same capacity,
	// which must leave the leaf saturated rather than re-run the futile
	// ladder trials and a rebuild on every insert. Counted here: the keys
	// every newly published probe re-placed.
	keys := make([]uint64, 0, 1001)
	for i := uint64(0); i < 1000; i++ {
		keys = append(keys, i)
	}
	keys = append(keys, 1<<50)
	nd := NewFromSorted(0, 0, keys, nil, 0, 0)
	if !nd.Geometry().Saturated {
		t.Fatalf("dense run plus outlier not saturated (cd %d)", nd.ConflictDegree())
	}
	const appends = 4000
	var stream []uint64
	for i := uint64(1); i <= appends; i++ {
		stream = append(stream, 1<<50+i<<30)
	}
	replaced := insertAll(t, nd, stream)
	if bound := 4 * nd.Len(); replaced > bound {
		t.Fatalf("%d appends re-placed %d keys, want at most %d", appends, replaced, bound)
	}
	t.Logf("%d appends re-placed %d keys; cap %d for %d keys, saturated %v", appends, replaced, nd.Cap(), nd.Len(), nd.Geometry().Saturated)
	for _, k := range keys {
		if _, ok := nd.Lookup(k); !ok {
			t.Fatalf("key %d lost", k)
		}
	}
}

func TestAppendStreamRegrowsOncePerDoubling(t *testing.T) {
	// An ascending stream fills whatever headroom a leaf is given, so the
	// leaf grows for twice its population, and does so when it widens its
	// interval: it re-places about as many keys as it ends with. Growing
	// by a quarter at a time would re-place several times that.
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i) * 1000
	}
	nd := NewFromSorted(0, 0, keys, nil, 0, 0)
	var stream []uint64
	for i := uint64(1000); i < 30_000; i++ {
		stream = append(stream, i*1000)
	}
	replaced := insertAll(t, nd, stream)
	if bound := 2 * nd.Len(); replaced > bound {
		t.Fatalf("%d ascending inserts re-placed %d keys, want at most %d", len(stream), replaced, bound)
	}
	t.Logf("%d ascending inserts re-placed %d keys; cap %d for %d keys", len(stream), replaced, nd.Cap(), nd.Len())
}

// insertAll inserts keys in order, checking the leaf after each, and
// returns how many keys the leaf re-placed into the probes it published
// along the way.
func insertAll(t *testing.T, nd *Node, keys []uint64) (replaced int) {
	t.Helper()
	pr := nd.p.Load()
	for _, k := range keys {
		if !nd.Insert(k, k) {
			t.Fatalf("Insert(%d) reported a duplicate", k)
		}
		if p := nd.p.Load(); p != pr {
			replaced, pr = replaced+nd.Len()-1, p
		}
		checkLeaf(t, nd, nd.base, nd.Len())
	}
	for _, k := range keys {
		if v, ok := nd.Lookup(k); !ok || v != k {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
	return replaced
}

// TestFillMatchesLivePlace pins that fill, which writes a probe no reader
// can reach with plain stores, leaves the slots, the occupancy bitmap and
// the conflict degree exactly as placing the same entries one at a time
// with the live place does: from sorted keys (a build or a restore) and
// from another probe's slots (a re-scatter or a climb), at every rung of
// the α ladder, on spread, crowded and saturating keys.
func TestFillMatchesLivePlace(t *testing.T) {
	saturating := make([]uint64, 0, 1001)
	for i := uint64(0); i < 1000; i++ {
		saturating = append(saturating, i)
	}
	saturating = append(saturating, 1<<50)
	inputs := []struct {
		name string
		keys []uint64
	}{
		{"face", dataset.Generate(dataset.FACE, 3000, 3)},
		{"runPlusSpread", runPlusSpread()},
		{"saturating", saturating},
	}
	same := func(t *testing.T, got, want *probe) {
		t.Helper()
		if !slices.Equal(got.slots, want.slots) || !slices.Equal(got.occ, want.occ) {
			t.Fatal("slots or occupancy differ from live placement")
		}
		if g, w := got.cd.Load(), want.cd.Load(); g != w {
			t.Fatalf("conflict degree %d, live placement %d", g, w)
		}
	}
	for _, in := range inputs {
		keys := in.keys
		vals := make([]uint64, len(keys))
		for i, k := range keys {
			vals[i] = 3*k + 1
		}
		lo, hi, c := keys[0], keys[len(keys)-1], CapacityFor(len(keys), DefaultTau)
		for _, m := range alphaLadder {
			a := m * DefaultAlpha
			t.Run(fmt.Sprintf("%s/alpha%v", in.name, a), func(t *testing.T) {
				live := newProbe(lo, hi, c, a)
				for i, k := range keys {
					live.place(k, vals[i])
				}
				if in.name == "saturating" && live.cd.Load() <= maxConflictDegree {
					t.Fatalf("cd %d: the input does not saturate", live.cd.Load())
				}
				fresh := newProbe(lo, hi, c, a)
				if !fresh.fill(entries{keys: keys, vals: vals}, math.MaxInt32) {
					t.Fatal("fill stopped without a stop bound")
				}
				same(t, fresh, live)

				// Re-scattered from a probe's slots, at twice the capacity.
				live2 := newProbe(lo, hi, 2*c, a)
				for i := 0; i < live.c; i++ {
					if live.occupied(i) {
						live2.place(live.key(i), live.val(i))
					}
				}
				fresh2 := newProbe(lo, hi, 2*c, a)
				fresh2.fill(entries{from: live}, math.MaxInt32)
				same(t, fresh2, live2)
			})
		}
	}
}
