package ebh

import (
	"math"
	"slices"
	"testing"
)

// sortedEntries is what a snapshot stores of a leaf: its entries in key
// order.
func sortedEntries(nd *Node) (ks, vs []uint64) {
	ks, vs = nd.AppendEntries(nil, nil)
	pairs := make([][2]uint64, len(ks))
	for i := range ks {
		pairs[i] = [2]uint64{ks[i], vs[i]}
	}
	slices.SortFunc(pairs, func(a, b [2]uint64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	for i, p := range pairs {
		ks[i], vs[i] = p[0], p[1]
	}
	return ks, vs
}

func restore(t *testing.T, nd *Node) *Node {
	t.Helper()
	ks, vs := sortedEntries(nd)
	back, err := Restore(nd.Geometry(), nd.base, ks, vs)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestLeafRoundTrip(t *testing.T) {
	nd := New(100, 10_000, 64, 0, 0)
	for k := uint64(100); k <= 10_000; k += 97 {
		nd.Insert(k, k*2)
	}
	nd.Delete(100 + 97*3)
	back := restore(t, nd)
	if back.Len() != nd.Len() || back.Cap() != nd.Cap() || back.Geometry() != nd.Geometry() {
		t.Fatalf("shape changed: len %d/%d geometry %+v/%+v", back.Len(), nd.Len(), back.Geometry(), nd.Geometry())
	}
	// The conflict degree is re-derived by the placement and still bounds it.
	if maxErr, _ := back.ErrorStats(); maxErr > back.ConflictDegree() {
		t.Fatalf("cd %d below a placement error of %d", back.ConflictDegree(), maxErr)
	}
	for k := uint64(100); k <= 10_000; k += 97 {
		want, wantOK := nd.Lookup(k)
		got, ok := back.Lookup(k)
		if ok != wantOK || got != want {
			t.Fatalf("Lookup(%d) = %d,%v, want %d,%v", k, got, ok, want, wantOK)
		}
	}
	// The restored leaf accepts further updates.
	if !back.Insert(424242, 1) {
		t.Fatal("insert on restored leaf failed")
	}
}

// TestRestoreKeepsKeyOutsideInterval: an insert that triggers a capacity
// rebuild refits the interval to the keys stored before it when they cover
// less than a quarter of it, so the new key can sit just outside [lo, hi]. Such a leaf is legitimate and must survive a
// save and load (a checkpoint the next open rejected would lose the
// directory).
func TestRestoreKeepsKeyOutsideInterval(t *testing.T) {
	nd := New(0, 1<<20, 1, 0, 0)
	// Fill the leaf with keys 100, 200, … until the next insert must grow it
	// (growHeadroom lets it take keys past its Theorem 1 load first).
	last := uint64(0)
	for !nd.full(nd.Cap()) {
		last += 100
		nd.Insert(last, last)
	}
	far := 2 * last
	nd.Insert(far, far) // needs capacity: rebuilds over [100, last] first
	if g := nd.Geometry(); g.Hi >= far {
		t.Skipf("interval %d..%d covers the key; the rebuild path changed", g.Lo, g.Hi)
	}
	back := restore(t, nd)
	for k := uint64(100); k <= last; k += 100 {
		if v, ok := back.Lookup(k); !ok || v != k {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
	if v, ok := back.Lookup(far); !ok || v != far {
		t.Fatalf("Lookup(%d) = %d,%v after restore", far, v, ok)
	}
}

// TestRestoreRejectsInvariantViolations breaks one input at a time; every
// variant must fail instead of producing a leaf that panics (place: "no free
// slot") or scans unboundedly later.
func TestRestoreRejectsInvariantViolations(t *testing.T) {
	nd := New(0, 1<<20, 32, 0, 0)
	for k := uint64(1); k < 1<<20; k += 1 << 15 {
		nd.Insert(k, k)
	}
	ks, vs := sortedEntries(nd)
	cases := map[string]func(g *Geometry, ks, vs []uint64) ([]uint64, []uint64){
		"zero capacity":     func(g *Geometry, ks, vs []uint64) ([]uint64, []uint64) { g.Cap = 0; return nil, nil },
		"negative capacity": func(g *Geometry, ks, vs []uint64) ([]uint64, []uint64) { g.Cap = -4; return ks, vs },
		"capacity below n":  func(g *Geometry, ks, vs []uint64) ([]uint64, []uint64) { g.Cap = len(ks) - 1; return ks, vs },
		"inverted interval": func(g *Geometry, ks, vs []uint64) ([]uint64, []uint64) { g.Lo, g.Hi = g.Hi+1, g.Lo; return ks, vs },
		"tau out of range":  func(g *Geometry, ks, vs []uint64) ([]uint64, []uint64) { g.Tau = 2; return ks, vs },
		"nan alpha":         func(g *Geometry, ks, vs []uint64) ([]uint64, []uint64) { g.Alpha = math.NaN(); return ks, vs },
		"inf alpha":         func(g *Geometry, ks, vs []uint64) ([]uint64, []uint64) { g.Alpha = math.Inf(1); return ks, vs },
		"negative alpha":    func(g *Geometry, ks, vs []uint64) ([]uint64, []uint64) { g.Alpha = -1; return ks, vs },
		"alpha off ladder":  func(g *Geometry, ks, vs []uint64) ([]uint64, []uint64) { g.Alpha *= 2; return ks, vs },
		"alpha compounded":  func(g *Geometry, ks, vs []uint64) ([]uint64, []uint64) { g.Alpha *= 64; return ks, vs },
		"unsorted keys":     func(g *Geometry, ks, vs []uint64) ([]uint64, []uint64) { ks[0], ks[1] = ks[1], ks[0]; return ks, vs },
		"duplicate key":     func(g *Geometry, ks, vs []uint64) ([]uint64, []uint64) { ks[1] = ks[0]; return ks, vs },
		"missing value":     func(g *Geometry, ks, vs []uint64) ([]uint64, []uint64) { return ks, vs[1:] },
	}
	for name, mutate := range cases {
		g := nd.Geometry()
		mk, mv := mutate(&g, slices.Clone(ks), slices.Clone(vs))
		if _, err := Restore(g, DefaultAlpha, mk, mv); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The untouched input still restores: the harness itself is sound.
	if _, err := Restore(nd.Geometry(), DefaultAlpha, ks, vs); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
}

// TestRestoreBoundsCapacity: a saved capacity far beyond what the key count
// needs (a heavily deleted leaf, or a hostile snapshot) loads at the bound
// instead of allocating it, and the leaf works.
func TestRestoreBoundsCapacity(t *testing.T) {
	nd, err := Restore(Geometry{Lo: 0, Hi: 1 << 30, Cap: 1 << 40, Alpha: DefaultAlpha, Tau: DefaultTau}, DefaultAlpha, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nd.Cap() > maxCapSlack*8 {
		t.Fatalf("empty leaf restored at capacity %d", nd.Cap())
	}
	ks := []uint64{10, 20, 30}
	nd, err = Restore(Geometry{Lo: 10, Hi: 30, Cap: 1 << 40, Alpha: DefaultAlpha, Tau: DefaultTau}, DefaultAlpha, ks, ks)
	if err != nil {
		t.Fatal(err)
	}
	bound := maxCapSlack * max(CapacityFor(len(ks), DefaultTau), 8)
	if nd.Cap() != bound {
		t.Fatalf("capacity %d, want the bound %d", nd.Cap(), bound)
	}
	// A τ near 0 asks for an enormous Theorem 1 capacity; it does not lift
	// the bound.
	tiny, err := Restore(Geometry{Lo: 10, Hi: 30, Cap: 1 << 30, Alpha: DefaultAlpha, Tau: 1e-12}, DefaultAlpha, ks, ks)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Cap() != bound {
		t.Fatalf("capacity %d under a tiny tau, want the bound %d", tiny.Cap(), bound)
	}
	for _, k := range ks {
		if v, ok := nd.Lookup(k); !ok || v != k {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
	if !nd.Insert(25, 25) {
		t.Fatal("insert into bounded leaf failed")
	}
}
