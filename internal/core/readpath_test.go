package core

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chameleon/internal/dataset"
	"chameleon/internal/ilock"
)

const tornSalt = 0x9E3779B97F4A7C15

// TestOptimisticTornReadOracle is the seqlock oracle of DESIGN.md §13: N
// optimistic readers race writers churning half the key space plus forced
// light/structural retrains and full reconstructions. Every value the read
// path returns must be exactly key^salt — a torn probe (key from one write,
// value from another, or a half-applied rescatter) can produce nothing of
// that shape. Stable keys must always be found; keys never inserted must
// never be found (no phantoms). Run under -race: the race detector
// additionally proves every racing access is atomic. It runs once over a
// gated tree and once over a tree whose root is a leaf, so both ways into
// the optimistic loop (gate interval and fallback interval) are raced.
func TestOptimisticTornReadOracle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		gated bool
	}{
		{"Gated", 20_000, true},
		{"Gateless", 100, false},
	} {
		t.Run(tc.name, func(t *testing.T) { tornReadOracle(t, tc.n, tc.gated) })
	}
}

// requireShape fails the test unless ix's tree has gates exactly when gated
// is set, so a table row cannot silently change shape.
func requireShape(t *testing.T, ix *Index, gated bool) {
	t.Helper()
	if g := len(ix.tree.Load().gates); (g > 0) != gated {
		t.Fatalf("tree over %d keys has %d gates, want gated=%v", ix.Len(), g, gated)
	}
}

// tornReadOracle runs the oracle over n stable keys; gated says whether the
// bulk-loaded tree must have gates.
func tornReadOracle(t *testing.T, n int, gated bool) {
	// Stable keys: even multiples of 4. Churn keys: multiples of 4 plus 2
	// (inserted and deleted forever). Odd keys: never present (phantoms).
	base := make([]uint64, n)
	for i := range base {
		base[i] = uint64(i) * 4
	}
	vals := make([]uint64, n)
	for i, k := range base {
		vals[i] = k ^ tornSalt
	}
	ix := New(Config{ReconstructThreshold: -1})
	if err := ix.BulkLoad(base, vals); err != nil {
		t.Fatal(err)
	}
	requireShape(t, ix, gated)

	dur := 1200 * time.Millisecond
	if testing.Short() {
		dur = 250 * time.Millisecond
	}
	deadline := time.Now().Add(dur)
	stop := make(chan struct{})
	time.AfterFunc(time.Until(deadline), func() { close(stop) })

	var wg sync.WaitGroup
	var lookups atomic.Uint64

	const writers = 2
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 7))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(n))*4 + 2
				if err := ix.Insert(k, k^tornSalt); err == nil {
					ix.Delete(k) //nolint:errcheck
				}
			}
		}(w)
	}

	// Forced maintenance: light+structural retrain passes and periodic full
	// reconstructions, so optimistic readers race every kind of swap.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			ix.RetrainPass()
			if i%5 == 4 {
				ix.Reconstruct()
			}
			i++
		}
	}()

	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 99))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(3) {
				case 0: // stable key: must be found with the exact value
					k := uint64(rng.Intn(n)) * 4
					v, ok := ix.Lookup(k)
					if !ok {
						t.Errorf("stable key %d not found", k)
						return
					}
					if v != k^tornSalt {
						t.Errorf("TORN READ: key %d returned %#x, want %#x", k, v, k^tornSalt)
						return
					}
				case 1: // churn key: may or may not exist, value must match
					k := uint64(rng.Intn(n))*4 + 2
					if v, ok := ix.Lookup(k); ok && v != k^tornSalt {
						t.Errorf("TORN READ: churn key %d returned %#x, want %#x", k, v, k^tornSalt)
						return
					}
				default: // phantom: never inserted, must never be found
					k := uint64(rng.Intn(4*n))&^1 + 1
					if v, ok := ix.Lookup(k); ok {
						t.Errorf("PHANTOM: absent key %d returned %#x", k, v)
						return
					}
				}
				lookups.Add(1)
			}
		}(r)
	}
	wg.Wait()
	if lookups.Load() == 0 {
		t.Fatal("oracle performed no lookups")
	}
	t.Logf("oracle: %d validated lookups, %d fallbacks, %d gates at the end",
		lookups.Load(), ix.ReadFallbacks(), len(ix.tree.Load().gates))
}

// TestLookupFallbackOnHeldWriteLock pins a key's interval under an exclusive
// write lock and checks, for Lookup and for a Range over that interval, that
// the read blocks until release — Lookup once its optimistic attempts give
// up, Range on its read lock — still returns exactly the right answer, and —
// for Lookup — accounts the fallback. It runs over a gated tree (the interval is a gate)
// and over a tree whose root is a leaf (the interval is the fallback one).
func TestLookupFallbackOnHeldWriteLock(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		gated bool
	}{
		{"Gated", 50_000, true},
		{"Gateless", 100, false},
	} {
		t.Run(tc.name, func(t *testing.T) { fallbackOnHeldWriteLock(t, tc.n, tc.gated) })
	}
}

// fallbackOnHeldWriteLock runs the held-lock check over n uniform keys;
// gated says whether the bulk-loaded tree must have gates.
func fallbackOnHeldWriteLock(t *testing.T, n int, gated bool) {
	keys := dataset.Uniform(n, 11)
	ix := New(Config{ReconstructThreshold: -1})
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	requireShape(t, ix, gated)
	m := len(keys) / 2
	k := keys[m]

	// Find the interval guarding k the same way the read path does.
	tr := ix.tree.Load()
	nd := tr.root
	for nd.leaf == nil && nd.gateBase == noGate {
		nd = nd.children[route(k, nd)]
	}
	id := tr.fallbackID()
	if nd.leaf == nil {
		id = nd.gateBase + uint64(route(k, nd))
	}

	for _, tc := range []struct {
		name      string
		read      func() []uint64 // flattened (key, value) pairs found
		want      []uint64
		fallbacks bool // the read is accounted in ReadFallbacks
	}{
		{
			name: "Lookup",
			read: func() []uint64 {
				if v, ok := ix.Lookup(k); ok {
					return []uint64{k, v}
				}
				return nil
			},
			want:      []uint64{k, k},
			fallbacks: true,
		},
		{
			name: "Range",
			read: func() []uint64 {
				var got []uint64
				ix.Range(keys[m-5], keys[m+5], func(key, val uint64) bool {
					got = append(got, key, val)
					return true
				})
				return got
			},
			want: func() []uint64 {
				var w []uint64
				for _, key := range keys[m-5 : m+6] {
					w = append(w, key, key)
				}
				return w
			}(),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr.locks.LockWrite(id)
			before := ix.ReadFallbacks()
			got := make(chan []uint64, 1)
			go func() { got <- tc.read() }()
			// The read must be blocked in the locked path now, not returning
			// what it probed during the exclusive section.
			select {
			case r := <-got:
				tr.locks.UnlockWrite(id)
				t.Fatalf("%s returned %v while the interval was write-locked", tc.name, r)
			case <-time.After(50 * time.Millisecond):
			}
			tr.locks.UnlockWrite(id)
			select {
			case r := <-got:
				if !slices.Equal(r, tc.want) {
					t.Fatalf("locked-path %s = %v, want %v", tc.name, r, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s never completed after the write lock was released", tc.name)
			}
			if after := ix.ReadFallbacks(); tc.fallbacks && after <= before {
				t.Fatalf("ReadFallbacks = %d, want > %d (retry exhaustion must be accounted)", after, before)
			}
		})
	}
}

// TestInstallTreeSizesLockTable is the satellite regression for the modulo
// aliasing hazard: every published snapshot must carry a lock table of
// len(gates)+1 slots so two distinct live intervals can never share a slot
// (and falsely serialize). It checks the invariant across bulk load and
// reconstruction, and that installTree repairs a deliberately undersized
// table.
func TestInstallTreeSizesLockTable(t *testing.T) {
	keys := dataset.Uniform(80_000, 3)
	ix := New(Config{ReconstructThreshold: -1})
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		tr := ix.tree.Load()
		if got, want := tr.locks.Len(), len(tr.gates)+1; got != want {
			t.Fatalf("%s: lock table has %d slots for %d gates, want %d", when, got, len(tr.gates), want)
		}
	}
	check("after BulkLoad")
	ix.Reconstruct()
	check("after Reconstruct")

	// installTree must repair an undersized table rather than publish
	// aliased intervals.
	tr := ix.tree.Load()
	if len(tr.gates) < 2 {
		t.Skip("tree too small to alias")
	}
	broken := &tree{root: tr.root, gates: tr.gates, h: tr.h, locks: ilock.New(1)}
	ix.rebuildMu.Lock()
	ix.installTree(broken, ix.Len())
	ix.rebuildMu.Unlock()
	check("after installing an undersized table")
}
