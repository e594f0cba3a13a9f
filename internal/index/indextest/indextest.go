// Package indextest provides the differential test battery every index
// structure in this repository runs against: bulk-load/lookup conformance,
// a randomized operation stream checked against a map oracle, and ordered
// range-scan verification for structures that support it.
package indextest

import (
	"errors"
	"math/rand/v2"
	"sort"
	"testing"

	"chameleon/internal/dataset"
	"chameleon/internal/index"
)

// Options tunes the battery for a structure's capabilities.
type Options struct {
	N        int  // bulk-load size (default 20_000)
	Ops      int  // oracle operation count (default 40_000)
	ReadOnly bool // structure rejects Insert/Delete with ErrReadOnly
}

// seed drives every generated key set and operation stream.
const seed = 42

func (o Options) defaults() Options {
	if o.N == 0 {
		o.N = 20_000
	}
	if o.Ops == 0 {
		o.Ops = 40_000
	}
	return o
}

// Run executes the full battery against fresh instances from build.
func Run(t *testing.T, build index.Builder, o Options) {
	t.Helper()
	o = o.defaults()
	t.Run("BulkLookup", func(t *testing.T) { bulkLookup(t, build, o) })
	t.Run("EmptyIndex", func(t *testing.T) { empty(t, build, o) })
	t.Run("Oracle", func(t *testing.T) { oracle(t, build, o) })
	t.Run("Values", func(t *testing.T) { values(t, build, o) })
	t.Run("Bytes", func(t *testing.T) { bytes(t, build, o) })
	t.Run("LargeKeys", func(t *testing.T) { largeKeys(t, build, o) })
	if _, ok := build().(index.RangeIndex); ok {
		t.Run("Range", func(t *testing.T) { ranges(t, build, o) })
		if !o.ReadOnly {
			t.Run("RangeAfterChurn", func(t *testing.T) { rangeAfterChurn(t, build, o) })
		}
	}
}

func bulkLookup(t *testing.T, build index.Builder, o Options) {
	t.Helper()
	for _, name := range dataset.Names {
		keys := dataset.Generate(name, o.N, seed)
		ix := build()
		if err := ix.BulkLoad(keys, nil); err != nil {
			t.Fatalf("%s/%s: BulkLoad: %v", ix.Name(), name, err)
		}
		if ix.Len() != len(keys) {
			t.Fatalf("%s/%s: Len = %d, want %d", ix.Name(), name, ix.Len(), len(keys))
		}
		for i := 0; i < len(keys); i += 37 {
			if v, ok := ix.Lookup(keys[i]); !ok || v != keys[i] {
				t.Fatalf("%s/%s: Lookup(%d) = %d,%v", ix.Name(), name, keys[i], v, ok)
			}
		}
		for i := 1; i < len(keys); i += 509 {
			if keys[i]-keys[i-1] > 2 {
				if _, ok := ix.Lookup(keys[i] - 1); ok {
					t.Fatalf("%s/%s: phantom hit on %d", ix.Name(), name, keys[i]-1)
				}
			}
		}
	}
}

func empty(t *testing.T, build index.Builder, o Options) {
	t.Helper()
	ix := build()
	if _, ok := ix.Lookup(123); ok {
		t.Fatalf("%s: hit on empty index", ix.Name())
	}
	if err := ix.BulkLoad(nil, nil); err != nil {
		t.Fatalf("%s: empty BulkLoad: %v", ix.Name(), err)
	}
	if ix.Len() != 0 {
		t.Fatalf("%s: Len = %d on empty index", ix.Name(), ix.Len())
	}
	if o.ReadOnly {
		if err := ix.Insert(1, 1); !errors.Is(err, index.ErrReadOnly) {
			t.Fatalf("%s: Insert on read-only = %v", ix.Name(), err)
		}
		if err := ix.Delete(1); !errors.Is(err, index.ErrReadOnly) {
			t.Fatalf("%s: Delete on read-only = %v", ix.Name(), err)
		}
		return
	}
	if err := ix.Insert(7, 70); err != nil {
		t.Fatalf("%s: Insert into empty: %v", ix.Name(), err)
	}
	if v, ok := ix.Lookup(7); !ok || v != 70 {
		t.Fatalf("%s: Lookup after insert = %d,%v", ix.Name(), v, ok)
	}
	if err := ix.Delete(7); err != nil {
		t.Fatalf("%s: Delete: %v", ix.Name(), err)
	}
	if err := ix.Delete(7); !errors.Is(err, index.ErrKeyNotFound) {
		t.Fatalf("%s: double delete = %v", ix.Name(), err)
	}
}

func oracle(t *testing.T, build index.Builder, o Options) {
	t.Helper()
	keys := dataset.Generate(dataset.OSMC, o.N, seed)
	ix := build()
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	oracle := make(map[uint64]uint64, len(keys))
	for _, k := range keys {
		oracle[k] = k
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x1234))
	span := keys[len(keys)-1] + (keys[len(keys)-1]-keys[0])/8
	for op := 0; op < o.Ops; op++ {
		k := rng.Uint64N(span)
		kind := rng.IntN(3)
		if o.ReadOnly {
			kind = 0
			// Bias half the probes to present keys so hits are exercised.
			if op%2 == 0 {
				k = keys[rng.IntN(len(keys))]
			}
		}
		switch kind {
		case 0:
			want, wantOK := oracle[k]
			got, ok := ix.Lookup(k)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("%s op %d: Lookup(%d) = %d,%v, oracle %d,%v",
					ix.Name(), op, k, got, ok, want, wantOK)
			}
		case 1:
			err := ix.Insert(k, k^0xABCD)
			if _, dup := oracle[k]; dup {
				if !errors.Is(err, index.ErrDuplicateKey) {
					t.Fatalf("%s op %d: dup insert = %v", ix.Name(), op, err)
				}
			} else if err != nil {
				t.Fatalf("%s op %d: insert = %v", ix.Name(), op, err)
			} else {
				oracle[k] = k ^ 0xABCD
			}
		case 2:
			err := ix.Delete(k)
			if _, present := oracle[k]; present {
				if err != nil {
					t.Fatalf("%s op %d: delete = %v", ix.Name(), op, err)
				}
				delete(oracle, k)
			} else if !errors.Is(err, index.ErrKeyNotFound) {
				t.Fatalf("%s op %d: absent delete = %v", ix.Name(), op, err)
			}
		}
	}
	if ix.Len() != len(oracle) {
		t.Fatalf("%s: final Len = %d, oracle %d", ix.Name(), ix.Len(), len(oracle))
	}
	for k, v := range oracle {
		if got, ok := ix.Lookup(k); !ok || got != v {
			t.Fatalf("%s: final Lookup(%d) = %d,%v, want %d", ix.Name(), k, got, ok, v)
		}
	}
}

func values(t *testing.T, build index.Builder, o Options) {
	t.Helper()
	keys := dataset.Uniform(o.N/4, seed)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)*13 + 5
	}
	ix := build()
	if err := ix.BulkLoad(keys, vals); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); i += 11 {
		if v, ok := ix.Lookup(keys[i]); !ok || v != vals[i] {
			t.Fatalf("%s: value mismatch for %d: %d,%v want %d", ix.Name(), keys[i], v, ok, vals[i])
		}
	}
}

func bytes(t *testing.T, build index.Builder, o Options) {
	t.Helper()
	small, big := build(), build()
	if err := small.BulkLoad(dataset.Uniform(1000, seed), nil); err != nil {
		t.Fatal(err)
	}
	if err := big.BulkLoad(dataset.Uniform(o.N, seed), nil); err != nil {
		t.Fatal(err)
	}
	if small.Bytes() <= 0 || big.Bytes() <= small.Bytes() {
		t.Fatalf("%s: Bytes not monotone: %d vs %d", small.Name(), small.Bytes(), big.Bytes())
	}
}

// largeKeys runs key sets where float64 loses precision: near 2⁶⁴−1,
// around 2⁶³, and split between 0 and 2⁶⁴−1. Each bulk-loads half its keys
// and inserts the other half (read-only structures only look up the loaded
// half), then every key must be found and a full Range must yield them in
// order.
func largeKeys(t *testing.T, build index.Builder, o Options) {
	t.Helper()
	n := o.N / 4
	const top = ^uint64(0)
	shapes := []struct {
		name string
		key  func(i int) uint64
	}{
		{"near 2^64-1", func(i int) uint64 { return top - uint64(n-1-i)*37 }},
		{"around 2^63", func(i int) uint64 { return 1<<63 + uint64(i-n/2)*37 }},
		{"split 0 and 2^64-1", func(i int) uint64 {
			if i < n/2 {
				return uint64(i) * 37
			}
			return top - uint64(n-1-i)*37
		}},
	}
	for _, sh := range shapes {
		var loaded, inserted []uint64
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				loaded = append(loaded, sh.key(i))
			} else {
				inserted = append(inserted, sh.key(i))
			}
		}
		ix := build()
		if err := ix.BulkLoad(loaded, nil); err != nil {
			t.Fatalf("%s/%s: BulkLoad: %v", ix.Name(), sh.name, err)
		}
		want := loaded
		if !o.ReadOnly {
			for _, k := range inserted {
				if err := ix.Insert(k, k); err != nil {
					t.Fatalf("%s/%s: Insert(%d): %v", ix.Name(), sh.name, k, err)
				}
			}
			want = append(append([]uint64(nil), loaded...), inserted...)
			sortU64(want)
		}
		if ix.Len() != len(want) {
			t.Fatalf("%s/%s: Len = %d, want %d", ix.Name(), sh.name, ix.Len(), len(want))
		}
		for _, k := range want {
			if v, ok := ix.Lookup(k); !ok || v != k {
				t.Fatalf("%s/%s: Lookup(%d) = %d,%v", ix.Name(), sh.name, k, v, ok)
			}
		}
		rix, ok := ix.(index.RangeIndex)
		if !ok {
			continue
		}
		i := 0
		rix.Range(0, top, func(k, _ uint64) bool {
			if i >= len(want) || k != want[i] {
				t.Fatalf("%s/%s: Range yielded %d at position %d", ix.Name(), sh.name, k, i)
			}
			i++
			return true
		})
		if i != len(want) {
			t.Fatalf("%s/%s: Range yielded %d keys, want %d", ix.Name(), sh.name, i, len(want))
		}
	}
}

func ranges(t *testing.T, build index.Builder, o Options) {
	t.Helper()
	keys := dataset.Generate(dataset.LOGN, o.N, seed)
	ix := build().(index.RangeIndex)
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	lo, hi := keys[o.N/8], keys[o.N/2]
	want := o.N/2 - o.N/8 + 1
	got := 0
	prev := uint64(0)
	ix.Range(lo, hi, func(k, v uint64) bool {
		if k < lo || k > hi {
			t.Fatalf("%s: range emitted %d outside [%d,%d]", ix.Name(), k, lo, hi)
		}
		if got > 0 && k <= prev {
			t.Fatalf("%s: range out of order: %d after %d", ix.Name(), k, prev)
		}
		prev = k
		got++
		return true
	})
	if got != want {
		t.Fatalf("%s: range returned %d keys, want %d", ix.Name(), got, want)
	}
}

// rangeAfterChurn verifies ordered, complete range output after a mixed
// update stream (only for updatable structures with Range support).
func rangeAfterChurn(t *testing.T, build index.Builder, o Options) {
	t.Helper()
	keys := dataset.Generate(dataset.FACE, o.N/2, seed)
	ix := build().(index.RangeIndex)
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64]uint64{}
	for _, k := range keys {
		oracle[k] = k
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x77))
	span := keys[len(keys)-1] + 1<<16
	for op := 0; op < o.Ops/2; op++ {
		k := rng.Uint64N(span)
		if op%2 == 0 {
			if err := ix.Insert(k, k^0x5a); err == nil {
				oracle[k] = k ^ 0x5a
			}
		} else if err := ix.Delete(k); err == nil {
			delete(oracle, k)
		}
	}
	lo, hi := keys[len(keys)/8], keys[len(keys)/2]
	want := make([]uint64, 0)
	for k := range oracle {
		if k >= lo && k <= hi {
			want = append(want, k)
		}
	}
	sortU64(want)
	got := make([]uint64, 0, len(want))
	ix.Range(lo, hi, func(k, v uint64) bool {
		if v != oracle[k] {
			t.Fatalf("%s: range value for %d: %d, want %d", ix.Name(), k, v, oracle[k])
		}
		got = append(got, k)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("%s: churned range returned %d keys, want %d", ix.Name(), len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: churned range order at %d: %d vs %d", ix.Name(), i, got[i], want[i])
		}
	}
}

func sortU64(s []uint64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
