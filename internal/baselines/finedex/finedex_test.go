package finedex

import (
	"testing"
	"time"

	"chameleon/internal/dataset"
	"chameleon/internal/index"
	"chameleon/internal/index/indextest"
)

func TestBattery(t *testing.T) {
	indextest.Run(t, func() index.Index { return New(0, 0) }, indextest.Options{})
}

func TestSmallBinsForceMerges(t *testing.T) {
	ix := New(32, 16)
	keys := dataset.Generate(dataset.OSMC, 10_000, 3)
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	// Insert between existing keys to fill bins everywhere.
	inserted := 0
	for i := 0; i+1 < len(keys); i += 2 {
		k := keys[i] + (keys[i+1]-keys[i])/2
		if k == keys[i] || k == keys[i+1] {
			continue
		}
		if err := ix.Insert(k, k); err == nil {
			inserted++
		}
	}
	if ix.merges() == 0 {
		t.Fatal("no segment merges despite tiny bins")
	}
	if ix.Len() != len(keys)+inserted {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(keys)+inserted)
	}
	for i := 0; i < len(keys); i += 31 {
		if _, ok := ix.Lookup(keys[i]); !ok {
			t.Fatalf("base key %d lost after merges", keys[i])
		}
	}
}

func TestTombstoneReviveKeepsNewValue(t *testing.T) {
	ix := New(0, 0)
	keys := dataset.Uniform(1000, 1)
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	k := keys[500]
	if err := ix.Delete(k); err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.Lookup(k); ok {
		t.Fatal("deleted key still visible")
	}
	if err := ix.Insert(k, 999); err != nil {
		t.Fatal(err)
	}
	if v, ok := ix.Lookup(k); !ok || v != 999 {
		t.Fatalf("revived key value = %d,%v, want 999", v, ok)
	}
	if err := ix.Insert(k, 1); err != index.ErrDuplicateKey {
		t.Fatalf("re-insert of revived key = %v", err)
	}
}

func TestDeleteFromBin(t *testing.T) {
	ix := New(0, 1024)
	if err := ix.BulkLoad(dataset.Uniform(100, 2), nil); err != nil {
		t.Fatal(err)
	}
	k := uint64(1<<50) + 7
	if err := ix.Insert(k, 5); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(k); err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.Lookup(k); ok {
		t.Fatal("bin delete ineffective")
	}
}

func TestHotSegmentSplitsOnMerge(t *testing.T) {
	// Monotone inserts hammer the last segment; splitting must bound the
	// merge cost and keep the flat model list growing instead.
	ix := New(0, 64)
	if err := ix.BulkLoad(dataset.Uniform(2000, 2), nil); err != nil {
		t.Fatal(err)
	}
	before := len(ix.segs)
	start := time.Now()
	base := uint64(1) << 50
	const n = 60_000
	for i := uint64(0); i < n; i++ {
		if err := ix.Insert(base+i*11, i); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("hot-segment inserts took %v", d)
	}
	if len(ix.segs) <= before {
		t.Fatalf("no segment splits: %d → %d", before, len(ix.segs))
	}
	for _, s := range ix.segs {
		if len(s.keys) > 2*maxSegKeys {
			t.Fatalf("segment with %d keys exceeds bound", len(s.keys))
		}
	}
	for i := uint64(0); i < n; i += 499 {
		if v, ok := ix.Lookup(base + i*11); !ok || v != i {
			t.Fatalf("Lookup(%d) = %d,%v", base+i*11, v, ok)
		}
	}
	if ix.Len() != 2000+n {
		t.Fatalf("Len = %d", ix.Len())
	}
}
