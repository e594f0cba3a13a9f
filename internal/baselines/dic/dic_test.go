package dic

import (
	"testing"

	"chameleon/internal/dataset"
	"chameleon/internal/index"
	"chameleon/internal/index/indextest"
)

func TestBattery(t *testing.T) {
	indextest.Run(t, func() index.Index { return New() },
		indextest.Options{ReadOnly: true})
}

func TestAgentPrefersHashForDensePartitions(t *testing.T) {
	// On heavily clustered data, large partitions (log2(n) probes by binary
	// search) should be hashed by the learned policy.
	ix := New()
	keys := dataset.Generate(dataset.FACE, 100_000, 1)
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	if ix.hashParts == 0 {
		t.Fatal("agent never chose the hash structure on dense data")
	}
	for i := 0; i < len(keys); i += 97 {
		if v, ok := ix.Lookup(keys[i]); !ok || v != keys[i] {
			t.Fatalf("Lookup(%d) = %d,%v", keys[i], v, ok)
		}
	}
}

func TestTinyDataset(t *testing.T) {
	ix := New()
	if err := ix.BulkLoad([]uint64{5, 9, 12}, nil); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{5, 9, 12} {
		if _, ok := ix.Lookup(k); !ok {
			t.Fatalf("lost key %d", k)
		}
	}
	if _, ok := ix.Lookup(7); ok {
		t.Fatal("phantom hit")
	}
}
