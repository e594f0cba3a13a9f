package rs

import (
	"testing"

	"chameleon/internal/dataset"
	"chameleon/internal/index"
	"chameleon/internal/index/indextest"
)

func TestBattery(t *testing.T) {
	indextest.Run(t, func() index.Index { return New(0, 0) },
		indextest.Options{ReadOnly: true})
}

func TestSplinePredictionWithinEpsilon(t *testing.T) {
	for _, name := range dataset.Names {
		keys := dataset.Generate(name, 30_000, 21)
		ix := New(16, 12)
		if err := ix.BulkLoad(keys, nil); err != nil {
			t.Fatal(err)
		}
		for rank, k := range keys {
			b := (k - ix.minKey) >> ix.shift
			lo := int(ix.radix[b])
			if lo > 0 {
				lo--
			}
			i := lo
			for i+1 < len(ix.knots) && ix.knots[i+1].key <= k {
				i++
			}
			pred := ix.predict(i, k)
			d := pred - rank
			if d < 0 {
				d = -d
			}
			if d > 16 {
				t.Fatalf("%s: key %d rank %d predicted %d (err %d > ε)", name, k, rank, pred, d)
			}
		}
	}
}

func TestSmallerEpsilonMoreKnots(t *testing.T) {
	keys := dataset.Generate(dataset.FACE, 30_000, 2)
	tight, loose := New(4, 12), New(128, 12)
	if err := tight.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	if err := loose.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	if len(tight.knots) <= len(loose.knots) {
		t.Fatalf("ε=4 knots %d not above ε=128 knots %d", len(tight.knots), len(loose.knots))
	}
}

func TestOutOfRangeKeys(t *testing.T) {
	keys := dataset.Uniform(1000, 4)
	ix := New(0, 0)
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.Lookup(keys[0] - 1); ok {
		t.Fatal("hit below minimum key")
	}
	if _, ok := ix.Lookup(keys[len(keys)-1] + 1); ok {
		t.Fatal("hit above maximum key")
	}
}
