package ebh

import (
	"encoding/binary"
	"testing"
)

// FuzzLeafOps interprets the fuzz input as a hash-factor byte followed by
// an operation tape (1 op byte + 2 key bytes per step, keys confined to a
// small space to force collisions) and plays the tape on one leaf. An odd
// first byte selects α = 1, whose order-preserving hash lets a dense run of
// 16-bit keys crowd its slots past the conflict-degree bound; an even one
// the default α. After every step playTape checks the leaf against a map
// oracle and against its own invariants (see checkLeaf). Run with
// `go test -fuzz FuzzLeafOps ./internal/ebh` for continuous fuzzing; the
// seed corpus runs as part of the normal test suite.
func FuzzLeafOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 2, 0, 2, 1, 0, 0, 1, 0})
	f.Add([]byte{1, 0, 255, 255, 0, 255, 254, 2, 255, 255, 1, 255, 255})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		alpha := float64(DefaultAlpha)
		if data[0]&1 == 1 {
			alpha = 1
		}
		playTape(t, data[1:], alpha)
	})
}

// playTape plays an operation tape on a leaf configured with alpha and
// returns the leaf.
func playTape(t *testing.T, data []byte, alpha float64) *Node {
	t.Helper()
	nd := New(0, 1<<16, 4, 0, alpha)
	oracle := map[uint64]uint64{}
	peak := 0
	for i := 0; i+3 <= len(data); i += 3 {
		op := data[i] % 3
		k := uint64(binary.LittleEndian.Uint16(data[i+1 : i+3]))
		switch op {
		case 0:
			ok := nd.Insert(k, k^0xF0)
			_, dup := oracle[k]
			if ok == dup {
				t.Fatalf("α %v: insert(%d) = %v with dup=%v", alpha, k, ok, dup)
			}
			if ok {
				oracle[k] = k ^ 0xF0
			}
		case 1:
			v, ok := nd.Lookup(k)
			want, wantOK := oracle[k]
			if ok != wantOK || (ok && v != want) {
				t.Fatalf("α %v: lookup(%d) = %d,%v, oracle %d,%v", alpha, k, v, ok, want, wantOK)
			}
		case 2:
			ok := nd.Delete(k)
			if _, present := oracle[k]; ok != present {
				t.Fatalf("α %v: delete(%d) = %v with present=%v", alpha, k, ok, present)
			}
			delete(oracle, k)
		}
		peak = max(peak, nd.Len())
		checkLeaf(t, nd, alpha, peak)
	}
	if nd.Len() != len(oracle) {
		t.Fatalf("α %v: Len = %d, oracle %d", alpha, nd.Len(), len(oracle))
	}
	maxErr, _ := nd.ErrorStats()
	if maxErr > nd.ConflictDegree() {
		t.Fatalf("α %v: cd bound violated: %d > %d", alpha, maxErr, nd.ConflictDegree())
	}
	// Whatever state the tape left, a snapshot of it restores.
	back := restore(t, nd)
	for k, want := range oracle {
		if v, ok := back.Lookup(k); !ok || v != want {
			t.Fatalf("α %v: restored Lookup(%d) = %d,%v, oracle %d", alpha, k, v, ok, want)
		}
	}
	return nd
}

// checkLeaf checks a leaf configured with alpha against its own invariants:
// the conflict degree within its bound unless the leaf is saturated, α on
// the ladder, and the capacity within the growth rule (twice the population
// at most) for the largest population peak the leaf has held.
func checkLeaf(t *testing.T, nd *Node, alpha float64, peak int) {
	t.Helper()
	g := nd.Geometry()
	if cd := nd.ConflictDegree(); cd > maxConflictDegree && !g.Saturated {
		t.Fatalf("α %v, %d keys: cd %d above the bound on an unsaturated leaf", alpha, nd.Len(), cd)
	}
	if !onLadder(g.Alpha, alpha) {
		t.Fatalf("α %v, %d keys: leaf α %v off the ladder", alpha, nd.Len(), g.Alpha)
	}
	if bound := nd.capFor(max(2*peak, growthFor(peak))); g.Cap > bound {
		t.Fatalf("α %v, %d keys: capacity %d above %d for a peak of %d keys", alpha, nd.Len(), g.Cap, bound, peak)
	}
}

// denseRunTape is a tape of a dense run of keys (6 apart) followed by
// far outliers on both sides: each outlier lies past the interval the
// run's growth rebuilds refit, so it takes the extension path, and the
// wider interval crowds the run's slots at α = 1 until the leaf climbs the
// α ladder.
func denseRunTape() []byte {
	var tape []byte
	op := func(code byte, k uint16) { tape = binary.LittleEndian.AppendUint16(append(tape, code), k) }
	for i := uint16(0); i < 280; i++ {
		op(0, 20000+6*i)
	}
	op(0, 100)
	op(0, 65000)
	op(1, 20007)
	op(2, 20011)
	op(1, 20011)
	return tape
}
