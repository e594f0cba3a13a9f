package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"chameleon/internal/dataset"
	"chameleon/internal/rl"
)

// FuzzIndexOps drives a small bulk-loaded Chameleon with an arbitrary
// operation tape against a map oracle, exercising routing, EBH updates,
// retraining passes, reconstructions and ordered scans under adversarial key
// patterns.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(make([]byte, 48))
	f.Fuzz(func(t *testing.T, data []byte) {
		dcfg := rl.DefaultDAREConfig()
		dcfg.SampleCap = 1024
		ix := New(Config{
			Name:                 "Chameleon",
			Dare:                 rl.NewCostDARE(dcfg),
			ReconstructThreshold: 0.5, // trip reconstructions quickly
		})
		keys := dataset.Uniform(512, 1)
		if err := ix.BulkLoad(keys, nil); err != nil {
			t.Fatal(err)
		}
		oracle := map[uint64]uint64{}
		for _, k := range keys {
			oracle[k] = k
		}
		steps := 0
		for i := 0; i+4 <= len(data); i += 4 {
			op := data[i] % 5
			k := uint64(binary.LittleEndian.Uint16(data[i+1:i+3])) * uint64(data[i+3]+1)
			switch op {
			case 0:
				err := ix.Insert(k, k^0xAA)
				if _, dup := oracle[k]; dup != (err != nil) {
					t.Fatalf("insert(%d) err=%v dup=%v", k, err, dup)
				}
				if err == nil {
					oracle[k] = k ^ 0xAA
				}
			case 1:
				v, ok := ix.Lookup(k)
				want, wantOK := oracle[k]
				if ok != wantOK || (ok && v != want) {
					t.Fatalf("lookup(%d) = %d,%v, oracle %d,%v", k, v, ok, want, wantOK)
				}
			case 2:
				err := ix.Delete(k)
				if _, present := oracle[k]; present != (err == nil) {
					t.Fatalf("delete(%d) err=%v present=%v", k, err, present)
				}
				delete(oracle, k)
			case 3:
				ix.RetrainPass()
			case 4:
				// A window from k, as wide as the tape says, stopped after
				// as many keys as the tape says.
				lo, hi := k, k+uint64(data[i+1])<<10
				stop := int(data[i+2]%16) + 1
				var want []uint64
				for _, key := range sortedKeys(oracle) {
					if key >= lo && key <= hi && len(want) < 2*stop {
						want = append(want, key, oracle[key])
					}
				}
				var got []uint64
				ix.Range(lo, hi, func(key, val uint64) bool {
					got = append(got, key, val)
					return len(got) < 2*stop
				})
				if !slices.Equal(got, want) {
					t.Fatalf("Range(%d, %d) stopped after %d = %v, oracle %v", lo, hi, stop, got, want)
				}
			}
			steps++
		}
		if ix.Len() != len(oracle) {
			t.Fatalf("after %d steps Len = %d, oracle %d", steps, ix.Len(), len(oracle))
		}
		gotK, gotV := ix.AppendPairs(nil, nil)
		wantK := sortedKeys(oracle)
		if !slices.Equal(gotK, wantK) {
			t.Fatalf("AppendPairs keys = %v, oracle %v", gotK, wantK)
		}
		for i, k := range gotK {
			if gotV[i] != oracle[k] {
				t.Fatalf("AppendPairs value of %d = %d, oracle %d", k, gotV[i], oracle[k])
			}
		}
		// Whatever state the tape left, its snapshot loads to the same
		// contents: the writer never produces what the reader rejects.
		var snap bytes.Buffer
		if _, err := ix.WriteTo(&snap); err != nil {
			t.Fatal(err)
		}
		loaded := New(Config{})
		if _, err := loaded.ReadFrom(&snap); err != nil {
			t.Fatalf("snapshot after %d steps rejected: %v", steps, err)
		}
		if loaded.Len() != len(oracle) {
			t.Fatalf("loaded Len = %d, oracle %d", loaded.Len(), len(oracle))
		}
		for k, v := range oracle {
			if got, ok := ix.Lookup(k); !ok || got != v {
				t.Fatalf("final lookup(%d) = %d,%v, want %d", k, got, ok, v)
			}
			if got, ok := loaded.Lookup(k); !ok || got != v {
				t.Fatalf("loaded lookup(%d) = %d,%v, want %d", k, got, ok, v)
			}
		}
	})
}

// sortedKeys returns the oracle's keys ascending.
func sortedKeys(oracle map[uint64]uint64) []uint64 {
	keys := make([]uint64, 0, len(oracle))
	for k := range oracle {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
