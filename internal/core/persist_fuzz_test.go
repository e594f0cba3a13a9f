package core

import (
	"bytes"
	"os"
	"testing"

	"chameleon/internal/dataset"
	"chameleon/internal/rl"
)

// fuzzIndex is a minimal-budget index for per-execution construction inside
// the fuzz loop.
func fuzzIndex() *Index {
	dcfg := rl.DefaultDAREConfig()
	dcfg.SampleCap = 512
	return New(Config{Name: "Chameleon", Dare: rl.NewCostDARE(dcfg)})
}

// FuzzReadFrom feeds arbitrary bytes — seeded with valid CHAMSNP3 snapshots,
// bit-flipped and truncated variants, and the retired CHAMSNP2 fixture and
// magic — into ReadFrom. The contract under
// fuzzing: never panic, never allocate unboundedly, and when a file is
// (necessarily validly) accepted, leave behind a usable index.
func FuzzReadFrom(f *testing.F) {
	small := fuzzIndex()
	if err := small.BulkLoad(dataset.Uniform(2_000, 9), nil); err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if _, err := small.WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	var empty bytes.Buffer
	if _, err := fuzzIndex().WriteTo(&empty); err != nil {
		f.Fatal(err)
	}

	f.Add(valid.Bytes())
	f.Add(empty.Bytes())
	f.Add([]byte{})
	f.Add([]byte("CHAMSNP2"))
	f.Add(valid.Bytes()[:valid.Len()/2])            // truncated
	f.Add(valid.Bytes()[:valid.Len()-5])            // footer torn
	f.Add(append([]byte("junk"), valid.Bytes()...)) // misaligned
	for _, pos := range []int{8, 13, valid.Len() / 2, valid.Len() - 10} {
		flipped := append([]byte(nil), valid.Bytes()...)
		flipped[pos] ^= 0x80
		f.Add(flipped)
	}
	// The CHAMSNP2 fixture an older build wrote, whole and torn, so the
	// refusal of a retired snapshot is fuzzed too.
	v2, err := os.ReadFile("testdata/snapshot-v2.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Add(v2[:len(v2)/2])
	f.Add([]byte("CHAMSNP3"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4<<20 {
			return // cap decode work per exec, not a correctness bound
		}
		ix := fuzzIndex()
		if _, err := ix.ReadFrom(bytes.NewReader(data)); err != nil {
			return
		}
		// Accepted ⇒ the index must behave: Len consistent, lookups and
		// updates safe, retraining machinery intact.
		if ix.Len() < 0 {
			t.Fatalf("negative Len %d after accepted load", ix.Len())
		}
		for k := uint64(0); k < 1024; k += 37 {
			ix.Lookup(k)
		}
		probe := uint64(0xC0FFEE)
		if err := ix.Insert(probe, 1); err == nil {
			if _, ok := ix.Lookup(probe); !ok {
				t.Fatal("insert acknowledged but not readable")
			}
		}
		ix.RetrainPass()
	})
}
