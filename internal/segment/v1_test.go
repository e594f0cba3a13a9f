package segment

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"chameleon/internal/faultfs"
)

// v1FixturePath is a CHAMSEG1 file written by testdata/mkv1.go before
// CHAMSEG2 existed.
const v1FixturePath = "testdata/seg-v1.seg"

// v1FixtureEntries are the entries testdata/mkv1.go wrote: keep the two in
// step.
func v1FixtureEntries() []Entry {
	out := make([]Entry, 300)
	for i := range out {
		run := uint64(i / 50)
		k := (run+1)<<32 | uint64(i%50)*(run*run*40+3)
		out[i] = Entry{Key: k, Val: k ^ 0xC0FFEE}
		if i%7 == 3 {
			out[i] = Entry{Key: k, Tomb: true}
		}
	}
	return out
}

// TestSegmentV1Fixture: a CHAMSEG1 file still opens, and every read —
// decode, point hits, misses and tombstones, bounded iteration, the model
// check — returns what was written.
func TestSegmentV1Fixture(t *testing.T) {
	r, err := Open(faultfs.OS, v1FixturePath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := v1FixtureEntries()
	live := uint64(0)
	for _, e := range want {
		if !e.Tomb {
			live++
		}
	}
	fi, err := os.Stat(v1FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Meta()
	if r.Version() != 1 || m.Count != 300 || m.Live != live || m.Level != 1 || m.Seq != 500 || m.Eps != 4 ||
		m.MinKey != want[0].Key || m.MaxKey != want[299].Key || m.Bytes != fi.Size() {
		t.Fatalf("version %d, meta %+v", r.Version(), m)
	}
	if m.ModelPieces < 2 {
		t.Fatalf("fixture model has %d pieces, want several", m.ModelPieces)
	}

	got, err := r.LoadEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	for i, e := range want {
		val, tomb, ok, dist, err := r.Get(e.Key)
		if err != nil || !ok || tomb != e.Tomb || val != e.Val || dist > m.Eps {
			t.Fatalf("Get(%d) = %d, tomb %v, ok %v, dist %d, err %v; want %+v", e.Key, val, tomb, ok, dist, err, e)
		}
		if i > 0 && want[i-1].Key+1 < e.Key {
			if _, _, ok, _, err := r.Get(e.Key - 1); ok || err != nil {
				t.Fatalf("Get(gap %d): ok %v, err %v", e.Key-1, ok, err)
			}
		}
	}
	for _, k := range []uint64{0, want[0].Key - 1, want[299].Key + 1, math.MaxUint64} {
		if _, _, ok, _, err := r.Get(k); ok || err != nil {
			t.Fatalf("Get(out of range %d): ok %v, err %v", k, ok, err)
		}
	}

	rng := rand.New(rand.NewSource(1))
	bounds := [][2]uint64{{0, math.MaxUint64}, {want[10].Key, want[10].Key}, {want[60].Key + 1, want[250].Key - 1}, {want[299].Key + 1, math.MaxUint64}}
	for i := 0; i < 50; i++ {
		lo := want[0].Key + uint64(rng.Int63n(int64(want[299].Key-want[0].Key)))
		bounds = append(bounds, [2]uint64{lo, lo + uint64(rng.Int63n(1<<33))})
	}
	for _, b := range bounds {
		var exp []Entry
		for _, e := range want {
			if e.Key >= b[0] && e.Key <= b[1] {
				exp = append(exp, e)
			}
		}
		it := r.Iter(b[0], b[1])
		n := 0
		for ; it.Next(); n++ {
			if n >= len(exp) || it.Entry() != exp[n] {
				t.Fatalf("Iter(%d, %d)[%d] = %+v, want %d entries", b[0], b[1], n, it.Entry(), len(exp))
			}
		}
		if it.Err() != nil || n != len(exp) {
			t.Fatalf("Iter(%d, %d): %d entries, err %v; want %d", b[0], b[1], n, it.Err(), len(exp))
		}
	}

	worst, err := r.ModelMaxError()
	if err != nil || worst > m.Eps {
		t.Fatalf("ModelMaxError = %d, %v; want ≤ %d", worst, err, m.Eps)
	}
}
