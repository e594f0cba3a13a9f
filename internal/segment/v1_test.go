package segment

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"chameleon/internal/faultfs"
)

const (
	// v1FixturePath is a CHAMSEG1 file written by testdata/mkv1.go before
	// CHAMSEG2 existed.
	v1FixturePath = "testdata/seg-v1.seg"
	// v2ModelFixturePath is a CHAMSEG2 file written by testdata/mkv2model.go
	// while Write still built a learned model, and v2ModelManifestPath the
	// manifest that names it, with the model's ε.
	v2ModelFixturePath  = "testdata/seg-v2-model.seg"
	v2ModelManifestPath = "testdata/manifest-v2-model.mft"
)

// fixtureEntries are the entries testdata/mkv1.go and testdata/mkv2model.go
// wrote: keep the three in step.
func fixtureEntries() []Entry {
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
// decode, point hits, misses and tombstones, bounded iteration — returns
// what was written.
func TestSegmentV1Fixture(t *testing.T) {
	checkFixture(t, v1FixturePath, 1, nil)
}

// TestSegmentV2ModelFixture: a CHAMSEG2 file that carries a learned model
// opens, and reads back what was written, through the fence keys; the
// manifest that names it decodes, with its "eps", and Open agrees with it.
func TestSegmentV2ModelFixture(t *testing.T) {
	data, err := os.ReadFile(v2ModelManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	man, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if man.Gen != 1 || man.NextID != 2 || len(man.Segments) != 1 || man.Segments[0].ID != 1 {
		t.Fatalf("manifest %+v", man)
	}
	checkFixture(t, v2ModelFixturePath, 2, &man.Segments[0])
}

// checkFixture opens the fixture at path, held to want when it is non-nil,
// and reads fixtureEntries back from it every way a caller can.
func checkFixture(t *testing.T, path string, version int, want *Meta) {
	r, err := Open(faultfs.OS, path, want)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	entries := fixtureEntries()
	live := uint64(0)
	for _, e := range entries {
		if !e.Tomb {
			live++
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Meta()
	if r.Version() != version || m.Count != 300 || m.Live != live || m.Level != 1 || m.Seq != 500 ||
		m.MinKey != entries[0].Key || m.MaxKey != entries[299].Key || m.Bytes != fi.Size() {
		t.Fatalf("version %d, meta %+v", r.Version(), m)
	}
	if m.ModelPieces < 2 {
		t.Fatalf("fixture model has %d pieces, want several", m.ModelPieces)
	}

	got, err := r.LoadEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], entries[i])
		}
	}

	for i, e := range entries {
		val, tomb, ok, dist, err := r.Get(e.Key)
		if err != nil || !ok || tomb != e.Tomb || val != e.Val || dist != 0 {
			t.Fatalf("Get(%d) = %d, tomb %v, ok %v, dist %d, err %v; want %+v", e.Key, val, tomb, ok, dist, err, e)
		}
		if i > 0 && entries[i-1].Key+1 < e.Key {
			if _, _, ok, _, err := r.Get(e.Key - 1); ok || err != nil {
				t.Fatalf("Get(gap %d): ok %v, err %v", e.Key-1, ok, err)
			}
		}
	}
	for _, k := range []uint64{0, entries[0].Key - 1, entries[299].Key + 1, math.MaxUint64} {
		if _, _, ok, _, err := r.Get(k); ok || err != nil {
			t.Fatalf("Get(out of range %d): ok %v, err %v", k, ok, err)
		}
	}

	rng := rand.New(rand.NewSource(1))
	bounds := [][2]uint64{{0, math.MaxUint64}, {entries[10].Key, entries[10].Key}, {entries[60].Key + 1, entries[250].Key - 1}, {entries[299].Key + 1, math.MaxUint64}}
	for i := 0; i < 50; i++ {
		lo := entries[0].Key + uint64(rng.Int63n(int64(entries[299].Key-entries[0].Key)))
		bounds = append(bounds, [2]uint64{lo, lo + uint64(rng.Int63n(1<<33))})
	}
	for _, b := range bounds {
		var exp []Entry
		for _, e := range entries {
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
}
