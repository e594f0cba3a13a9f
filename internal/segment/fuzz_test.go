package segment

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"chameleon/internal/format"
)

// memFile adapts a byte slice to faultfs.File so the fuzzers can exercise
// the decode path without touching disk on every exec.
type memFile struct{ *bytes.Reader }

func openMem(data []byte) (*Reader, error) {
	f := &memFile{bytes.NewReader(data)}
	r, err := load(f, "mem")
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (m *memFile) Write(p []byte) (int, error) { return 0, errors.New("read-only") }
func (m *memFile) Close() error                { return nil }
func (m *memFile) Sync() error                 { return nil }
func (m *memFile) Truncate(int64) error        { return errors.New("read-only") }

// FuzzSegmentDecode feeds hostile bytes through the full segment open path:
// it must never panic, never accept a torn or mutated envelope as valid —
// every error is ErrCorrupt, or format.ErrNeedsUpgrade for a header of a
// retired kind — and for inputs it does accept, re-encoding the decoded run
// must round-trip.
func FuzzSegmentDecode(f *testing.F) {
	seed := func(keys, vals []uint64, tombs []bool) []byte {
		var buf bytes.Buffer
		if _, err := Write(&buf, keys, vals, tombs, 1, 0, 7, 0); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	// Seeds stay small (a few hundred bytes): the mutation engine's
	// throughput degrades sharply with corpus entry size, and a 30-entry run
	// already exercises every section; a 70-entry one has a second, short
	// block.
	k, v, tb := buildRun(30, 5, 4)
	valid := seed(k, v, tb)
	f.Add(valid)
	k, v, tb = buildRun(70, 6, 5)
	f.Add(seed(k, v, tb))
	f.Add(seed(nil, nil, nil))
	f.Add(seed([]uint64{5}, []uint64{50}, []bool{true}))
	f.Add(valid[:len(valid)-5])
	mut := append([]byte(nil), valid...)
	mut[40] ^= 0xff
	f.Add(mut)
	f.Add([]byte(magic))
	f.Add([]byte{})
	// A Count far beyond the file's length: nothing may be sized from it.
	f.Add(hostileCountSegment(f))
	// The retired kinds: a CHAMSEG1 magic, and a header announcing a model.
	f.Add([]byte("CHAMSEG1"))
	model := append([]byte(nil), valid...)
	model[60] = 2
	f.Add(model)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := openMem(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, format.ErrNeedsUpgrade) {
				t.Fatalf("non-corrupt error on hostile input: %v", err)
			}
			return
		}
		defer r.Close()

		// Accepted: the run must be internally consistent and re-encodable to
		// an equivalent segment.
		m := r.Meta()
		entries, err := loadEntries(r)
		if err != nil {
			t.Fatalf("accepted segment failed to iterate: %v", err)
		}
		if uint64(len(entries)) != m.Count {
			t.Fatalf("iterated %d entries, header says %d", len(entries), m.Count)
		}
		for _, e := range entries {
			val, tomb, ok, _, err := r.Get(e.Key)
			if err != nil || !ok || tomb != e.Tomb || (!tomb && val != e.Val) {
				t.Fatalf("Get(%d) = %d, tomb %v, ok %v, err %v; iterated %+v", e.Key, val, tomb, ok, err, e)
			}
		}
		keys := make([]uint64, len(entries))
		vals := make([]uint64, len(entries))
		tombs := make([]bool, len(entries))
		for i, e := range entries {
			keys[i], vals[i], tombs[i] = e.Key, e.Val, e.Tomb
		}
		var buf bytes.Buffer
		m2, err := Write(&buf, keys, vals, tombs, m.ID, m.Level, m.Seq, 0)
		if err != nil {
			t.Fatalf("re-encode of accepted segment failed: %v", err)
		}
		if m2.Count != m.Count || m2.Live != m.Live || m2.MinKey != m.MinKey ||
			m2.MaxKey != m.MaxKey || m2.Seq != m.Seq {
			t.Fatalf("re-encode meta drifted: %+v vs %+v", m2, m)
		}
		r2, err := openMem(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded segment rejected: %v", err)
		}
		defer r2.Close()
		entries2, err := loadEntries(r2)
		if err != nil || !reflect.DeepEqual(entries, entries2) {
			t.Fatalf("re-encode round trip drifted (err=%v)", err)
		}
	})
}

// FuzzSegmentDecodeBijective asserts the stronger property for
// writer-produced files: decode∘encode is the identity on bytes, because the
// encoding is deterministic.
func FuzzSegmentDecodeBijective(f *testing.F) {
	f.Add(uint64(1), 100, 3)
	f.Add(uint64(99), 1, 0)
	f.Add(uint64(7), 0, 0)
	f.Fuzz(func(t *testing.T, seed uint64, n, tombEvery int) {
		if n < 0 || n > 2000 || tombEvery < 0 {
			t.Skip()
		}
		keys, vals, tombs := buildRun(n, int64(seed), tombEvery)
		var buf bytes.Buffer
		if _, err := Write(&buf, keys, vals, tombs, 3, 1, seed, 0); err != nil {
			t.Fatal(err)
		}
		r, err := openMem(buf.Bytes())
		if err != nil {
			t.Fatalf("writer output rejected: %v", err)
		}
		defer r.Close()
		entries, err := loadEntries(r)
		if err != nil {
			t.Fatal(err)
		}
		k2 := make([]uint64, len(entries))
		v2 := make([]uint64, len(entries))
		t2 := make([]bool, len(entries))
		for i, e := range entries {
			k2[i], v2[i], t2[i] = e.Key, e.Val, e.Tomb
		}
		var buf2 bytes.Buffer
		if _, err := Write(&buf2, k2, v2, t2, 3, 1, seed, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("decode∘encode is not byte-identical on writer output")
		}
	})
}

// FuzzManifestDecode: hostile manifest bytes never panic; accepted inputs
// re-encode to a semantically identical manifest.
func FuzzManifestDecode(f *testing.F) {
	valid, err := EncodeManifest(&Manifest{
		Gen: 3, FlushedSeq: 77, LiveCount: 5, NextID: 9,
		Segments: []Meta{{ID: 1, Count: 5, Live: 5, MinKey: 1, MaxKey: 9, Seq: 77, Bytes: 200}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:12])
	f.Add([]byte(manMagic))
	f.Add([]byte{})
	// A manifest written while segments carried a model: "eps" included.
	fixture, err := os.ReadFile("testdata/manifest-v2-model.mft")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			if m != nil {
				t.Fatal("error with non-nil manifest")
			}
			return
		}
		out, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("re-encode of accepted manifest failed: %v", err)
		}
		m2, err := DecodeManifest(out)
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("manifest round trip drifted: %+v vs %+v", m, m2)
		}
	})
}
