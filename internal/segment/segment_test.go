package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"chameleon/internal/dataset"
	"chameleon/internal/faultfs"
)

// buildRun makes n strictly-ascending pseudo-random keys with parallel
// values and every tombEvery-th entry a tombstone (0 disables tombstones).
func buildRun(n int, seed int64, tombEvery int) (keys, vals []uint64, tombs []bool) {
	rng := rand.New(rand.NewSource(seed))
	keys = make([]uint64, n)
	vals = make([]uint64, n)
	tombs = make([]bool, n)
	k := uint64(0)
	for i := 0; i < n; i++ {
		k += 1 + uint64(rng.Intn(1000))
		keys[i] = k
		vals[i] = k * 3
		if tombEvery > 0 && i%tombEvery == 0 {
			tombs[i] = true
			vals[i] = 0
		}
	}
	return keys, vals, tombs
}

func createRun(t *testing.T, dir string, keys, vals []uint64, tombs []bool, id, seq uint64, eps int) (Meta, *Reader) {
	t.Helper()
	m, err := Create(faultfs.OS, dir, keys, vals, tombs, id, 0, seq, eps)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	r, err := Open(faultfs.OS, filepath.Join(dir, FileName(id)), &m)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return m, r
}

// TestSegmentRoundTrip: runs of every size around the block (64 ranks) and
// filter-region (4096 ranks) edges, and one of 5000, read back exactly:
// every key hits with its value or tombstone, every midpoint between keys
// and every key just past one misses, and iterators started one key either
// side of each block boundary yield exactly the entries in their bounds.
func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for id, n := range []int{1, 63, 64, 65, 4095, 4096, 4097, 5000, 8193} {
		keys, vals, tombs := buildRun(n, int64(n), 7)
		m, r := createRun(t, dir, keys, vals, tombs, uint64(id+1), 99, 0)

		wantLive := uint64(0)
		for _, tb := range tombs {
			if !tb {
				wantLive++
			}
		}
		if m.Count != uint64(n) || m.Live != wantLive || m.MinKey != keys[0] || m.MaxKey != keys[n-1] ||
			m.Seq != 99 || m.ModelPieces != 0 {
			t.Fatalf("n=%d: bad meta: %+v", n, m)
		}

		for i, k := range keys {
			val, tomb, ok, dist, err := r.Get(k)
			if err != nil || !ok || dist != 0 {
				t.Fatalf("n=%d: Get(%d): ok=%v dist=%d err=%v", n, k, ok, dist, err)
			}
			if tomb != tombs[i] || (!tomb && val != vals[i]) {
				t.Fatalf("n=%d: Get(%d) = (%d, %v), want (%d, %v)", n, k, val, tomb, vals[i], tombs[i])
			}
		}
		for i := 1; i < n; i++ {
			for _, k := range []uint64{keys[i-1] + (keys[i]-keys[i-1])/2, keys[i-1] + 1} {
				if k == keys[i-1] || k == keys[i] {
					continue
				}
				if _, _, ok, _, err := r.Get(k); ok || err != nil {
					t.Fatalf("n=%d: Get(gap %d): ok=%v err=%v", n, k, ok, err)
				}
			}
		}
		for _, k := range []uint64{0, keys[0] - 1, keys[n-1] + 1, math.MaxUint64} {
			if _, _, ok, _, _ := r.Get(k); ok {
				t.Fatalf("n=%d: hit out of range at %d", n, k)
			}
		}

		got, err := loadEntries(r)
		if err != nil {
			t.Fatalf("n=%d: loadEntries: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: iterated %d entries", n, len(got))
		}
		for i, e := range got {
			if e.Key != keys[i] || e.Val != vals[i] || e.Tomb != tombs[i] {
				t.Fatalf("n=%d: entry %d = %+v, want (%d,%d,%v)", n, i, e, keys[i], vals[i], tombs[i])
			}
		}

		for b := blockRanks; b < n; b += blockRanks {
			for _, lo := range []uint64{keys[b-1], keys[b-1] + 1, keys[b] - 1, keys[b], keys[b] + 1} {
				hi := keys[min(b+blockRanks, n-1)]
				it := r.Iter(lo, hi)
				i := sort.Search(n, func(i int) bool { return keys[i] >= lo })
				for ; it.Next(); i++ {
					if e := it.Entry(); i >= n || keys[i] > hi || e != (Entry{keys[i], vals[i], tombs[i]}) {
						t.Fatalf("n=%d: Iter(%d, %d) yielded %+v at rank %d", n, lo, hi, e, i)
					}
				}
				if it.Err() != nil || (i < n && keys[i] <= hi) {
					t.Fatalf("n=%d: Iter(%d, %d) stopped at rank %d, err %v", n, lo, hi, i, it.Err())
				}
			}
		}
	}
}

func TestSegmentRangeIter(t *testing.T) {
	dir := t.TempDir()
	keys, vals, _ := buildRun(2000, 2, 0)
	_, r := createRun(t, dir, keys, vals, nil, 1, 1, 8)

	collect := func(lo, hi uint64) []uint64 {
		var out []uint64
		it := r.Iter(lo, hi)
		for it.Next() {
			out = append(out, it.Entry().Key)
		}
		if err := it.Err(); err != nil {
			t.Fatalf("Iter(%d,%d): %v", lo, hi, err)
		}
		return out
	}
	oracle := func(lo, hi uint64) []uint64 {
		var out []uint64
		for _, k := range keys {
			if k >= lo && k <= hi {
				out = append(out, k)
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(3))
	span := keys[len(keys)-1] - keys[0]
	bounds := [][2]uint64{
		{0, math.MaxUint64},
		{keys[0], keys[len(keys)-1]},
		{keys[0] + 1, keys[len(keys)-1] - 1},
		{keys[500], keys[500]},
		{keys[500] + 1, keys[501] - 1}, // possibly-empty gap window
		{keys[len(keys)-1] + 1, math.MaxUint64},
		{0, keys[0] - 1},
	}
	for i := 0; i < 50; i++ {
		lo := keys[0] + uint64(rng.Int63n(int64(span)))
		hi := lo + uint64(rng.Int63n(int64(span/4)+1))
		bounds = append(bounds, [2]uint64{lo, hi})
	}
	for _, b := range bounds {
		got, want := collect(b[0], b[1]), oracle(b[0], b[1])
		if len(got) != len(want) {
			t.Fatalf("Iter(%d,%d): %d keys, want %d", b[0], b[1], len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Iter(%d,%d)[%d] = %d, want %d", b[0], b[1], i, got[i], want[i])
			}
		}
	}
}

func TestSegmentEmpty(t *testing.T) {
	dir := t.TempDir()
	m, r := createRun(t, dir, nil, nil, nil, 7, 5, 0)
	if m.Count != 0 || m.Live != 0 || m.ModelPieces != 0 {
		t.Fatalf("bad empty meta: %+v", m)
	}
	if _, _, ok, _, err := r.Get(123); ok || err != nil {
		t.Fatalf("Get on empty: ok=%v err=%v", ok, err)
	}
	it := r.Iter(0, math.MaxUint64)
	if it.Next() {
		t.Fatal("empty segment iterated an entry")
	}
}

func TestSegmentWriterRejectsUnsorted(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Write(&buf, []uint64{3, 2}, []uint64{0, 0}, nil, 1, 0, 1, 0); !errors.Is(err, ErrUnsortedRun) {
		t.Fatalf("err = %v, want ErrUnsortedRun", err)
	}
	if _, err := Write(&buf, []uint64{3, 3}, []uint64{0, 0}, nil, 1, 0, 1, 0); !errors.Is(err, ErrUnsortedRun) {
		t.Fatalf("duplicate keys: err = %v, want ErrUnsortedRun", err)
	}
	if _, err := Write(&buf, []uint64{1}, nil, nil, 1, 0, 1, 0); err == nil {
		t.Fatal("mismatched sections accepted")
	}
}

func TestSegmentDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	keys, vals, tombs := buildRun(300, 4, 5)
	m, err := Create(faultfs.OS, dir, keys, vals, tombs, 9, 0, 1, 4)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	path := filepath.Join(dir, FileName(9))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte) {
		t.Helper()
		p := filepath.Join(dir, "bad.seg")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(faultfs.OS, p, nil)
		if err == nil {
			r.Close()
			t.Fatalf("%s: corruption not detected", name)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}

	// A flipped byte anywhere inside the sealed region must fail the CRC (or
	// an earlier structural check); probe a spread of offsets.
	for _, off := range []int{0, 9, 20, headerSize + 11, headerSize + 300*8 + 5, len(orig) - footerSize + 1, len(orig) - 3} {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0x40
		check("flip", mut)
	}
	check("truncated header", orig[:headerSize-1])
	check("truncated tail", orig[:len(orig)-1])
	check("trailing garbage", append(append([]byte(nil), orig...), 0))
	check("empty", nil)

	// Manifest disagreement is corruption even when the file itself is fine
	// — in the length and the model size too, which the header's count no
	// longer determines.
	for name, mut := range map[string]func(*Meta){
		"count":        func(m *Meta) { m.Count++ },
		"bytes":        func(m *Meta) { m.Bytes += 8 },
		"model pieces": func(m *Meta) { m.ModelPieces++ },
	} {
		bad := m
		mut(&bad)
		if _, err := Open(faultfs.OS, path, &bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("manifest disagrees on %s: Open err = %v, want ErrCorrupt", name, err)
		}
		if _, err := OpenBytes(orig, &bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("manifest disagrees on %s: OpenBytes err = %v, want ErrCorrupt", name, err)
		}
	}
}

// reseal recomputes a mutated file's CRC, so only the structural checks
// can catch the mutation.
func reseal(data []byte) []byte {
	body := len(data) - footerSize
	binary.LittleEndian.PutUint32(data[body:], crc32.Checksum(data[:body], castagnoli))
	return data
}

// TestSegmentV2HostileStructure: data sections and offset tables that no
// writer produces are refused by Open even under a valid CRC.
func TestSegmentV2HostileStructure(t *testing.T) {
	keys := make([]uint64, 300) // five blocks, the last of 44 entries
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = uint64(i)*3 + 1 // every delta one byte
		vals[i] = uint64(i) + 1000
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, keys, vals, nil, 1, 0, 1, 4); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	dataLen := binary.LittleEndian.Uint64(orig[headerSize-8:])
	tableAt := headerSize + int(dataLen)
	table := func(b int) uint64 { return binary.LittleEndian.Uint64(orig[tableAt+8*b:]) }
	blockAt := func(b int) int { return headerSize + int(table(b)) }

	for _, c := range []struct {
		name, why string
		mut       func(d []byte)
	}{
		{"table decreases", "block-offset table", func(d []byte) {
			binary.LittleEndian.PutUint64(d[tableAt+16:], table(1)-1)
		}},
		{"table points past the data section", "block-offset table", func(d []byte) {
			binary.LittleEndian.PutUint64(d[tableAt+24:], dataLen+64)
		}},
		{"last table entry past the data section", "block-offset table", func(d []byte) {
			binary.LittleEndian.PutUint64(d[tableAt+40:], dataLen+8)
		}},
		{"last block's varints run past its extent", "past the data section", func(d []byte) {
			d[blockAt(5)-8*44-1] |= 0x80 // its last delta now swallows value bytes
		}},
		{"first block's varints run past its extent", "", func(d []byte) {
			d[blockAt(1)-8*64-1] |= 0x80
		}},
		{"zero delta", "keys not strictly ascending", func(d []byte) {
			d[blockAt(1)+8+5] = 0
		}},
		{"block starts below its predecessor", "keys not strictly ascending", func(d []byte) {
			binary.LittleEndian.PutUint64(d[blockAt(2):], keys[127])
		}},
		{"delta not in shortest form", "shortest form", func(d []byte) {
			// Block 3's first two deltas (3, 3) as one two-byte encoding of
			// 6: the same length, a key fewer.
			copy(d[blockAt(3)+8:], []byte{0x86, 0x00})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := append([]byte(nil), orig...)
			c.mut(d)
			_, err := OpenBytes(reseal(d), nil)
			t.Log(err)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.why) {
				t.Fatalf("err = %v, want ErrCorrupt naming %q", err, c.why)
			}
		})
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Gen: 12, FlushedSeq: 3456, LiveCount: 789, NextID: 5,
		Segments: []Meta{
			{ID: 2, Level: 0, Count: 10, Live: 9, MinKey: 1, MaxKey: 100, Seq: 3456, Bytes: 300},
			{ID: 4, Level: 1, Count: 20, Live: 20, MinKey: 5, MaxKey: 900, Seq: 3000, ModelPieces: 2, Bytes: 500},
		},
	}
	data, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != m.Gen || got.FlushedSeq != m.FlushedSeq || got.LiveCount != m.LiveCount ||
		got.NextID != m.NextID || len(got.Segments) != 2 || got.Segments[1] != m.Segments[1] {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	// Hostile variants are rejected, never panic.
	for _, mut := range [][]byte{
		nil,
		data[:10],
		append([]byte("CHAMMANX"), data[8:]...),
	} {
		if _, err := DecodeManifest(mut); !errors.Is(err, ErrManifestCorrupt) {
			t.Fatalf("hostile decode: err = %v", err)
		}
	}
	flip := append([]byte(nil), data...)
	flip[20] ^= 1
	if _, err := DecodeManifest(flip); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("flipped body: err = %v", err)
	}
}

// syncDirFailFS fails every directory fsync.
type syncDirFailFS struct{ faultfs.FS }

func (syncDirFailFS) SyncDir(string) error { return errors.New("injected syncdir failure") }

// TestManifestSyncDirFailureLeavesNoFile: a manifest whose directory fsync
// fails is removed, so the generation cannot outlive the segment files the
// caller removes when it aborts.
func TestManifestSyncDirFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	if err := WriteManifest(syncDirFailFS{faultfs.OS}, dir, &Manifest{Gen: 1, NextID: 1}); err == nil {
		t.Fatal("WriteManifest succeeded with a failing SyncDir")
	}
	if m, err := LoadManifest(faultfs.OS, dir); err != nil || m != nil {
		t.Fatalf("after failed WriteManifest: m=%+v err=%v, want no manifest", m, err)
	}
}

func TestManifestNewestDecodableWins(t *testing.T) {
	dir := t.TempDir()

	// No manifest at all: nil, nil.
	m, err := LoadManifest(faultfs.OS, dir)
	if err != nil || m != nil {
		t.Fatalf("empty dir: m=%v err=%v", m, err)
	}

	for gen := uint64(1); gen <= 3; gen++ {
		if err := WriteManifest(faultfs.OS, dir, &Manifest{Gen: gen, FlushedSeq: gen * 100, NextID: gen}); err != nil {
			t.Fatalf("WriteManifest(%d): %v", gen, err)
		}
	}
	m, err = LoadManifest(faultfs.OS, dir)
	if err != nil || m.Gen != 3 {
		t.Fatalf("newest: m=%+v err=%v", m, err)
	}

	// Tear the newest generation: recovery falls back to gen 2.
	path := filepath.Join(dir, ManifestFileName(3))
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	m, err = LoadManifest(faultfs.OS, dir)
	if err != nil || m.Gen != 2 {
		t.Fatalf("fallback: m=%+v err=%v", m, err)
	}

	// All generations unreadable: corruption, not emptiness.
	for gen := uint64(1); gen <= 3; gen++ {
		if err := os.WriteFile(filepath.Join(dir, ManifestFileName(gen)), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadManifest(faultfs.OS, dir); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("all-corrupt: err = %v, want ErrManifestCorrupt", err)
	}
}

func TestMergeShadowingAndOrder(t *testing.T) {
	// Three generations of the same keyspace: newest source wins ties, and
	// tombstones surface as entries for the consumer to interpret.
	oldest := NewSliceIter([]Entry{{Key: 1, Val: 10}, {Key: 2, Val: 20}, {Key: 5, Val: 50}, {Key: 9, Val: 90}})
	middle := NewSliceIter([]Entry{{Key: 2, Val: 21}, {Key: 3, Val: 31}, {Key: 9, Tomb: true}})
	newest := NewSliceIter([]Entry{{Key: 2, Tomb: true}, {Key: 7, Val: 72}})

	m := NewMerge(newest, middle, oldest)
	want := []Entry{
		{Key: 1, Val: 10},
		{Key: 2, Tomb: true},
		{Key: 3, Val: 31},
		{Key: 5, Val: 50},
		{Key: 7, Val: 72},
		{Key: 9, Tomb: true},
	}
	var got []Entry
	for m.Next() {
		got = append(got, m.Entry())
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d entries, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Nil and empty sources are tolerated.
	m = NewMerge(nil, NewSliceIter(nil), NewSliceIter([]Entry{{Key: 4, Val: 4}}))
	if !m.Next() || m.Entry().Key != 4 || m.Next() {
		t.Fatal("merge with nil/empty sources misbehaved")
	}

	// An out-of-order source is an error, not silent misordering.
	m = NewMerge(NewSliceIter([]Entry{{Key: 5}, {Key: 5}}))
	for m.Next() {
	}
	if m.Err() == nil {
		t.Fatal("out-of-order source not detected")
	}
}

func TestMergeAgainstOracle(t *testing.T) {
	// Random overlapping runs; merged output must match a map-based oracle
	// applied oldest→newest.
	rng := rand.New(rand.NewSource(11))
	const sources = 5
	its := make([]Iterator, sources)
	oracle := map[uint64]Entry{}
	// Build oldest first so newer entries overwrite in the oracle; the merge
	// takes newest first.
	runs := make([][]Entry, sources)
	for s := 0; s < sources; s++ {
		n := 100 + rng.Intn(400)
		seen := map[uint64]bool{}
		var run []Entry
		for i := 0; i < n; i++ {
			k := uint64(rng.Intn(1500))
			if seen[k] {
				continue
			}
			seen[k] = true
			e := Entry{Key: k, Val: uint64(rng.Int63()), Tomb: rng.Intn(5) == 0}
			run = append(run, e)
			oracle[k] = e
		}
		sort.Slice(run, func(i, j int) bool { return run[i].Key < run[j].Key })
		runs[s] = run
	}
	for s := 0; s < sources; s++ {
		its[s] = NewSliceIter(runs[sources-1-s]) // newest first
	}
	m := NewMerge(its...)
	var got []Entry
	for m.Next() {
		got = append(got, m.Entry())
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(oracle) {
		t.Fatalf("merged %d distinct keys, oracle has %d", len(got), len(oracle))
	}
	var prev uint64
	for i, e := range got {
		if i > 0 && e.Key <= prev {
			t.Fatalf("merge output not strictly ascending at %d", i)
		}
		prev = e.Key
		if oracle[e.Key] != e {
			t.Fatalf("key %d: got %+v, oracle %+v", e.Key, e, oracle[e.Key])
		}
	}
}

func TestSegmentMergeAcrossFiles(t *testing.T) {
	// The same shadowing semantics hold when the sources are real segment
	// files rather than slices.
	dir := t.TempDir()
	k1, v1, _ := buildRun(1000, 21, 0)
	_, r1 := createRun(t, dir, k1, v1, nil, 1, 10, 16)

	// Newer run overwrites every third key of run 1 and deletes every tenth.
	var k2, v2 []uint64
	var t2 []bool
	for i, k := range k1 {
		switch {
		case i%10 == 0:
			k2 = append(k2, k)
			v2 = append(v2, 0)
			t2 = append(t2, true)
		case i%3 == 0:
			k2 = append(k2, k)
			v2 = append(v2, v1[i]+1)
			t2 = append(t2, false)
		}
	}
	_, r2 := createRun(t, dir, k2, v2, t2, 2, 20, 16)

	m := NewMerge(r2.Iter(0, math.MaxUint64), r1.Iter(0, math.MaxUint64))
	i := 0
	for m.Next() {
		e := m.Entry()
		if e.Key != k1[i] {
			t.Fatalf("key %d: got %d, want %d", i, e.Key, k1[i])
		}
		switch {
		case i%10 == 0:
			if !e.Tomb {
				t.Fatalf("key %d: tombstone lost", e.Key)
			}
		case i%3 == 0:
			if e.Tomb || e.Val != v1[i]+1 {
				t.Fatalf("key %d: shadowed value wrong: %+v", e.Key, e)
			}
		default:
			if e.Tomb || e.Val != v1[i] {
				t.Fatalf("key %d: base value wrong: %+v", e.Key, e)
			}
		}
		i++
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(k1) {
		t.Fatalf("merged %d keys, want %d", i, len(k1))
	}
}

// countingFS counts the positional reads of the files it opens.
type countingFS struct {
	faultfs.FS
	reads atomic.Int64
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{f, &c.reads}, nil
}

type countingFile struct {
	faultfs.File
	reads *atomic.Int64
}

func (f countingFile) ReadAt(p []byte, off int64) (int, error) {
	f.reads.Add(1)
	return f.File.ReadAt(p, off)
}

// TestSegmentOneReadPerColdGet pins the read path's I/O: a hit and a miss
// the filter lets through cost exactly one pread, a miss the filter or the
// key range rejects costs none, and an iterator one per chunk.
func TestSegmentOneReadPerColdGet(t *testing.T) {
	keys, vals, tombs := buildRun(5_000, 8, 7)
	dir := t.TempDir()
	m, err := Create(faultfs.OS, dir, keys, vals, tombs, 1, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfs := &countingFS{FS: faultfs.OS}
	r, err := Open(cfs, filepath.Join(dir, FileName(1)), &m)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	reads := func(f func()) int64 {
		before := cfs.reads.Load()
		f()
		return cfs.reads.Load() - before
	}
	get := func(k uint64, want bool) func() {
		return func() {
			if _, _, ok, _, err := r.Get(k); err != nil || ok != want {
				t.Fatalf("Get(%d) = ok %v, err %v; want ok %v", k, ok, err, want)
			}
		}
	}

	for _, k := range keys {
		if n := reads(get(k, true)); n != 1 {
			t.Fatalf("hit on %d took %d reads, want 1", k, n)
		}
	}
	passed, filtered := 0, 0
	for i := 1; i < len(keys); i++ {
		mid := keys[i-1] + (keys[i]-keys[i-1])/2
		if mid == keys[i-1] {
			continue
		}
		want := int64(0)
		if r.MayContain(mid) {
			want = 1
			passed++
		} else {
			filtered++
		}
		if n := reads(get(mid, false)); n != want {
			t.Fatalf("miss on %d (filter passes: %v) took %d reads, want %d", mid, want == 1, n, want)
		}
	}
	if passed == 0 || filtered == 0 {
		t.Fatalf("%d misses passed the filter and %d did not: want both kinds", passed, filtered)
	}
	if n := reads(get(keys[len(keys)-1]+1, false)); n != 0 {
		t.Fatalf("a miss above the key range took %d reads", n)
	}

	chunks := int64((len(keys) + iterChunk - 1) / iterChunk)
	if n := reads(func() {
		if got, err := loadEntries(r); err != nil || len(got) != len(keys) {
			t.Fatalf("loadEntries: %d entries, err %v", len(got), err)
		}
	}); n != chunks {
		t.Fatalf("a full scan took %d reads, want one per chunk: %d", n, chunks)
	}
	if n := reads(func() {
		it := r.Iter(keys[2000], keys[2100])
		for it.Next() {
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
	}); n != 1 {
		t.Fatalf("a 101-entry scan took %d reads, want 1", n)
	}
}

// BenchmarkSegmentGet times cold probes of an on-disk run: hits, and misses
// on the midpoints between the run's keys (most of which the filter answers
// without a read). Two key sets: "gaps", 200 k keys with uniformly random
// gaps, the near-uniform shape a per-run linear model fits best, and
// "face", the 2 M FACE keys every workload of the repo benchmark loads.
func BenchmarkSegmentGet(b *testing.B) {
	for _, set := range []struct {
		name string
		keys func() []uint64
	}{
		{"gaps", func() []uint64 { keys, _, _ := buildRun(200_000, 1, 0); return keys }},
		{"face", func() []uint64 { return dataset.Generate(dataset.FACE, 2_000_000, 1) }},
	} {
		b.Run(set.name, func(b *testing.B) { benchmarkGet(b, set.keys()) })
	}
}

func benchmarkGet(b *testing.B, keys []uint64) {
	dir := b.TempDir()
	m, err := Create(faultfs.OS, dir, keys, keys, nil, 1, 0, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	r, err := Open(faultfs.OS, filepath.Join(dir, FileName(1)), &m)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	var misses []uint64
	for i := 1; i < len(keys); i++ {
		if mid := keys[i-1] + (keys[i]-keys[i-1])/2; mid != keys[i-1] {
			misses = append(misses, mid)
		}
	}
	for _, c := range []struct {
		name  string
		probe []uint64
		hit   bool
	}{{"hit", keys, true}, {"miss", misses, false}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A multiplicative stride spreads the probes over the run.
				k := c.probe[uint64(i)*2654435761%uint64(len(c.probe))]
				if _, _, ok, _, err := r.Get(k); err != nil || ok != c.hit {
					b.Fatalf("Get(%d) = ok %v, err %v", k, ok, err)
				}
			}
		})
	}
}

// loadEntries reads the whole run into memory.
func loadEntries(r *Reader) ([]Entry, error) {
	out := make([]Entry, 0, r.meta.Count)
	it := r.Iter(0, math.MaxUint64)
	for it.Next() {
		out = append(out, it.Entry())
	}
	return out, it.Err()
}
