package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"sync"
	"testing"

	"chameleon/internal/dataset"
)

func TestPersistRoundTripStructure(t *testing.T) {
	keys := dataset.Generate(dataset.FACE, 40_000, 7)
	ix := fastIndex("Chameleon")
	if err := ix.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	before := ix.Stats()

	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) || n == 0 {
		t.Fatalf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}

	loaded := fastIndex("Chameleon")
	if m, err := loaded.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil || m != n {
		t.Fatalf("ReadFrom = %d, %v; want %d bytes", m, err, n)
	}
	// The tree shape is kept; leaf slots are re-placed, so placement error
	// may move but stays within the leaves' probe bound.
	after := loaded.Stats()
	if before.Nodes != after.Nodes || before.MaxHeight != after.MaxHeight || before.AvgHeight != after.AvgHeight || after.MaxError > 128 {
		t.Fatalf("structure changed across persistence:\nbefore %+v\nafter  %+v", before, after)
	}
	if loaded.Len() != len(keys) {
		t.Fatalf("Len = %d", loaded.Len())
	}
	for i := 0; i < len(keys); i += 71 {
		if v, ok := loaded.Lookup(keys[i]); !ok || v != keys[i] {
			t.Fatalf("Lookup(%d) = %d,%v after load", keys[i], v, ok)
		}
	}
	// The loaded index stays fully functional: updates and retraining.
	fresh := keys[len(keys)-1] + 5
	if err := loaded.Insert(fresh, 1); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Delete(keys[0]); err != nil {
		t.Fatal(err)
	}
	if loaded.driftedGates() < 0 {
		t.Fatal("gate registry broken")
	}
	loaded.RetrainPass()
	if _, ok := loaded.Lookup(fresh); !ok {
		t.Fatal("post-load insert lost")
	}
}

func TestPersistRejectsGarbage(t *testing.T) {
	ix := fastIndex("Chameleon")
	if _, err := ix.ReadFrom(bytes.NewReader([]byte("not an index"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Any single bit flip anywhere in a valid file must be caught by the
	// envelope (magic, version, CRC, or footer) — there is no "plausible
	// corruption" any more.
	var buf bytes.Buffer
	other := fastIndex("Chameleon")
	if err := other.BulkLoad(dataset.Uniform(1000, 1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := other.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	intact := buf.Bytes()
	for _, pos := range []int{0, 9, len(intact) / 2, len(intact) - 15, len(intact) - 1} {
		raw := append([]byte(nil), intact...)
		raw[pos] ^= 0xFF
		if _, err := ix.ReadFrom(bytes.NewReader(raw)); err == nil {
			t.Fatalf("bit flip at %d accepted", pos)
		}
	}
	// Truncation at any point is a clean error, not a panic; so are bytes
	// after the footer.
	for cut := 0; cut < len(intact); cut += 97 {
		if _, err := ix.ReadFrom(bytes.NewReader(intact[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := ix.ReadFrom(bytes.NewReader(append(append([]byte(nil), intact...), 0))); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// The rejected loads left the index unchanged and usable.
	if err := ix.Insert(42, 42); err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.Lookup(42); !ok {
		t.Fatal("index unusable after rejected loads")
	}
}

func TestPersistEmptyIndex(t *testing.T) {
	ix := fastIndex("Chameleon")
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := fastIndex("Chameleon")
	if _, err := loaded.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 0 {
		t.Fatalf("Len = %d", loaded.Len())
	}
	if err := loaded.Insert(5, 50); err != nil {
		t.Fatal(err)
	}
	if v, ok := loaded.Lookup(5); !ok || v != 50 {
		t.Fatalf("Lookup(5) = %d,%v", v, ok)
	}
}

// snapField is the byte span of one encoded field of a CHAMSNP3 file.
type snapField struct{ off, end int }

// snapFields locates the fields the corruption table mutates: the header's,
// the root's ("root."), the root's first child's ("child."), the first leaf
// holding at least two keys ("leaf."), and the trailer.
func snapFields(t *testing.T, raw []byte) map[string]snapField {
	t.Helper()
	r := &snapReader{src: bytes.NewReader(raw), buf: make([]byte, snapBufSize)}
	fields := map[string]snapField{}
	// mark records a field's span the first time its name is read; the claim
	// comes before read, so an enclosing node wins over its descendants.
	mark := func(name string, read func()) {
		off := int(r.consumed())
		_, seen := fields[name]
		if !seen {
			fields[name] = snapField{}
		}
		read()
		if !seen {
			fields[name] = snapField{off, int(r.consumed())}
		}
	}
	r.take(snapHeaderLen)
	mark("name", func() { r.take(int(r.uv())) })
	mark("tau", func() { r.f64() })
	mark("alpha", func() { r.f64() })
	mark("height", func() { r.uv() })
	mark("baseN", func() { r.uv() })
	var node func(p string)
	node = func(p string) {
		var tag byte
		mark(p+"tag", func() { tag = r.u8() })
		r.u64()
		r.u64()
		if tag == tagInner {
			var fanout uint64
			mark(p+"fanout", func() { fanout = r.uv() })
			mark(p+"gate", func() { r.uv() })
			for i := uint64(0); i < fanout; i++ {
				mark("child.node", func() { node("child.") })
			}
			return
		}
		leaf := map[string]snapField{}
		lm := func(name string, read func()) {
			off := int(r.consumed())
			read()
			leaf["leaf."+name] = snapField{off, int(r.consumed())}
		}
		var n uint64
		lm("lo", func() { r.u64() })
		lm("hi", func() { r.u64() })
		lm("cap", func() { r.uv() })
		lm("alpha", func() { r.f64() })
		lm("tau", func() { r.f64() })
		lm("saturated", func() { r.u8() })
		lm("n", func() { n = r.uv() })
		r.deltas(nil, min(n, 1))
		if n >= 2 {
			lm("key1", func() { r.uv() })
			r.deltas(nil, n-2)
		}
		r.fixed(nil, n)
		if _, seen := fields["leaf.n"]; !seen && n >= 2 {
			for k, f := range leaf {
				fields[k] = f
			}
		}
	}
	node("root.")
	mark("count", func() { r.uv() })
	if r.err != nil {
		t.Fatal(r.err)
	}
	return fields
}

// splice replaces field f of a CHAMSNP3 file with b and re-seals the footer,
// so only the decoder's structural checks stand between the change and an
// installed index.
func splice(raw []byte, f snapField, b []byte) []byte {
	out := append(append(append([]byte(nil), raw[:f.off]...), b...), raw[f.end:]...)
	payload := out[snapHeaderLen : len(out)-snapFooterLen]
	ftr := out[len(out)-snapFooterLen:]
	binary.LittleEndian.PutUint64(ftr[0:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(ftr[8:], crc32.Checksum(payload, snapCRC))
	return out
}

func uvBytes(v uint64) []byte  { return binary.AppendUvarint(nil, v) }
func u64Bytes(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
func f64Bytes(f float64) []byte {
	return binary.LittleEndian.AppendUint64(nil, math.Float64bits(f))
}

// TestPersistRejectsAbsurdFields mutates one field of a valid file at a time
// and re-seals its footer: every variant must be rejected by the structural
// checks, and the receiving index must stay usable.
func TestPersistRejectsAbsurdFields(t *testing.T) {
	ix := fastIndex("Chameleon")
	if err := ix.BulkLoad(dataset.Uniform(2000, 1), nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	f := snapFields(t, raw)
	for _, name := range []string{"root.gate", "child.node", "leaf.key1", "count"} {
		if _, ok := f[name]; !ok {
			t.Fatalf("test index has no %s field", name)
		}
	}
	count, _ := binary.Uvarint(raw[f["count"].off:])
	rootFanout, _ := binary.Uvarint(raw[f["root.fanout"].off:])
	cases := map[string][]byte{
		"inflated gate IDs":        splice(raw, f["root.gate"], uvBytes(1<<40+1)),
		"wrapping gate base":       splice(raw, f["root.gate"], uvBytes(math.MaxUint64)),
		"wrong count":              splice(raw, f["count"], uvBytes(count+3)),
		"count beyond int64":       splice(raw, f["count"], uvBytes(1<<63)),
		"baseN beyond int64":       splice(raw, f["baseN"], uvBytes(1<<63)),
		"zero height":              splice(raw, f["height"], uvBytes(0)),
		"absurd height":            splice(raw, f["height"], uvBytes(1<<20)),
		"tau out of range":         splice(raw, f["tau"], f64Bytes(1.5)),
		"zero alpha":               splice(raw, f["alpha"], f64Bytes(0)),
		"absurd name":              splice(raw, f["name"], uvBytes(maxNameLen+1)),
		"bad root tag":             splice(raw, f["root.tag"], []byte{7}),
		"empty child":              splice(raw, f["child.node"], append([]byte{tagInner}, make([]byte, 18)...)),
		"fanout mismatch":          splice(raw, f["root.fanout"], uvBytes(rootFanout+1)),
		"absurd fanout":            splice(raw, f["root.fanout"], uvBytes(maxFanout+1)),
		"leaf capacity below keys": splice(raw, f["leaf.cap"], uvBytes(1)),
		"leaf inverted interval":   splice(raw, f["leaf.lo"], u64Bytes(math.MaxUint64)),
		"leaf tau":                 splice(raw, f["leaf.tau"], f64Bytes(0)),
		"leaf alpha":               splice(raw, f["leaf.alpha"], f64Bytes(math.NaN())),
		"leaf saturated flag":      splice(raw, f["leaf.saturated"], []byte{2}),
		"leaf duplicate key":       splice(raw, f["leaf.key1"], uvBytes(0)),
		"leaf count beyond bytes":  splice(raw, f["leaf.n"], uvBytes(1<<40)),
	}
	for name, mutated := range cases {
		fresh := fastIndex("Chameleon")
		if _, err := fresh.ReadFrom(bytes.NewReader(mutated)); err == nil {
			t.Errorf("%s: accepted", name)
		}
		// The index must remain usable after the rejected load.
		if err := fresh.Insert(5, 50); err != nil {
			t.Fatalf("%s: insert after rejected load: %v", name, err)
		}
		if _, ok := fresh.Lookup(5); !ok {
			t.Fatalf("%s: index unusable after rejected load", name)
		}
	}
	// Re-sealing an unmutated field changes nothing: the harness is sound.
	if _, err := fastIndex("Chameleon").ReadFrom(bytes.NewReader(splice(raw, f["tau"], raw[f["tau"].off:f["tau"].end]))); err != nil {
		t.Fatalf("re-sealed valid file rejected: %v", err)
	}
}

// TestReadFromBoundsAllocation: a header may claim any fanout, capacity or
// key count; the decoder allocates from the bytes that arrive, not from the
// claim, so each of these fails as corrupt having allocated under 1 MB.
func TestReadFromBoundsAllocation(t *testing.T) {
	head := append([]byte(snapMagic), 3, 0, 0, 0)
	head = append(head, 1, 'x')
	head = append(head, f64Bytes(0.45)...)
	head = append(head, f64Bytes(131)...)
	head = append(head, 2, 0) // height, baseN
	leaf := func(capacity, n uint64) []byte {
		b := append([]byte{tagLeaf}, u64Bytes(0)...)
		b = append(b, u64Bytes(math.MaxUint64)...)
		b = append(b, u64Bytes(0)...)
		b = append(b, u64Bytes(1<<40)...)
		b = append(b, uvBytes(capacity)...)
		b = append(b, f64Bytes(131)...)
		b = append(b, f64Bytes(0.45)...)
		b = append(b, 0)
		return append(b, uvBytes(n)...)
	}
	inner := append([]byte{tagInner}, u64Bytes(0)...)
	inner = append(inner, u64Bytes(math.MaxUint64)...)
	inner = append(inner, uvBytes(maxFanout)...)
	inner = append(inner, 0)
	cases := map[string][]byte{
		"fanout 2^26":             append(append([]byte(nil), head...), inner...),
		"capacity 2^40, no keys":  append(append([]byte(nil), head...), leaf(1<<40, 0)...),
		"n beyond the bytes left": append(append(append([]byte(nil), head...), leaf(16, 1<<40)...), bytes.Repeat([]byte{1}, 4096)...),
	}
	for name, raw := range cases {
		ix := fastIndex("Chameleon")
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := ix.ReadFrom(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: err = %v, want ErrSnapshotCorrupt", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: allocated %d bytes", name, alloc)
		}
	}
}

// TestWriteToDuringLiveWrites exercises the interval-locked snapshot walk:
// WriteTo runs while writer goroutines insert concurrently, and the resulting
// file must decode into a self-consistent index (Count equals the keys
// actually present, every present key readable) — no torn leaves, no count
// drift. Writers interleave bounded insert batches across the whole key range
// so every gate sees contention but none is monopolized (the interval
// spinlock is unfair; an unbounded tight loop on one interval can starve the
// snapshot walk indefinitely).
func TestWriteToDuringLiveWrites(t *testing.T) {
	base := dataset.Uniform(20_000, 3)
	ix := fastIndex("Chameleon")
	if err := ix.BulkLoad(base, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Neighbors of existing keys, striped per writer: spread over
			// every interval; collisions with base or other writers are
			// legal duplicate errors.
			for i := w; i < len(base); i += 4 {
				ix.Insert(base[i]+1, 1) //nolint:errcheck
			}
		}(w)
	}
	bufs := make([]bytes.Buffer, 3)
	for i := range bufs {
		if _, err := ix.WriteTo(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i := range bufs {
		loaded := fastIndex("Chameleon")
		if _, err := loaded.ReadFrom(bytes.NewReader(bufs[i].Bytes())); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		// Count self-consistency is verified by ReadFrom itself; the base
		// keys predate every writer and must all be present.
		for j := 0; j < len(base); j += 503 {
			if _, ok := loaded.Lookup(base[j]); !ok {
				t.Fatalf("snapshot %d: base key %d missing", i, base[j])
			}
		}
		if loaded.Len() < len(base) {
			t.Fatalf("snapshot %d: Len = %d < %d base keys", i, loaded.Len(), len(base))
		}
	}
}

func TestReadFromReportsCorruptSentinel(t *testing.T) {
	ix := fastIndex("Chameleon")
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0x10
	_, err := fastIndex("Chameleon").ReadFrom(bytes.NewReader(raw))
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
	}
}
