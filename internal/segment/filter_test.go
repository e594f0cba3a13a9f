package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"chameleon/internal/faultfs"
)

// TestFilterFalsePositiveRate: no key of the run is ever rejected — the
// fences always name the region it was added to — and of keys not in it (gap
// midpoints inside [min, max], the shape of a fresh-key insert) about one in
// a hundred passes.
func TestFilterFalsePositiveRate(t *testing.T) {
	keys, vals, _ := buildRun(200_000, 11, 0)
	var buf bytes.Buffer
	if _, err := Write(&buf, keys, vals, nil, 1, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	r, err := OpenBytes(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := len(r.filter)*64, len(keys)*filterBitsPerKey; got < want || got > want+filterBlockBits {
		t.Fatalf("filter is %d bits for %d keys, want %d bits/key", got, len(keys), filterBitsPerKey)
	}
	absent, passed := 0, 0
	for i := 1; i < len(keys); i++ {
		if !r.MayContain(keys[i]) {
			t.Fatalf("false negative on key %d (rank %d)", keys[i], i)
		}
		if mid := keys[i-1] + (keys[i]-keys[i-1])/2; mid != keys[i-1] {
			absent++
			if r.MayContain(mid) {
				passed++
			}
		}
	}
	rate := float64(passed) / float64(absent)
	t.Logf("false positives: %d of %d absent keys (%.2f %%)", passed, absent, 100*rate)
	if rate > 0.02 {
		t.Fatalf("false-positive rate %.3f, want ≤ 0.02 at %d bits/key", rate, filterBitsPerKey)
	}
	if r.MayContain(keys[0]-1) || r.MayContain(keys[len(keys)-1]+1) {
		t.Fatal("key outside [min, max] passed MayContain")
	}
}

// TestSegmentHostileCount: a header whose Count, data-section length or
// block count (Count again, with the data length shrunk so the file length
// still adds up) was inflated must be refused — before anything is sized
// from it. The first cut of the filter allocated Count × 10 bits here and
// died.
func TestSegmentHostileCount(t *testing.T) {
	valid := hostileCountSegment(t)
	binary.LittleEndian.PutUint64(valid[16:], 30)
	binary.LittleEndian.PutUint64(valid[48:], 30)
	dataLen := binary.LittleEndian.Uint64(valid[headerSize-8:])
	for name, mut := range map[string]func(d []byte){
		"count": func(d []byte) {
			binary.LittleEndian.PutUint64(d[16:], 1<<55)
			binary.LittleEndian.PutUint64(d[48:], 1<<55)
		},
		"data length": func(d []byte) { binary.LittleEndian.PutUint64(d[headerSize-8:], 1<<60) },
		"data length within the count's bounds": func(d []byte) {
			_, hi := dataBounds(30)
			binary.LittleEndian.PutUint64(d[headerSize-8:], hi)
		},
		"block count": func(d []byte) {
			// One more block: +8 bytes of offset table, +8 of bitmap.
			binary.LittleEndian.PutUint64(d[16:], 30+64)
			binary.LittleEndian.PutUint64(d[48:], 30+64)
			binary.LittleEndian.PutUint64(d[headerSize-8:], dataLen-16)
		},
	} {
		data := append([]byte(nil), valid...)
		mut(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := OpenBytes(data, nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("inflated %s: err = %v, want ErrCorrupt", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("refusing an inflated %s allocated %d bytes", name, grew)
		}
	}
}

// hostileCountSegment is a valid 30-entry segment with Count and Live
// overwritten by 2⁵⁵ (the CRC is not fixed up: the geometry checks come
// first).
func hostileCountSegment(t testing.TB) []byte {
	keys, vals, _ := buildRun(30, 5, 0)
	var buf bytes.Buffer
	if _, err := Write(&buf, keys, vals, nil, 1, 0, 7, 0); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint64(data[16:], 1<<55)
	binary.LittleEndian.PutUint64(data[48:], 1<<55)
	return data
}

// TestGetDoesNotAllocate: a cold probe of an on-disk run — hit, filtered
// miss, or a miss that reads its block — allocates nothing, also for the
// first and last key of a block.
func TestGetDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	keys, vals, tombs := buildRun(5_000, 3, 7)
	_, r := createRun(t, t.TempDir(), keys, vals, tombs, 1, 1, 0)
	// An absent key the filter lets through, so one probe reads its block
	// and still misses.
	missing := keys[0] + 1
	for ; missing < keys[len(keys)-1]; missing++ {
		if i := sort.Search(len(keys), func(i int) bool { return keys[i] >= missing }); keys[i] != missing && r.MayContain(missing) {
			break
		}
	}
	// The first and last keys of block 1: its fence, and the key just below
	// the next one.
	edges := []uint64{keys[blockRanks], keys[2*blockRanks-1]}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		k := keys[i%len(keys)]
		i++
		for _, k := range [...]uint64{edges[0], edges[1], k} {
			if _, _, ok, _, err := r.Get(k); err != nil || !ok {
				t.Fatalf("Get(%d) = ok %v, err %v", k, ok, err)
			}
		}
		if _, _, ok, _, err := r.Get(k + 1<<40); err != nil || ok {
			t.Fatalf("Get(out of range) = ok %v, err %v", ok, err)
		}
		if _, _, ok, _, err := r.Get(missing); err != nil || ok {
			t.Fatalf("Get(false positive %d) = ok %v, err %v", missing, ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Get allocates %.1f times per five probes, want 0", allocs)
	}
}

// TestCloseDuringReads: probes racing Close either complete with the right
// answer or fail with ErrClosed — never a raw file error, never a wrong
// value — and every read after Close returns ErrClosed.
func TestCloseDuringReads(t *testing.T) {
	keys, vals, _ := buildRun(20_000, 9, 0)
	dir := t.TempDir()
	m, err := Create(faultfs.OS, dir, keys, vals, nil, 1, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(faultfs.OS, filepath.Join(dir, FileName(1)), &m)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; ; n++ {
				if n == 100 {
					started <- struct{}{}
				}
				i := rng.Intn(len(keys))
				v, _, ok, _, err := r.Get(keys[i])
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil || !ok || v != vals[i] {
					t.Errorf("Get(%d) racing Close = %d, %v, %v", keys[i], v, ok, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-started
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, _, _, _, err := r.Get(keys[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close: %v, want ErrClosed", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
