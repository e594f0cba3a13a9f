package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

const testKeys = 50_000

var mixedMix = mix{opGet: 35, opInsert: 45, opDelete: 15, opRange: 5}

func mustStream(t *testing.T, seed uint64, m mix) *stream {
	t.Helper()
	s, err := newStream(seed, testKeys, m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The op stream is a pure function of (seed, index): two streams built
// independently agree on every op whatever order they are asked in, and a
// different seed gives a different stream.
func TestStreamIsPureFunctionOfSeedAndIndex(t *testing.T) {
	a, b := mustStream(t, 42, mixedMix), mustStream(t, 42, mixedMix)
	other := mustStream(t, 43, mixedMix)
	rng := rand.New(rand.NewSource(1))
	differ := 0
	for n := 0; n < 20_000; n++ {
		i := uint64(rng.Intn(200_000)) // below where 50k keys run out of fresh ones
		if x, y := a.at(i), b.at(i); x != y {
			t.Fatalf("op %d: %+v vs %+v from the same seed", i, x, y)
		}
		if a.at(i) != a.at(i) {
			t.Fatalf("op %d: not repeatable", i)
		}
		if a.at(i) != other.at(i) {
			differ++
		}
	}
	if differ < 19_000 {
		t.Fatalf("seeds 42 and 43 agree on %d of 20000 ops", 20_000-differ)
	}
}

// Replayed in order against a map, every op is valid and every expectation
// the stream states is true: inserts are fresh, deletes hit live keys, GETs
// are present or absent as claimed, ranges have rangeLen live keys in bounds.
func TestStreamAgainstModel(t *testing.T) {
	for _, m := range []mix{mixedMix, {opGet: 50, opInsert: 25, opDelete: 25}, {opGet: 98, opInsert: 2}} {
		s := mustStream(t, 7, m)
		live := make(map[uint64]bool, 2*testKeys)
		for _, k := range s.keys {
			live[k] = true
		}
		var counts [numKinds]uint64
		for i := uint64(0); i < 200_000; i++ {
			o := s.at(i)
			if o.kind >= numKinds {
				t.Fatalf("mix %v op %d: %v", m, i, o.kind)
			}
			if got := s.count(o.kind, i); got != counts[o.kind] {
				t.Fatalf("mix %v op %d: count(%v) = %d, want %d", m, i, o.kind, got, counts[o.kind])
			}
			counts[o.kind]++
			switch o.kind {
			case opGet:
				if live[o.key] != o.present {
					t.Fatalf("mix %v op %d: get %d present=%v, model says %v", m, i, o.key, o.present, live[o.key])
				}
			case opInsert:
				if live[o.key] {
					t.Fatalf("mix %v op %d: insert of live key %d", m, i, o.key)
				}
				live[o.key] = true
			case opDelete:
				if !live[o.key] {
					t.Fatalf("mix %v op %d: delete of absent key %d", m, i, o.key)
				}
				delete(live, o.key)
			case opRange:
				if !live[o.key] || o.hi <= o.key {
					t.Fatalf("mix %v op %d: range [%d, %d] does not start at a live key", m, i, o.key, o.hi)
				}
				n := 0
				for r := sort.Search(len(s.keys), func(r int) bool { return s.keys[r] >= o.key }); s.keys[r] <= o.hi; r++ {
					if live[s.keys[r]] {
						n++
					}
				}
				if n < rangeLen {
					t.Fatalf("mix %v op %d: range has only %d live loaded keys", m, i, n)
				}
			}
		}
		if got, want := s.writes(1000, 200_000), counts[opInsert]+counts[opDelete]-s.writes(0, 1000); got != want {
			t.Fatalf("mix %v: writes(1000, 200000) = %d, want %d", m, got, want)
		}
	}
}

func TestStreamReportsExhaustion(t *testing.T) {
	s := mustStream(t, 1, mix{opGet: 0, opInsert: 100})
	capacity := uint64(len(s.gaps)) * maxRounds
	if o := s.at(capacity - 1); o.kind != opInsert {
		t.Fatalf("last fresh key: %+v", o)
	}
	if o := s.at(capacity); o.kind != opExhausted {
		t.Fatalf("past the fresh keys: %+v", o)
	}
	seen := make(map[uint64]bool, capacity)
	for k := uint64(0); k < capacity; k++ {
		key, _ := s.fresh(k)
		if seen[key] {
			t.Fatalf("fresh key %d repeats at ordinal %d", key, k)
		}
		seen[key] = true
	}
}

func TestRejectsBadMix(t *testing.T) {
	for _, m := range []mix{{opGet: 99}, {opGet: 80, opInsert: 5, opDelete: 15}} {
		if _, err := newPattern(1, m); err == nil {
			t.Errorf("mix %v accepted", m)
		}
	}
}

// percentile and median match the obvious definition on a sorted copy.
func TestPercentileAndMedianMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		vals := make([]uint32, n)
		floats := make([]float64, n)
		for i := range vals {
			vals[i] = uint32(rng.Intn(1_000_000))
			floats[i] = float64(vals[i])
		}
		sortU32(vals)
		for _, permille := range []int{500, 900, 990, 999, 1000} {
			// Oracle, in integers: the smallest value with at least that
			// share of the samples at or below it.
			want := vals[n-1]
			for i, v := range vals {
				if (i+1)*1000 >= permille*n {
					want = v
					break
				}
			}
			if got := percentile(vals, float64(permille)/10); got != float64(want) {
				t.Errorf("n=%d p%g = %v, want %v", n, float64(permille)/10, got, want)
			}
		}
		sorted := append([]float64(nil), floats...)
		sort.Float64s(sorted)
		want := sorted[n/2]
		if n%2 == 0 {
			want = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		if got := median(floats); got != want {
			t.Errorf("n=%d median = %v, want %v", n, got, want)
		}
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty input must give 0")
	}
	if v, p := tailPercentile(make([]uint32, 500)); p != 90 || v != 0 {
		t.Errorf("500 samples: tail p%g, want p90 (p99 leaves only 5 beyond it)", p)
	}
	if _, p := tailPercentile(make([]uint32, 20_000)); p != 99.9 {
		t.Errorf("20000 samples: tail p%g, want p99.9", p)
	}
}

func TestHostAccounting(t *testing.T) {
	u, err := readProc(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if u.hwmBytes < 1<<20 {
		t.Errorf("VmHWM = %d bytes", u.hwmBytes)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, size := range map[string]int{"a": 10, "sub/b": 4096} {
		if err := os.WriteFile(filepath.Join(dir, name), make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := dirSize(dir); err != nil || got != 4106 {
		t.Errorf("dirSize = %d, %v; want 4106", got, err)
	}
}

// The span resolver pairs each request with the index span of the same kind
// and key inside its interval, and nothing else.
func TestTracerResolve(t *testing.T) {
	tr := newTracer()
	tr.requests = []rawSpan{
		{kind: opGet, key: 5, req: 10, start: 100, end: 900},
		{kind: opGet, key: 5, req: 11, start: 150, end: 950}, // same key in flight twice
		{kind: opInsert, key: 7, req: 12, start: 200, end: 800},
		{kind: opGet, key: 9, req: 13, start: 300, end: 400}, // its index span falls outside
		// One key in flight twice, the second request nested in the first:
		// the earlier index span fits both, the later one only the outer.
		{kind: opGet, key: 3, req: 14, start: 1000, end: 2000},
		{kind: opGet, key: 3, req: 15, start: 1100, end: 1700},
	}
	tr.index = []rawSpan{
		{kind: opGet, batch: true, key: 5, start: 400, end: 500},
		{kind: opGet, batch: true, key: 5, start: 400, end: 500},
		{kind: opInsert, key: 7, start: 250, end: 750},
		{kind: opGet, key: 9, start: 350, end: 450},
		{kind: opGet, key: 3, start: 1200, end: 1300},
		{kind: opGet, key: 3, start: 1800, end: 1900},
	}
	res := tr.resolve()
	if res.requests != 6 || res.matched != 5 {
		t.Fatalf("matched %d of %d, want 5 of 6", res.matched, res.requests)
	}
	if got := res.selfP50[latWrite]; got != 0.1 { // (800-200) - (750-250) = 100 ns
		t.Errorf("write self time = %v us, want 0.1", got)
	}
	parents := make(map[uint64]span)
	for _, s := range res.spans {
		if s.Parent == 0 {
			parents[s.ID] = s
		}
	}
	for _, s := range res.spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := parents[s.Parent]
		if !ok || p.Req != s.Req || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("child %+v does not sit inside a parent with its request id", s)
		}
	}
}
