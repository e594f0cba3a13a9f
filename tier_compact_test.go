package chameleon

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"chameleon/internal/faultfs"
	"chameleon/internal/segment"
)

// memRun encodes one run in memory and opens it, for selection tests that
// need readers but no directory.
func memRun(t *testing.T, id uint64, level int, seq, lo, n uint64, tombAt int) *segment.Reader {
	t.Helper()
	keys := make([]uint64, n)
	tombs := make([]bool, n)
	for i := range keys {
		keys[i] = lo + uint64(i)
	}
	if tombAt >= 0 {
		tombs[tombAt] = true
	}
	var buf bytes.Buffer
	meta, err := segment.Write(&buf, keys, keys, tombs, id, level, seq, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := segment.OpenBytes(buf.Bytes(), &meta)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestPickCompaction pins the input-selection rule on a hand-built set: an
// L0 run, a small delta under it, and a two-file base of which only one file
// overlaps anything newer.
func TestPickCompaction(t *testing.T) {
	ids := func(rs []*segment.Reader) string {
		var out []uint64
		for _, r := range rs {
			out = append(out, r.Meta().ID)
		}
		return fmt.Sprint(out)
	}
	l0 := memRun(t, 9, 0, 90, 0, 50, -1)
	delta := memRun(t, 7, 1, 50, 10, 20, -1)
	baseA := memRun(t, 2, 1, 10, 0, 1000, -1)
	baseB := memRun(t, 1, 1, 10, 5000, 1000, -1)
	set := []*segment.Reader{l0, delta, baseA, baseB}
	sortNewestFirst(set)

	if runs := groupRuns(set); len(runs) != 3 || len(runs[2].files) != 2 {
		t.Fatalf("groupRuns: %d runs, want 3 with a two-file base", len(runs))
	}
	// Bounded: the delta fits under 4× the L0 bytes, the base does not fit
	// under 4× the two together.
	in, rest := pickCompaction(set, false)
	if ids(in) != "[9 7]" || ids(rest) != "[2 1]" {
		t.Fatalf("bounded pick: inputs %s rest %s, want [9 7] and [2 1]", ids(in), ids(rest))
	}
	// Full: everything is taken, but base file B overlaps no other run and
	// has nothing to drop, so it stays where it is.
	in, rest = pickCompaction(set, true)
	if ids(in) != "[9 7 2]" || ids(rest) != "[1]" {
		t.Fatalf("full pick: inputs %s rest %s, want [9 7 2] and [1]", ids(in), ids(rest))
	}
	// A tombstone in B is something a full merge must get to drop.
	set[3] = memRun(t, 1, 1, 10, 5000, 1000, 3)
	in, rest = pickCompaction(set, true)
	if ids(in) != "[9 7 2 1]" || len(rest) != 0 {
		t.Fatalf("full pick with tombstone: inputs %s rest %s, want everything", ids(in), ids(rest))
	}
	// Nothing to do: one tombstone-free run.
	if in, _ := pickCompaction([]*segment.Reader{baseA, baseB}, true); len(in) != 0 {
		t.Fatalf("single clean run picked for compaction: %s", ids(in))
	}
}

// ladderOpts is a tier whose flushes are explicit and whose second L0 run
// triggers a (bounded) merge. The memtable's own reconstruction is off: a
// memtable regrown from empty after every flush re-runs the structure
// search again and again, which is most of these tests' time and none of
// their subject.
func ladderOpts() DirOptions {
	o := tieredOpts()
	o.Sync = SyncNone
	o.ReconstructThreshold = -1
	o.CompactL0 = 2
	return o
}

// baseID is the ID of the oldest file — the base run, whose replacement is
// how the tests tell a merge that reached the base from one that did not.
func baseID(d *DurableIndex) uint64 {
	rs := d.tier.segs.Load().readers
	return rs[len(rs)-1].Meta().ID
}

func tombstones(d *DurableIndex) (n uint64) {
	for _, m := range d.tier.segs.Load().metas() {
		n += m.Count - m.Live
	}
	return n
}

// TestTieredLadderTombstones holds the two directed cases of the elision
// rule. Resurrection: a tombstone above the base whose key the base still
// holds must survive a merge that stops short of the base. Elision: a
// tombstone whose key no left-out run holds must not.
func TestTieredLadderTombstones(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, ladderOpts())
	if err != nil {
		t.Fatal(err)
	}
	base := make([]uint64, 20_000)
	for i := range base {
		base[i] = uint64(i) * 10
	}
	if err := d.BulkLoad(base, nil); err != nil {
		t.Fatal(err)
	}
	bid := baseID(d)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Run 1: delete base-resident keys, insert fresh ones. Run 2: delete the
	// fresh ones. The second flush merges both runs and stops above the base.
	const n = 200
	for i := uint64(0); i < n; i++ {
		must(d.Delete(base[i*50]))
		must(d.Insert(i*10+5, i))
	}
	must(d.Flush())
	for i := uint64(0); i < n; i++ {
		must(d.Delete(i*10 + 5))
	}
	must(d.Flush())

	th := d.Health().Tier
	if th.Compactions != 1 || th.Runs != 2 || baseID(d) != bid {
		t.Fatalf("want one merge that left the base alone: %d compactions, %d runs, base %d→%d",
			th.Compactions, th.Runs, bid, baseID(d))
	}
	// The n base tombstones are all still needed; of the n fresh-key
	// tombstones only the base filter's false positives (~1 %) may remain.
	if got := tombstones(d); got < n || got > n+n/10 {
		t.Fatalf("delta holds %d tombstones, want the %d the base needs and at most %d spared by false positives", got, n, n/10)
	}
	check := func(d *DurableIndex, phase string) {
		t.Helper()
		for i := uint64(0); i < n; i++ {
			if _, ok := d.Lookup(base[i*50]); ok {
				t.Fatalf("%s: deleted base key %d resurrected", phase, base[i*50])
			}
			if _, ok := d.Lookup(i*10 + 5); ok {
				t.Fatalf("%s: deleted fresh key %d visible", phase, i*10+5)
			}
		}
		if want := len(base) - n; d.Len() != want {
			t.Fatalf("%s: Len = %d, want %d", phase, d.Len(), want)
		}
	}
	check(d, "after bounded merge")
	must(d.Close())
	d, err = OpenDir(dir, ladderOpts())
	must(err)
	defer d.Close()
	check(d, "after reopen")

	// The full merge reaches the base and leaves no tombstone behind.
	must(d.Compact())
	if th := d.Health().Tier; th.Runs != 1 || tombstones(d) != 0 || baseID(d) == bid {
		t.Fatalf("full merge: %d runs, %d tombstones, base %d→%d", th.Runs, tombstones(d), bid, baseID(d))
	}
	check(d, "after full merge")
}

// TestCompactFailureCounted: a Compact() that fails through the public path
// shows up in CompactErrs (only the flush-triggered call used to count),
// changes nothing, and succeeds once the disk has room again.
func TestCompactFailureCounted(t *testing.T) {
	q := faultfs.NewQuotaFS(faultfs.OS, 1<<30)
	o := ladderOpts()
	o.CompactL0 = 1 << 20 // no merge until asked
	d, err := openDirFS(t.TempDir(), o, q)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for round := uint64(0); round < 2; round++ {
		for i := uint64(0); i < 100; i++ {
			if err := d.Insert(i*2+round, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	q.AddCapacity(-(1 << 30)) // disk full
	if err := d.Compact(); err == nil {
		t.Fatal("Compact succeeded on a full disk")
	}
	if th := d.Health().Tier; th.CompactErrs != 1 || th.Compactions != 0 || th.Runs != 2 {
		t.Fatalf("after failed Compact: %d errors, %d compactions, %d runs; want 1, 0, 2",
			th.CompactErrs, th.Compactions, th.Runs)
	}
	q.AddCapacity(1 << 30)
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if th := d.Health().Tier; th.CompactErrs != 1 || th.Runs != 1 || d.Len() != 200 {
		t.Fatalf("after retry: %d errors, %d runs, Len %d; want 1, 1, 200", th.CompactErrs, th.Runs, d.Len())
	}
}

// TestTieredLadderModel drives random inserts, deletes and re-inserts —
// deletes of base-resident keys included — against a map, flushing at random
// points so merges of every depth run, and compares the whole read surface
// with the map at intervals, after a reopen and after a final full merge.
func TestTieredLadderModel(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { ladderModel(t, seed) })
	}
}

func ladderModel(t *testing.T, seed int64) {
	const universe = 16_384
	dir := t.TempDir()
	d, err := OpenDir(dir, ladderOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	rng := rand.New(rand.NewSource(seed))
	model := make(map[uint64]uint64)
	var base []uint64
	for k := uint64(0); k < universe; k += 2 {
		base = append(base, k)
		model[k] = k
	}
	if err := d.BulkLoad(base, nil); err != nil {
		t.Fatal(err)
	}

	var above, reached int // merges that stopped above the base / reached it
	flush := func() {
		t.Helper()
		before, bid := d.Health().Tier.Compactions, baseID(d)
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if d.Health().Tier.Compactions > before {
			if baseID(d) == bid {
				above++
			} else {
				reached++
			}
		}
	}
	nextFlush := 50 + rng.Intn(300)
	for op := 0; op < 14_000; op++ {
		key := uint64(rng.Intn(universe))
		if _, ok := model[key]; ok {
			if err := d.Delete(key); err != nil {
				t.Fatalf("op %d: delete %d: %v", op, key, err)
			}
			delete(model, key)
		} else {
			val := rng.Uint64()
			if err := d.Insert(key, val); err != nil {
				t.Fatalf("op %d: insert %d: %v", op, key, err)
			}
			model[key] = val
		}
		if nextFlush--; nextFlush == 0 {
			flush()
			nextFlush = 50 + rng.Intn(300)
		}
		switch {
		case op%3500 == 3499:
			compareWithOracle(t, d, model, fmt.Sprintf("op %d", op))
		case op == 8000:
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if d, err = OpenDir(dir, ladderOpts()); err != nil {
				t.Fatal(err)
			}
			compareWithOracle(t, d, model, "after reopen")
		}
	}
	if above == 0 || reached == 0 {
		t.Fatalf("merges stopping above the base: %d, reaching it: %d — want both", above, reached)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := tombstones(d); n != 0 {
		t.Fatalf("%d tombstones survived the full merge", n)
	}
	compareWithOracle(t, d, model, "after full merge")
}

// TestTieredSteadyStateWriteAmp is the countable long-run figure: a
// memtable 1/128 of the base, uniform fresh-key inserts until the data has
// doubled, and the bytes compaction wrote per payload byte. Rewriting the
// base on every fourth flush cost 49×; the size-ratio rule must stay under
// 10× while a read still has at most 8 runs to consult.
func TestTieredSteadyStateWriteAmp(t *testing.T) {
	const (
		baseKeys = 32_768
		perFlush = baseKeys / 128
	)
	o := ladderOpts()
	o.CompactL0 = 0 // the default: every fourth flush
	d, err := OpenDir(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := make([]uint64, baseKeys)
	for i := range base {
		base[i] = uint64(i) * 1024
	}
	if err := d.BulkLoad(base, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	maxRuns, deltaShare := 0, 0.0
	seen := make(map[uint64]bool, baseKeys)
	for i := 0; i < baseKeys; i++ {
		// Uniform over the base's range; the low bit keeps it off base keys.
		key := uint64(rng.Intn(baseKeys*512))<<1 | 1
		for seen[key] {
			key += 2
		}
		seen[key] = true
		if err := d.Insert(key, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if i%perFlush == perFlush-1 {
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			th := d.Health().Tier
			maxRuns = max(maxRuns, th.Runs)
			rs := d.tier.segs.Load().readers
			baseBytes := rs[len(rs)-1].Meta().Bytes
			deltaShare = max(deltaShare, float64(th.SegmentBytes-baseBytes)/float64(baseBytes))
		}
	}
	th := d.Health().Tier
	amp := float64(th.CompactBytes) / float64(baseKeys*16)
	t.Logf("%d flushes, %d compactions: compaction wrote %.1f× the payload, at most %d runs, runs above the base peaked at %.0f %% of it",
		th.Flushes, th.Compactions, amp, maxRuns, 100*deltaShare)
	if amp > 10 || maxRuns > 8 {
		t.Fatalf("compaction bytes ÷ payload = %.1f (want ≤ 10), max runs = %d (want ≤ 8)", amp, maxRuns)
	}
	if d.Len() != 2*baseKeys {
		t.Fatalf("Len = %d, want %d", d.Len(), 2*baseKeys)
	}
}

// TestTieredFlusherIgnoresStaleSignal: a flush token whose budget is no
// longer crossed is dropped. A commit landing between the flusher's wake-up
// and its freeze leaves such a token behind; acting on it flushed the few
// keys written since, one small segment after every real flush.
func TestTieredFlusherIgnoresStaleSignal(t *testing.T) {
	d, err := OpenDir(t.TempDir(), tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for k := uint64(1); k <= 10; k++ {
		if err := d.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	// The channel holds one token, so the third send completes only once
	// the flusher has taken the second, that is, once it is done with the
	// first.
	for i := 0; i < 3; i++ {
		d.tier.flushCh <- struct{}{}
	}
	if n := d.Health().Tier.Flushes; n != 0 {
		t.Fatalf("a stale signal flushed %d time(s) with 10 keys in a %d B memtable", n, d.tier.memBytes)
	}
}
