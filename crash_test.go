package chameleon

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"chameleon/internal/faultfs"
	"chameleon/internal/segment"
)

// TestCrashSweep is the crash test of every storage configuration: one table
// whose rows are (configuration, operation script, swept step window, tear
// modes), and one oracle. Each cell runs the row's script on a CrashFS that
// kills the process at step k with tear mode m, reopens the directory on the
// real filesystem, as a rebooted process would, and checks what it recovered
// (crashRow.check).
//
// Each row logs its cell count under -v. A change that deletes a row says
// how many cells it gives up.
func TestCrashSweep(t *testing.T) {
	for _, row := range crashRows(t) {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			row.sweep(t)
		})
	}
}

// crashStore is the surface a script drives: DurableIndex, ShardedIndex and
// savedFile (Index.Save) satisfy it.
type crashStore interface {
	Insert(key, val uint64) error
	Delete(key uint64) error
	BulkLoad(keys, vals []uint64) error
	Checkpoint() error
	Range(lo, hi uint64, fn func(key, val uint64) bool)
	CommitSeq() uint64
	Close() error
}

type crashRow struct {
	name string
	open func(dir string, fsys faultfs.FS) (crashStore, error)
	// writers run concurrently, each on its own keys, before ops; a row
	// without writers is serial.
	writers [][]crashOp
	ops     []crashOp
	// lastOnly sweeps the steps of the last op, from the step it starts at
	// to the one after it ends; otherwise the sweep runs from open to the
	// step after the last op.
	lastOnly bool
	// stride sweeps every stride-th step; short, when set, replaces it
	// under -short.
	stride, short int64
	// allTears runs each step in all three tear modes; otherwise step k
	// tears with mode k%3.
	allTears bool
	// kill runs each step in tear mode 2 only, a process kill: what the
	// process wrote reaches the file, and what it buffered is lost. Such a
	// row's recovery is held to checkPrefix, not check: a buffered sync
	// policy loses the acked writes still in the WAL's buffer.
	kill bool
}

func (r crashRow) sweep(t *testing.T) {
	// The clean run sizes the window and checks the script: no op fails, and
	// the shapes it asserts hold.
	_, at := r.run(t, t.TempDir(), 1<<40, 0, true)
	lo, hi := int64(0), at[len(at)-1]
	what := "the whole run"
	if r.lastOnly {
		lo, hi, what = at[len(at)-3], at[len(at)-2], r.ops[len(r.ops)-1].String()
	}
	if hi <= lo {
		t.Fatalf("%s consumed no steps", what)
	}
	stride := r.stride
	if testing.Short() && r.short > 0 {
		stride = r.short
	}
	tears, tearDesc := []int{-1}, "k%3"
	switch {
	case r.allTears:
		tears, tearDesc = []int{0, 1, 2}, "all three"
	case r.kill:
		tears, tearDesc = []int{2}, "2 (kill)"
	}
	cells := 0
	for k := lo; k <= hi; k += stride {
		for _, tear := range tears {
			if tear < 0 {
				tear = int(k % 3)
			}
			dir := t.TempDir()
			traces, _ := r.run(t, dir, k, tear, false)
			cell := fmt.Sprintf("crash@%d tear %d", k, tear)
			if r.kill {
				r.checkPrefix(t, cell, dir, traces[0])
			} else {
				r.check(t, cell, dir, traces)
			}
			cells++
		}
	}
	t.Logf("%s: %d cells: steps %d..%d (%s), stride %d, tears %s", r.name, cells, lo, hi, what, stride, tearDesc)
}

// crashTrace is one script's history in a run: the model after its acked
// prefix, and after that prefix plus the op in flight at the crash, the
// first op to return an error. Without an error the two are the same.
// history lists the mutations in commit order, the one in flight last, and
// floor counts those the last acked bulk load, checkpoint or flush made
// durable.
type crashTrace struct {
	acked, inflight crashModel
	failed          string
	history         []crashOp
	floor           int
}

type crashModel struct {
	kv  map[uint64]uint64
	seq uint64
}

// run opens dir through a CrashFS that crashes at step budget, runs the
// writers and then ops, and closes. It returns one trace per writer and one
// for ops, and the steps consumed before each op, after the last and after
// the close.
func (r crashRow) run(t *testing.T, dir string, budget int64, tear int, clean bool) ([]crashTrace, []int64) {
	t.Helper()
	cfs := faultfs.NewCrashFS(faultfs.OS, budget)
	cfs.Tear = tear
	hfs := &segHookFS{CrashFS: cfs}
	traces := make([]crashTrace, len(r.writers)+1)
	s, err := r.open(dir, hfs)
	if err != nil {
		if !cfs.Crashed() {
			t.Fatalf("open: %v", err)
		}
		return traces, nil // nothing acked
	}
	var wg sync.WaitGroup
	for i, w := range r.writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			traces[i], _ = runScript(t, s, hfs, w, clean, false)
		}()
	}
	wg.Wait()
	var at []int64
	traces[len(r.writers)], at = runScript(t, s, hfs, r.ops, clean, r.kill)
	s.Close() //nolint:errcheck // what a crashed close loses, the row's oracle allows
	if clean && t.Failed() {
		t.FailNow()
	}
	return traces, append(at, cfs.Steps())
}

// runScript runs ops in order and traces them. Once an op has failed, a
// later mutation may not be acked. Under kill no op starts after the crash:
// the process is dead, and a write that only fills the WAL's buffer would
// be acked without touching the disk. A flush with during ops runs them when
// it opens its segment file, after its WAL rotation and before its manifest
// commit. It returns the trace and the steps consumed before each op and
// after the last.
func runScript(t *testing.T, s crashStore, hfs *segHookFS, ops []crashOp, clean, kill bool) (crashTrace, []int64) {
	tr := crashTrace{acked: crashModel{kv: map[uint64]uint64{}}, failed: "no op"}
	at := make([]int64, 0, len(ops)+1)
	failed := false
	var run func(op crashOp)
	run = func(op crashOp) {
		if kill && hfs.Crashed() {
			return
		}
		if len(op.during) > 0 {
			hfs.onSegment(func() {
				for _, d := range op.during {
					run(d)
				}
			})
		}
		before := len(tr.history)
		err := op.apply(s)
		switch {
		case failed:
			if err == nil && op.mutates() {
				t.Errorf("%v acked after %s failed", op, tr.failed)
			}
			return
		case err != nil:
			if !hfs.Crashed() {
				t.Errorf("%v failed without a crash: %v", op, err)
			}
			failed, tr.failed = true, op.String()
			tr.inflight = crashModel{maps.Clone(tr.acked.kv), tr.acked.seq}
			tr.inflight.apply(op)
		default:
			tr.acked.apply(op)
		}
		if op.mutates() {
			tr.history = append(tr.history, op)
		}
		switch {
		case err != nil:
		case op.kind == opBulkLoad || op.kind == opRestore || op.kind == opSave:
			tr.floor = len(tr.history)
		case op.kind == opCheckpoint || op.kind == opFlush:
			tr.floor = before
		}
	}
	for _, op := range ops {
		at = append(at, hfs.Steps())
		if op.kind == opShape {
			if clean {
				op.checkShape(t, s)
			}
			continue
		}
		run(op)
	}
	if !failed {
		tr.inflight = tr.acked
	}
	return tr, append(at, hfs.Steps())
}

// check reopens dir on the real filesystem and holds what it recovered to
// the traces. A serial row must recover the state, contents and CommitSeq,
// after its acked prefix or after that prefix and the op in flight: acked
// writes and deletes hold, nothing that was never attempted appears, and
// the op in flight applies whole or not at all, which makes a rename or a
// manifest the commit point of every checkpoint, flush, compaction, replace
// and save. In a concurrent row each writer's keys must hold the contents
// after its acked prefix or after its op in flight too, no other key may
// appear, and CommitSeq must lie between the writers' acked and attempted
// mutations.
func (r crashRow) check(t *testing.T, cell, dir string, traces []crashTrace) {
	t.Helper()
	re, err := r.open(dir, faultfs.OS)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", cell, err)
	}
	got := crashModel{kv: map[uint64]uint64{}, seq: re.CommitSeq()}
	re.Range(0, ^uint64(0), func(k, v uint64) bool {
		got.kv[k] = v
		return true
	})
	re.Close() //nolint:errcheck
	if len(r.writers) == 0 {
		if tr := traces[0]; !got.equal(tr.acked) && !got.equal(tr.inflight) {
			t.Fatalf("%s: recovered %v; acked prefix %v (%s); with %s in flight %v (%s)",
				cell, got, tr.acked, got.diff(tr.acked), tr.failed, tr.inflight, got.diff(tr.inflight))
		}
		return
	}
	var lo, hi uint64
	for i, tr := range traces {
		mine := crashModel{kv: map[uint64]uint64{}}
		for k, v := range got.kv {
			if i == len(r.writers) || slices.ContainsFunc(r.writers[i], func(op crashOp) bool { return op.key == k }) {
				mine.kv[k] = v
				delete(got.kv, k)
			}
		}
		if !maps.Equal(mine.kv, tr.acked.kv) && !maps.Equal(mine.kv, tr.inflight.kv) {
			t.Fatalf("%s: script %d recovered %d keys; acked prefix %d (%s); with %s in flight %d (%s)",
				cell, i, len(mine.kv), len(tr.acked.kv), mine.diff(tr.acked), tr.failed, len(tr.inflight.kv), mine.diff(tr.inflight))
		}
		lo, hi = lo+tr.acked.seq, hi+tr.inflight.seq
	}
	if got.seq < lo || got.seq > hi {
		t.Fatalf("%s: recovered CommitSeq %d outside [acked %d, attempted %d]", cell, got.seq, lo, hi)
	}
}

// checkPrefix reopens dir on the real filesystem and holds what it
// recovered to a serial script's history: it must be the state after the
// history's first n mutations, for one n from the floor to the end, with
// CommitSeq n's. The floor keeps every bulk load, checkpoint and flush; a
// prefix allows losing the tail a kill took from the WAL's buffer, but not a
// hole in the middle, nor a write that was never attempted.
func (r crashRow) checkPrefix(t *testing.T, cell, dir string, tr crashTrace) {
	t.Helper()
	re, err := r.open(dir, faultfs.OS)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", cell, err)
	}
	got := crashModel{kv: map[uint64]uint64{}, seq: re.CommitSeq()}
	re.Range(0, ^uint64(0), func(k, v uint64) bool {
		got.kv[k] = v
		return true
	})
	re.Close() //nolint:errcheck
	// CommitSeq counts the commits, so it names the one prefix to compare.
	m := crashModel{kv: map[uint64]uint64{}}
	n := 0
	for ; n < len(tr.history) && (n < tr.floor || m.seq < got.seq); n++ {
		m.apply(tr.history[n])
	}
	if !got.equal(m) {
		t.Fatalf("%s: recovered %v; the history's prefix of %d mutations (floor %d of %d, %s failed) is %v (%s)",
			cell, got, n, tr.floor, len(tr.history), tr.failed, m, got.diff(m))
	}
}

func (m *crashModel) apply(op crashOp) {
	switch op.kind {
	case opInsert:
		m.kv[op.key] = op.val
		m.seq++
	case opDelete:
		delete(m.kv, op.key)
		m.seq++
	case opBulkLoad, opRestore, opSave:
		m.kv = make(map[uint64]uint64, len(op.keys))
		for i, k := range op.keys {
			m.kv[k] = k
			if op.vals != nil {
				m.kv[k] = op.vals[i]
			}
		}
		switch op.kind {
		case opBulkLoad:
			m.seq++ // a replace is one commit
		case opRestore:
			m.seq = op.val
		}
	}
}

func (m crashModel) equal(o crashModel) bool { return m.seq == o.seq && maps.Equal(m.kv, o.kv) }

func (m crashModel) String() string { return fmt.Sprintf("%d keys @%d", len(m.kv), m.seq) }

// diff names the lowest key on which m's contents and want's disagree.
func (m crashModel) diff(want crashModel) string {
	show := func(kv map[uint64]uint64, k uint64) string {
		if v, ok := kv[k]; ok {
			return fmt.Sprint(v)
		}
		return "absent"
	}
	var keys []uint64
	for k := range m.kv {
		keys = append(keys, k)
	}
	for k := range want.kv {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if g, w := show(m.kv, k), show(want.kv, k); g != w {
			return fmt.Sprintf("key %d is %s, want %s", k, g, w)
		}
	}
	return "same keys"
}

type opKind uint8

const (
	opInsert opKind = iota
	opDelete
	opBulkLoad
	opRestore
	opSave
	opCheckpoint
	opFlush
	opCompact
	opShape // asserts the tier's shape in the clean run
)

type crashOp struct {
	kind opKind
	// key and val are an insert's or a delete's; a restore's val is the
	// snapshot's CommitSeq.
	key, val uint64
	// keys are a bulk load's or a save's, each its own value, or a
	// restore's contents, with vals.
	keys, vals []uint64
	snap       []byte // a restore's SnapshotAt stream
	ix         *Index // opSave: the index of keys, built once
	shape      [3]int // opShape: compactions, runs, L0 segments
	// during are a flush's ops to run between its WAL rotation and its
	// manifest commit (runScript).
	during []crashOp
}

// The script builders each return ops, so a script is a slices.Concat.
var (
	checkpoint = []crashOp{{kind: opCheckpoint}}
	flush      = []crashOp{{kind: opFlush}}
	compact    = []crashOp{{kind: opCompact}}
)

func ins(key, val uint64) []crashOp { return []crashOp{{kind: opInsert, key: key, val: val}} }
func del(key uint64) []crashOp      { return []crashOp{{kind: opDelete, key: key}} }
func bulk(keys []uint64) []crashOp  { return []crashOp{{kind: opBulkLoad, keys: keys}} }

// flushDuring is a flush that runs ops while it writes its segment.
func flushDuring(ops []crashOp) []crashOp { return []crashOp{{kind: opFlush, during: ops}} }

// inserts is n inserts of keys from, from+1, … with values val, val+1, ….
func inserts(from, n, val uint64) []crashOp {
	var ops []crashOp
	for i := range n {
		ops = append(ops, ins(from+i, val+i)...)
	}
	return ops
}

// shape asserts the tier's compaction count, run count and L0 segment count
// at its place in the clean run.
func shape(compactions, runs, l0 int) []crashOp {
	return []crashOp{{kind: opShape, shape: [3]int{compactions, runs, l0}}}
}

func (op crashOp) mutates() bool { return op.kind <= opSave }

func (op crashOp) apply(s crashStore) error {
	switch op.kind {
	case opInsert:
		return s.Insert(op.key, op.val)
	case opDelete:
		return s.Delete(op.key)
	case opBulkLoad:
		return s.BulkLoad(op.keys, nil)
	case opRestore:
		return s.(*DurableIndex).RestoreSnapshot(bytes.NewReader(op.snap), op.val)
	case opSave:
		f := s.(*savedFile)
		f.Index = op.ix
		return f.Checkpoint()
	case opCheckpoint:
		return s.Checkpoint()
	case opFlush:
		return s.(*DurableIndex).Flush()
	case opCompact:
		return s.(*DurableIndex).Compact()
	}
	panic(fmt.Sprintf("op kind %d", op.kind))
}

func (op crashOp) checkShape(t *testing.T, s crashStore) {
	th := s.(*DurableIndex).Health().Tier
	if got := [3]int{int(th.Compactions), th.Runs, th.L0Segments}; got != op.shape {
		t.Errorf("tier has (compactions, runs, L0) %v, want %v", got, op.shape)
	}
}

func (op crashOp) String() string {
	switch op.kind {
	case opInsert:
		return fmt.Sprintf("Insert(%d, %d)", op.key, op.val)
	case opDelete:
		return fmt.Sprintf("Delete(%d)", op.key)
	case opBulkLoad:
		return fmt.Sprintf("BulkLoad(%d keys)", len(op.keys))
	case opRestore:
		return fmt.Sprintf("RestoreSnapshot(%d keys @%d)", len(op.keys), op.val)
	case opSave:
		return fmt.Sprintf("Save(%d keys)", len(op.keys))
	}
	return [...]string{opCheckpoint: "Checkpoint", opFlush: "Flush", opCompact: "Compact", opShape: "shape"}[op.kind]
}

// savedFile is Index.Save as a crashStore: Checkpoint saves the index over
// path, and opening loads the file. It keeps no clock, and its Insert,
// Delete and BulkLoad are not durable until the next save, so a script
// drives it with save ops only.
type savedFile struct {
	*Index
	fsys faultfs.FS
	path string
}

func openSaved(dir string, fsys faultfs.FS) (crashStore, error) {
	f := &savedFile{fsys: fsys, path: filepath.Join(dir, "ix.cham")}
	var err error
	f.Index, err = Load(f.path, DirOptions{}.Options)
	if errors.Is(err, fs.ErrNotExist) {
		f.Index, err = New(DirOptions{}.Options), nil
	}
	return f, err
}

func (f *savedFile) Checkpoint() error { return f.save(f.fsys, f.path) }

func (*savedFile) CommitSeq() uint64 { return 0 }

// save saves an index of keys over a savedFile. The index is built here,
// once for every cell.
func save(keys []uint64) []crashOp {
	ix := New(DirOptions{}.Options)
	if err := ix.BulkLoad(keys, nil); err != nil {
		panic(err)
	}
	return []crashOp{{kind: opSave, keys: keys, ix: ix}}
}

// segHookFS is the CrashFS a run opens its store on. A hook armed by
// onSegment runs once, on the goroutine creating the next segment file,
// before the file is opened.
type segHookFS struct {
	*faultfs.CrashFS
	hook atomic.Pointer[func()]
}

func (h *segHookFS) onSegment(fn func()) { h.hook.Store(&fn) }

func (h *segHookFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	if _, isSeg := segment.ParseFileName(filepath.Base(name)); isSeg && flag&os.O_CREATE != 0 {
		if fn := h.hook.Swap(nil); fn != nil {
			(*fn)()
		}
	}
	return h.CrashFS.OpenFile(name, flag, perm)
}

func openDurable(opts DirOptions) func(string, faultfs.FS) (crashStore, error) {
	return func(dir string, fsys faultfs.FS) (crashStore, error) { return openDirFS(dir, opts, fsys) }
}

// restoreOf fills a directory opened with opts (48 inserts with a
// checkpoint after the 40th, then deletes of four checkpointed keys) and
// returns the restore of its SnapshotAt stream.
func restoreOf(t *testing.T, opts DirOptions) []crashOp {
	src, err := OpenDir(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var ops []crashOp
	for i := uint64(0); i < 48; i++ {
		ops = append(ops, ins(i*7+3, i)...)
		if i == 39 {
			ops = append(ops, checkpoint...)
		}
	}
	for i := uint64(0); i < 4; i++ {
		ops = append(ops, del(i*7+3)...)
	}
	for _, op := range ops {
		if err := op.apply(src); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	op := crashOp{kind: opRestore}
	if op.val, _, err = src.SnapshotAt(&snap); err != nil {
		t.Fatal(err)
	}
	op.snap = snap.Bytes()
	src.Range(0, ^uint64(0), func(k, v uint64) bool {
		op.keys, op.vals = append(op.keys, k), append(op.vals, v)
		return true
	})
	return []crashOp{op}
}

// crashRows is the table.
func crashRows(t *testing.T) []crashRow {
	// legacy_mixed: a bulk load, inserts, deletes of bulk-loaded and
	// inserted keys, and a checkpoint mid-stream.
	base := []uint64{100, 200, 300, 400, 500, 600, 700, 800}
	mixed := slices.Concat(bulk(base), inserts(1000, 6, 0), del(200), checkpoint,
		inserts(2000, 6, 50), del(1002), del(300))

	// tiered_mixed adds flushes and both kinds of merge: the bulk load
	// outweighs the compaction ratio times two flushes, so the second
	// flush's merge stops above it; then a full merge.
	tierBase := slices.Clone(base)
	for i := uint64(0); i < 256; i++ {
		tierBase = append(tierBase, 10_000+10*i)
	}
	tierMixed := slices.Concat(bulk(tierBase), inserts(1000, 6, 0), del(200), flush,
		inserts(2000, 6, 50), del(1002), del(300), flush, shape(1, 2, 0),
		inserts(3000, 3, 90), flush, compact, shape(2, 1, 0), inserts(4000, 3, 70))
	tierMixedOpts := tieredOpts()
	tierMixedOpts.CompactL0 = 2 // the second flush merges L0 into a delta

	// sharded_mixed: four shards, and consecutive ops alternate shards, so
	// every crash point falls between two shards' commits.
	shardKey := func(i uint64) uint64 { return 1<<(16*(i%4)) + 100 + i }
	var sharded []crashOp
	for i := uint64(0); i < 8; i++ {
		sharded = append(sharded, ins(shardKey(i), i+1)...)
	}
	sharded = slices.Concat(sharded, del(shardKey(1)), checkpoint)
	for i := uint64(8); i < 16; i++ {
		sharded = append(sharded, ins(shardKey(i), i+50)...)
	}
	sharded = slices.Concat(sharded, del(shardKey(2)), del(shardKey(8)))
	sopts := shardOpts(4)
	sopts.boundaries = []uint64{1 << 16, 1 << 32, 1 << 48}

	// *_writers: four writers inserting their own keys, and a fifth flipping
	// one key between inserted and deleted, with mid after its fourth op; a
	// checkpoint once they return.
	writers := func(mid []crashOp) [][]crashOp {
		ws := make([][]crashOp, 5)
		for w := range uint64(4) {
			for k := (w + 1) * 1_000_000; k < (w+1)*1_000_000+12; k++ {
				ws[w] = append(ws[w], ins(k, k+7)...)
			}
		}
		for i := range uint64(8) {
			if i == 4 {
				ws[4] = append(ws[4], mid...)
			}
			if i%2 == 0 {
				ws[4] = append(ws[4], ins(77, 5000+i)...)
			} else {
				ws[4] = append(ws[4], del(77)...)
			}
		}
		return ws
	}

	// *_bulkload, *_restore: a replace of non-empty contents, left by a bulk
	// load, inserts, a checkpoint (a flush on a tiered directory), then
	// inserts and a delete of a bulk-loaded key that only the WAL holds.
	full := make([]uint64, 64)
	for i := range full {
		full[i] = uint64(i+1) * 10
	}
	replacing := slices.Concat(bulk(full), inserts(1000, 4, 0), checkpoint, inserts(2000, 4, 0), del(100))
	reload := make([]uint64, 32)
	for i := range reload {
		reload[i] = uint64(i)*11 + 5
	}
	saved := make([]uint64, 5_000)
	for i := range saved {
		saved[i] = uint64(i)*7 + 100
	}
	// *_none: SyncNone, killed. More inserts than the WAL buffer holds make
	// some of them reach the file mid-script; a checkpoint drops the old
	// log's buffer, which its snapshot holds. The tiered flush runs a
	// buffer's worth of inserts between its WAL rotation and its manifest
	// commit, so the new log's frames reach the file while recovery still
	// replays the old log under them: a rotation that lost the old log's
	// buffer leaves a hole there.
	const overBuffer = 4_000 // inserts: 84,000 B of frames, over the WAL's 64 KiB buffer
	legacyNone := DirOptions{}
	legacyNone.Sync = SyncNone
	tieredNone := tieredOpts()
	tieredNone.Sync = SyncNone
	tieredNone.ReconstructThreshold = -1

	legacy := DirOptions{}
	replaceOpts := tieredOpts()
	replaceOpts.ReconstructThreshold = -1 // reconstructing the tiny memtable only costs time

	return []crashRow{
		{name: "legacy_mixed", open: openDurable(legacy), ops: mixed, stride: 1, short: 7},
		{name: "legacy_bulkload", open: openDurable(legacy), ops: slices.Concat(replacing, bulk(reload)),
			lastOnly: true, stride: 1, allTears: true},
		{name: "legacy_restore", open: openDurable(legacy), ops: slices.Concat(replacing, restoreOf(t, legacy)),
			lastOnly: true, stride: 1, allTears: true},
		{name: "legacy_writers", open: openDurable(legacy), writers: writers(nil), ops: checkpoint,
			stride: 1, short: 4},
		{name: "file_save", open: openSaved, ops: slices.Concat(save([]uint64{1, 2, 3}), save(saved)),
			lastOnly: true, stride: 1, allTears: true},
		{name: "sharded_mixed", ops: sharded, stride: 3, short: 17,
			open: func(dir string, fsys faultfs.FS) (crashStore, error) { return openShardedDirFS(dir, sopts, fsys) }},
		{name: "tiered_mixed", open: openDurable(tierMixedOpts), ops: tierMixed, stride: 1, short: 7},
		{name: "tiered_flush", open: openDurable(tieredOpts()),
			ops:      slices.Concat(inserts(10, 8, 0), flush, inserts(100, 8, 5), flush),
			lastOnly: true, stride: 1},
		{name: "tiered_bulkload", open: openDurable(replaceOpts), ops: slices.Concat(replacing, bulk(reload)),
			lastOnly: true, stride: 1, allTears: true},
		{name: "tiered_restore", open: openDurable(replaceOpts), ops: slices.Concat(replacing, restoreOf(t, replaceOpts)),
			lastOnly: true, stride: 1, allTears: true},
		{name: "tiered_writers", open: openDurable(tieredOpts()), writers: writers(flush), ops: checkpoint,
			stride: 1, short: 4},
		{name: "legacy_none", open: openDurable(legacyNone), stride: 1, short: 3, kill: true,
			ops: slices.Concat(bulk(base), inserts(1000, 6, 0), del(200), checkpoint, inserts(2000, overBuffer, 50),
				del(1002), del(300), checkpoint, inserts(9000, 5, 0), del(2001))},
		{name: "tiered_none", open: openDurable(tieredNone), stride: 1, short: 3, kill: true,
			ops: slices.Concat(bulk(tierBase), inserts(1000, 6, 0), del(200), flushDuring(inserts(2000, overBuffer, 50)),
				del(1002), del(300), flush, inserts(9000, 3, 90), compact, inserts(9100, 3, 70), del(2001))},
	}
}
