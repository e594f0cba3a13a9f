package chameleon

import (
	"os"
	"path/filepath"
	"testing"

	"chameleon/internal/wal"
)

// v1WALFixture is a live WAL of v1 frames (written before frames were sized
// to the record) ending in a torn frame; internal/wal/testdata/mkv1.go made
// it and internal/wal's tests pin its records.
const v1WALFixture = "internal/wal/testdata/wal-v1.log"

// v1WALOracle reads the fixture and applies its intact records to oracle,
// returning the fixture bytes, the record count and the intact length.
func v1WALOracle(t *testing.T, oracle map[uint64]uint64) (raw []byte, n, intact int) {
	t.Helper()
	raw, err := os.ReadFile(v1WALFixture)
	if err != nil {
		t.Fatal(err)
	}
	recs, valid := wal.Scan(raw)
	if len(recs) == 0 || valid == len(raw) {
		t.Fatalf("fixture scanned to %d records, %d of %d bytes: want records and a tear", len(recs), valid, len(raw))
	}
	for _, r := range recs {
		applyToOracle(oracle, r)
	}
	return raw, len(recs), valid
}

func applyToOracle(oracle map[uint64]uint64, r wal.Record) {
	if r.Op == wal.OpInsert {
		oracle[r.Key] = r.Val
	} else {
		delete(oracle, r.Key)
	}
}

// writeMixed inserts 20 fresh keys (distinct per round) and deletes dels
// through d, mirroring them into oracle, and returns their v2 frame bytes.
func writeMixed(t *testing.T, d *DurableIndex, oracle map[uint64]uint64, round uint64, dels []uint64) int64 {
	t.Helper()
	var n int64
	for i := uint64(0); i < 20; i++ {
		r := wal.Record{Op: wal.OpInsert, Key: (round+1)<<40 | i*0x111, Val: i}
		if err := d.Insert(r.Key, r.Val); err != nil {
			t.Fatal(err)
		}
		applyToOracle(oracle, r)
		n += int64(r.FrameSize())
	}
	for _, k := range dels {
		r := wal.Record{Op: wal.OpDelete, Key: k}
		if err := d.Delete(k); err != nil {
			t.Fatalf("Delete(%d): %v", k, err)
		}
		applyToOracle(oracle, r)
		n += int64(r.FrameSize())
	}
	return n
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestDurableV1WAL: a legacy directory whose live WAL holds v1 frames opens
// with the tear truncated, serves the fixture's records, appends v2 frames
// after the v1 prefix, and recovers both across a reopen and a checkpoint.
func TestDurableV1WAL(t *testing.T) {
	dir := t.TempDir()
	oracle := map[uint64]uint64{}
	raw, n, intact := v1WALOracle(t, oracle)
	live := filepath.Join(dir, walName(1, 0))
	if err := os.WriteFile(live, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	compareWithOracle(t, d, oracle, "v1 log opened")
	if got := d.CommitSeq(); got != uint64(n) {
		t.Fatalf("CommitSeq = %d, want the fixture's %d records", got, n)
	}
	if size := fileSize(t, live); size != int64(intact) {
		t.Fatalf("live WAL is %d bytes, want the intact prefix %d", size, intact)
	}

	added := writeMixed(t, d, oracle, 0, []uint64{0xA000_0000, ^uint64(0)})
	if size := fileSize(t, live); size != int64(intact)+added {
		t.Fatalf("live WAL is %d bytes, want %d of v1 frames + %d of v2", size, intact, added)
	}
	compareWithOracle(t, d, oracle, "v2 frames after the v1 prefix")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, err = OpenDir(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	compareWithOracle(t, d, oracle, "reopened mixed log")
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writeMixed(t, d, oracle, 1, nil)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDir(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	compareWithOracle(t, d, oracle, "reopened after checkpoint")
}

// TestTieredV1WAL: a tiered directory whose live WAL holds v1 frames above
// the manifest's watermark replays them into the memtable, keeps writing v2
// frames after them, and recovers across a reopen and a flush.
func TestTieredV1WAL(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64]uint64{}
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = 1<<50 + uint64(i)*7
		oracle[keys[i]] = keys[i]
	}
	if err := d.BulkLoad(keys, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	live := d.log.Path()
	if size := fileSize(t, live); size != 0 {
		t.Fatalf("live WAL after bulk load is %d bytes, want empty", size)
	}
	raw, _, intact := v1WALOracle(t, oracle)
	if err := os.WriteFile(live, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	d, err = OpenDir(dir, tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	compareWithOracle(t, d, oracle, "v1 log over segments")
	added := writeMixed(t, d, oracle, 0, []uint64{keys[0], 0xA000_0000})
	if size := fileSize(t, live); size != int64(intact)+added {
		t.Fatalf("live WAL is %d bytes, want %d of v1 frames + %d of v2", size, intact, added)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, err = OpenDir(dir, tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	compareWithOracle(t, d, oracle, "reopened mixed log")
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	writeMixed(t, d, oracle, 1, []uint64{keys[1]})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDir(dir, tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	compareWithOracle(t, d, oracle, "reopened after flush")
}
