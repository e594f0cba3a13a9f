package chameleon

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"chameleon/internal/faultfs"
)

// seqMetaFixture is a directory testdata/mkseqmeta.go wrote in the layout
// from before names carried their base, with what opening it must recover:
// the contents and CommitSeq the commit that wrote it recovers too.
type seqMetaFixture struct {
	name string
	opts DirOptions
	want map[uint64]uint64
	seq  uint64
}

// seqMetaFixtures replays mkseqmeta.go's two workloads into oracles.
func seqMetaFixtures() []seqMetaFixture {
	legacy := map[uint64]uint64{}
	for i := uint64(0); i < 200; i++ {
		legacy[i*10+1] = i*10 + 1
	}
	for i := uint64(0); i < 30; i++ {
		legacy[10_000+i] = i
	}
	for i := uint64(0); i < 10; i++ {
		delete(legacy, i*10+1)
	}
	for i := uint64(0); i < 7; i++ {
		legacy[20_000+i] = 2 * i
	}
	for i := uint64(0); i < 4; i++ {
		delete(legacy, 10_000+i)
	}
	tiered := map[uint64]uint64{}
	for i := uint64(0); i < 300; i++ {
		tiered[i*7+3] = i*7 + 3
	}
	for i := uint64(0); i < 40; i++ {
		tiered[50_000+i] = i
	}
	for i := uint64(0); i < 8; i++ {
		delete(tiered, i*7+3)
	}
	for i := uint64(0); i < 12; i++ {
		tiered[60_000+i] = 3 * i
	}
	for i := uint64(0); i < 5; i++ {
		delete(tiered, 50_000+i)
	}
	return []seqMetaFixture{
		{"seqmeta-legacy", durableOpts(), legacy, 51},
		{"seqmeta-tiered", tieredOpts(), tiered, 65},
	}
}

// copyFixture copies testdata/<name> into a fresh directory.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join("testdata", name)
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// stripBases renames every snapshot and WAL in dir to the name it had in a
// directory from before replication: its rotation alone, and no sidecar.
func stripBases(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		for _, p := range [][2]string{{snapPrefix, snapSuffix}, {walPrefix, walSuffix}} {
			if id, ok := parseName(e.Name(), p[0], p[1]); ok {
				old := fmt.Sprintf("%s%016d%s", p[0], id.rot, p[1])
				if err := os.Rename(filepath.Join(dir, e.Name()), filepath.Join(dir, old)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// checkNamesCarryBase fails if dir holds a seq sidecar, or a snapshot or WAL
// named without its base, and returns the directory's names.
func checkNamesCarryBase(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		names = append(names, n)
		if strings.HasPrefix(n, "seq") && strings.HasSuffix(n, ".meta") {
			t.Fatalf("%s: seq sidecar %s left", dir, n)
		}
		_, snap := parseName(n, snapPrefix, snapSuffix)
		_, log := parseName(n, walPrefix, walSuffix)
		if isStateFile(n) && !snap && !log {
			t.Fatalf("%s: %s carries no base", dir, n)
		}
	}
	return names
}

// checkFixture opens dir and holds it to f.
func checkFixture(t *testing.T, dir string, f seqMetaFixture, phase string) {
	t.Helper()
	d, err := OpenDir(dir, f.opts)
	if err != nil {
		t.Fatalf("%s: %v", phase, err)
	}
	defer d.Close()
	if got := d.CommitSeq(); got != f.seq {
		t.Fatalf("%s: CommitSeq = %d, want %d", phase, got, f.seq)
	}
	compareWithOracle(t, d, f.want, phase)
}

// TestNameMigrationFixtures: a directory in the layout from before names
// carried their base, sidecar and all, opens with the contents and CommitSeq
// the commit that wrote it recovers; its files are renamed and the sidecar
// is gone, a reopen changes nothing, and the clock keeps counting from there
// through a write, a checkpoint or flush, and a reopen.
func TestNameMigrationFixtures(t *testing.T) {
	for _, f := range seqMetaFixtures() {
		t.Run(f.name, func(t *testing.T) {
			if m, _ := filepath.Glob(filepath.Join("testdata", f.name, "seq-*.meta")); len(m) == 0 {
				t.Fatal("fixture has no seq sidecar")
			}
			dir := copyFixture(t, f.name)
			checkFixture(t, dir, f, "migrated")
			names := checkNamesCarryBase(t, dir)
			checkFixture(t, dir, f, "reopened")
			if again := checkNamesCarryBase(t, dir); !slices.Equal(again, names) {
				t.Fatalf("reopen changed the directory: %v, was %v", again, names)
			}

			d, err := OpenDir(dir, f.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Insert(1<<40, 1); err != nil {
				t.Fatal(err)
			}
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			f.want[1<<40], f.seq = 1, f.seq+1
			checkFixture(t, dir, f, "after a write and a checkpoint")
			checkNamesCarryBase(t, dir)
		})
	}
}

// TestNameMigrationCrashSweep crashes the open that migrates each fixture at
// every filesystem step × three tear modes. Whatever the crash left — old
// names and the sidecar, some files renamed, the sidecar half removed — the
// next open recovers the same contents and clock and finishes the migration.
func TestNameMigrationCrashSweep(t *testing.T) {
	for _, f := range seqMetaFixtures() {
		t.Run(f.name, func(t *testing.T) {
			for k := int64(0); ; k++ {
				crashed := false
				for tear := 0; tear < 3; tear++ {
					dir := copyFixture(t, f.name)
					cfs := faultfs.NewCrashFS(faultfs.OS, k)
					cfs.Tear = tear
					if d, err := openDirFS(dir, f.opts, cfs); err == nil {
						d.Close() //nolint:errcheck // may crash too
					}
					crashed = crashed || cfs.Crashed()
					checkFixture(t, dir, f, fmt.Sprintf("crash@%d tear %d", k, tear))
					checkNamesCarryBase(t, dir)
				}
				if !crashed {
					if k < 8 {
						t.Fatalf("the open took only %d steps — sweep degenerate", k)
					}
					return
				}
			}
		})
	}
}

// TestNamesCarryBase: every operation that writes or rotates a snapshot or
// WAL, on a fresh legacy and a fresh tiered directory, leaves no seq sidecar
// and names every snapshot and WAL with its base.
func TestNamesCarryBase(t *testing.T) {
	src, err := OpenDir(t.TempDir(), tieredOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for k := uint64(1); k <= 20; k++ {
		if err := src.Insert(k<<20, k); err != nil {
			t.Fatal(err)
		}
	}
	var bundle bytes.Buffer
	asOf, _, err := src.SnapshotAt(&bundle)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]DirOptions{"legacy": durableOpts(), "tiered": tieredOpts()} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDir(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { d.Close() }()
			steps := []func() error{
				func() error { return d.BulkLoad([]uint64{1, 2, 3}, nil) },
				func() error { return d.Insert(10, 1) },
				d.Checkpoint,
				func() error { return d.Insert(11, 1) },
				d.Flush,
				d.Compact,
				func() error { return d.RestoreSnapshot(bytes.NewReader(bundle.Bytes()), asOf) },
				func() error { return d.Insert(12, 1) },
				d.Close,
			}
			for i, step := range steps {
				if err := step(); err != nil && !errors.Is(err, ErrNotTiered) {
					t.Fatalf("step %d: %v", i, err)
				}
				checkNamesCarryBase(t, dir)
			}
			if d, err = OpenDir(dir, opts); err != nil {
				t.Fatal(err)
			}
			if got := d.CommitSeq(); got != asOf+1 {
				t.Fatalf("CommitSeq after reopen = %d, want %d", got, asOf+1)
			}
			checkNamesCarryBase(t, dir)
		})
	}
}
