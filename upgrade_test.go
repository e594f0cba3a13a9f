package chameleon

import (
	"errors"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chameleon/internal/faultfs"
	"chameleon/internal/segment"
)

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
		copyFile(t, filepath.Join(src, e.Name()), filepath.Join(dir, e.Name()))
	}
	return dir
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// dirState maps every entry of dir to its bytes, a subdirectory to "/".
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := make(map[string]string, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			state[e.Name()] = "/"
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		state[e.Name()] = string(raw)
	}
	return state
}

// TestRetiredFormatsRefused: a directory holding a file in a format this
// build no longer reads — written by an older build, kept under testdata
// with the mk*.go note that made it — fails to open with ErrNeedsUpgrade;
// one in another layout than the open asks for fails with
// ErrLayoutMismatch. The error names the file, and the directory is byte
// for byte what it was: nothing truncated, renamed, removed or created.
func TestRetiredFormatsRefused(t *testing.T) {
	const (
		snapV2   = "internal/core/testdata/snapshot-v2.ckpt"
		walV1    = "internal/wal/testdata/wal-v1.log"
		segData  = "internal/segment/testdata/"
		sidecar  = "seq-0000000000000002.meta"
		sidecar4 = "seq-0000000000000004.meta"
	)
	openDir := func(opts DirOptions) func(string) error {
		return func(dir string) error {
			d, err := OpenDir(dir, opts)
			if err == nil {
				d.Close() //nolint:errcheck
			}
			return err
		}
	}
	openSharded := func(dir string) error {
		s, err := OpenShardedDir(dir, ShardDirOptions{})
		if err == nil {
			s.Close() //nolint:errcheck
		}
		return err
	}
	fixture := func(name string) func(*testing.T) string {
		return func(t *testing.T) string { return copyFixture(t, name) }
	}
	// files takes source, name pairs and copies each source to name in a
	// fresh directory; an empty source makes an empty file.
	files := func(pairs ...string) func(*testing.T) string {
		return func(t *testing.T) string {
			dir := t.TempDir()
			for i := 0; i < len(pairs); i += 2 {
				if pairs[i] == "" {
					if err := os.WriteFile(filepath.Join(dir, pairs[i+1]), nil, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				copyFile(t, pairs[i], filepath.Join(dir, pairs[i+1]))
			}
			return dir
		}
	}
	// withManifest adds a manifest naming segment 1. Open refuses a retired
	// file before it cross-checks the record, so the record is a sketch.
	withManifest := func(setup func(*testing.T) string) func(*testing.T) string {
		return func(t *testing.T) string {
			dir := setup(t)
			err := segment.WriteManifest(faultfs.OS, dir, &segment.Manifest{
				Gen: 1, FlushedSeq: 500, NextID: 2, Segments: []segment.Meta{{ID: 1, Level: 1, Count: 300, Seq: 500}},
			})
			if err != nil {
				t.Fatal(err)
			}
			return dir
		}
	}
	// legacy writes three inserts to a fresh legacy directory, then
	// checkpoints if asked: wal-0-0 alone, or snapshot-1-3 beside wal-1-3.
	legacy := func(checkpoint bool) func(*testing.T) string {
		return func(t *testing.T) string {
			dir := t.TempDir()
			d, err := OpenDir(dir, DirOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(1); k <= 3; k++ {
				if err := d.Insert(k, k); err != nil {
					t.Fatal(err)
				}
			}
			if checkpoint {
				if err := d.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			return dir
		}
	}
	sharded := func(t *testing.T) string {
		dir := t.TempDir()
		s, err := OpenShardedDir(dir, shardOpts(2))
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 10; k++ {
			if err := s.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	for _, c := range []struct {
		name  string
		setup func(*testing.T) string
		open  func(string) error
		want  error
		file  string // the name the error must carry
	}{
		{"seq sidecar", fixture("seqmeta-legacy"), openDir(DirOptions{}), ErrNeedsUpgrade, sidecar},
		{"seq sidecar, tiered", fixture("seqmeta-tiered"), openDir(tieredOpts()), ErrNeedsUpgrade, sidecar4},
		{"seq sidecar, sharded", fixture("seqmeta-legacy"), openSharded, ErrNeedsUpgrade, sidecar},
		{"CHAMSNP2 snapshot", files(snapV2, snapName(1, 0)), openDir(DirOptions{}), ErrNeedsUpgrade, snapName(1, 0)},
		{"v1 live log", files(walV1, walName(1, 0)), openDir(DirOptions{}), ErrNeedsUpgrade, walName(1, 0)},
		{"v1 rotated log", files(walV1, walName(1, 0), "", walName(2, 66)), openDir(DirOptions{}), ErrNeedsUpgrade, walName(1, 0)},
		{"CHAMSEG1 segment", withManifest(files(segData+"seg-v1.seg", segment.FileName(1))), openDir(tieredOpts()),
			ErrNeedsUpgrade, segment.FileName(1)},
		{"CHAMSEG2 segment with a model",
			files(segData+"seg-v2-model.seg", segment.FileName(1), segData+"manifest-v2-model.mft", segment.ManifestFileName(1)),
			openDir(tieredOpts()), ErrNeedsUpgrade, segment.FileName(1)},
		{"manifest beside a snapshot", withManifest(legacy(true)), openDir(tieredOpts()), ErrNeedsUpgrade, snapName(1, 3)},
		{"legacy snapshot, opened tiered", legacy(true), openDir(tieredOpts()), ErrLayoutMismatch, snapName(1, 3)},
		{"unsharded, opened sharded", legacy(false), openSharded, ErrLayoutMismatch, walName(0, 0)},
		{"sharded, opened with OpenDir", sharded, openDir(DirOptions{}), ErrLayoutMismatch, shardManifestName},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := c.setup(t)
			before := dirState(t, dir)
			err := c.open(dir)
			if !errors.Is(err, c.want) {
				t.Fatalf("open err = %v, want %v", err, c.want)
			}
			if !strings.Contains(err.Error(), c.file) {
				t.Fatalf("error %q does not name %s", err, c.file)
			}
			if after := dirState(t, dir); !maps.Equal(after, before) {
				t.Fatalf("refused open changed the directory: %d entries, was %d", len(after), len(before))
			}
		})
	}
}
