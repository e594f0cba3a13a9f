package segment

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"chameleon/internal/faultfs"
)

// The manifest is the tier's commit point: the authoritative list of live
// segment files plus the flushed commit-sequence watermark. Every flush and
// compaction writes a NEW manifest generation (manifest-<gen>.mft) — never
// overwriting the previous one — after its segment files are durable, so at
// every crash point recovery finds either the old generation (the operation
// never happened; the WAL still covers the delta) or the new one (it fully
// happened). Superseded generations and unreferenced segment files are
// garbage, collected best-effort after the new generation's directory entry
// is sealed.
//
// Envelope (CHAMMAN1): [8] magic, [4] body length, [4] CRC32C(body),
// [body] JSON. The CRC turns a torn manifest into a skipped one.

const (
	manMagic       = "CHAMMAN1"
	manPrefix      = "manifest-"
	manSuffix      = ".mft"
	maxManifestLen = 1 << 28
)

// ErrManifestCorrupt marks a manifest that fails its envelope or semantic
// checks. Load treats a corrupt newest generation as torn and falls back.
var ErrManifestCorrupt = errors.New("segment: corrupt manifest")

// Manifest is the durable tier state.
type Manifest struct {
	// Gen is the manifest generation, bumped by every flush/compaction.
	Gen uint64 `json:"gen"`
	// FlushedSeq is the commit-sequence watermark: every record with
	// sequence ≤ FlushedSeq is fully reflected in Segments, so WAL bytes at
	// or below it are garbage and WAL replay skips them. This — not
	// "checkpoint succeeded" — is what WAL truncation keys off.
	FlushedSeq uint64 `json:"flushed_seq"`
	// LiveCount is the exact number of visible keys as of FlushedSeq
	// (segments minus shadowing and tombstones); recovery re-derives the
	// current count by replaying the WAL delta on top of it.
	LiveCount int64 `json:"live_count"`
	// NextID is the next unused segment file ID; it only ever advances, so
	// stale files resurrected by a crash can never collide with new ones.
	NextID uint64 `json:"next_id"`
	// Segments are the live runs, any order (readers sort by Seq).
	Segments []Meta `json:"segments"`
}

// ManifestFileName renders a generation's file name.
func ManifestFileName(gen uint64) string {
	return fmt.Sprintf("%s%016d%s", manPrefix, gen, manSuffix)
}

// ParseManifestName extracts the generation from a manifest file name.
func ParseManifestName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, manPrefix) || !strings.HasSuffix(name, manSuffix) {
		return 0, false
	}
	mid := name[len(manPrefix) : len(name)-len(manSuffix)]
	gen, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// EncodeManifest seals m in the CHAMMAN1 envelope.
func EncodeManifest(m *Manifest) ([]byte, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 16+len(body))
	copy(out, manMagic)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(body)))
	binary.LittleEndian.PutUint32(out[12:], crc32.Checksum(body, castagnoli))
	copy(out[16:], body)
	return out, nil
}

// DecodeManifest parses and validates an encoded manifest. It never panics
// on hostile input and returns ErrManifestCorrupt for anything that is not
// a faithful EncodeManifest product.
func DecodeManifest(data []byte) (*Manifest, error) {
	corrupt := func(why string) error { return fmt.Errorf("%w: %s", ErrManifestCorrupt, why) }
	if len(data) < 16 || string(data[:8]) != manMagic {
		return nil, corrupt("bad magic")
	}
	n := binary.LittleEndian.Uint32(data[8:])
	if n > maxManifestLen || int(n) != len(data)-16 {
		return nil, corrupt("bad body length")
	}
	body := data[16:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[12:]) {
		return nil, corrupt("CRC mismatch")
	}
	var m Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, corrupt("bad body: " + err.Error())
	}
	seen := make(map[uint64]bool, len(m.Segments))
	for i := range m.Segments {
		s := &m.Segments[i]
		if seen[s.ID] {
			return nil, corrupt("duplicate segment ID")
		}
		seen[s.ID] = true
		if s.ID >= m.NextID {
			return nil, corrupt("segment ID at or past next_id")
		}
		if s.Count > 0 && s.MinKey > s.MaxKey {
			return nil, corrupt("segment min > max")
		}
		if s.Live > s.Count || s.Level < 0 {
			return nil, corrupt("impossible segment geometry")
		}
	}
	return &m, nil
}

// WriteManifest durably commits m as its generation's file: write, fsync,
// and one SyncDir sealing the directory entry. The caller must have made
// every segment m references durable first (Create + SyncDir). On return
// the new generation is the one recovery will load. On error the file is
// removed, even past its fsync: callers abort by removing the files m
// names, and a generation left behind would name files that are gone.
func WriteManifest(fsys faultfs.FS, dir string, m *Manifest) error {
	data, err := EncodeManifest(m)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, ManifestFileName(m.Gen))
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()         //nolint:errcheck
		fsys.Remove(path) //nolint:errcheck
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()         //nolint:errcheck
		fsys.Remove(path) //nolint:errcheck
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(path) //nolint:errcheck
		return err
	}
	if err := fsys.SyncDir(dir); err != nil {
		fsys.Remove(path) //nolint:errcheck
		return err
	}
	return nil
}

// LoadManifest finds the newest decodable manifest generation in dir. A nil
// Manifest with nil error means the directory has no manifest at all (the
// tier was never initialized). Torn or corrupt newer generations are
// skipped with a fallback to older ones — the crash-mid-commit signature —
// but if manifests exist and none decodes, that is reported as corruption,
// not emptiness: serving an empty tier over unreadable data would be silent
// loss.
func LoadManifest(fsys faultfs.FS, dir string) (*Manifest, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		if gen, ok := ParseManifestName(e.Name()); ok {
			gens = append(gens, gen)
		}
	}
	if len(gens) == 0 {
		return nil, nil
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] }) // newest first
	var firstErr error
	for _, gen := range gens {
		f, err := fsys.OpenFile(filepath.Join(dir, ManifestFileName(gen)), os.O_RDONLY, 0)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		data, err := io.ReadAll(f)
		f.Close() //nolint:errcheck
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		m, err := DecodeManifest(data)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", ManifestFileName(gen), err)
			}
			continue
		}
		if m.Gen != gen {
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: %s names gen %d", ErrManifestCorrupt, ManifestFileName(gen), m.Gen)
			}
			continue
		}
		return m, nil
	}
	return nil, fmt.Errorf("%w: %d generation(s) present, none readable: %v",
		ErrManifestCorrupt, len(gens), firstErr)
}
