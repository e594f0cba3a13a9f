package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"chameleon/internal/faultfs"
	"chameleon/internal/segment"
)

// Tiered-directory inspection: dump the tier manifest and every segment's
// metadata, and optionally re-verify each file (full CRC pass plus a probe
// of the learned model against the on-disk keys).

// inspectTierDir prints the tier state of dir. A sharded root (shard-NNNN
// subdirectories) recurses into every shard. Returns false if dir holds no
// tier manifest anywhere.
func inspectTierDir(dir string, check bool) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		fatal(err)
	}
	var shardDirs []string
	for _, e := range entries {
		if e.IsDir() && len(e.Name()) == 10 && e.Name()[:6] == "shard-" {
			shardDirs = append(shardDirs, e.Name())
		}
	}
	if len(shardDirs) > 0 {
		sort.Strings(shardDirs)
		any := false
		for _, sd := range shardDirs {
			fmt.Printf("== %s ==\n", sd)
			if inspectOneTierDir(filepath.Join(dir, sd), check) {
				any = true
			}
			fmt.Println()
		}
		return any
	}
	return inspectOneTierDir(dir, check)
}

func inspectOneTierDir(dir string, check bool) bool {
	man, err := segment.LoadManifest(faultfs.OS, dir)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", dir, err))
	}
	if man == nil {
		fmt.Printf("%s: no tier manifest (legacy checkpoint directory)\n", dir)
		return false
	}
	var total int64
	var live, count uint64
	for _, m := range man.Segments {
		total += m.Bytes
		live += m.Live
		count += m.Count
	}
	fmt.Printf("manifest:     gen %d\n", man.Gen)
	fmt.Printf("flushed seq:  %d (WAL records above this are the unflushed delta)\n", man.FlushedSeq)
	fmt.Printf("live keys:    %d as of the watermark\n", man.LiveCount)
	fmt.Printf("next seg id:  %d\n", man.NextID)
	fmt.Printf("segments:     %d (%d entries, %d live, %d tombstones, %.2f MB)\n",
		len(man.Segments), count, live, count-live, float64(total)/(1<<20))
	if len(man.Segments) == 0 {
		return true
	}
	metas := append([]segment.Meta(nil), man.Segments...)
	sort.Slice(metas, func(i, j int) bool {
		if metas[i].Seq != metas[j].Seq {
			return metas[i].Seq > metas[j].Seq
		}
		return metas[i].ID > metas[j].ID
	})
	// Read order, newest first. A run is one L0 flush output or the level-1
	// files one merge wrote (same SEQ); the oldest level-1 run is the base,
	// the level-1 runs above it are deltas waiting to be worth merging down.
	baseSeq := metas[len(metas)-1].Seq
	role := func(m *segment.Meta) string {
		switch {
		case m.Level == 0:
			return "L0"
		case m.Seq == baseSeq:
			return "base"
		}
		return "delta"
	}
	fmt.Printf("\n%16s %5s %5s %10s %10s %20s %20s %12s %5s %6s %10s  %s\n",
		"ID", "LVL", "RUN", "COUNT", "LIVE", "MINKEY", "MAXKEY", "SEQ", "EPS", "MODEL", "BYTES", "STATUS")
	for i := range metas {
		m := metas[i]
		fmt.Printf("%16d %5d %5s %10d %10d %20d %20d %12d %5d %6d %10d  %s\n",
			m.ID, m.Level, role(&m), m.Count, m.Live, m.MinKey, m.MaxKey, m.Seq, m.Eps, m.ModelPieces,
			m.Bytes, segStatus(dir, &m, check))
	}
	return true
}

// segStatus opens the named segment against its manifest record: "ok" means
// the full-file CRC and header cross-check passed; with check it also probes
// the learned model against every on-disk key and reports the worst rank
// error against the promised ε.
func segStatus(dir string, m *segment.Meta, check bool) string {
	r, err := segment.Open(faultfs.OS, filepath.Join(dir, segment.FileName(m.ID)), m)
	if err != nil {
		if os.IsNotExist(err) {
			return "MISSING"
		}
		return fmt.Sprintf("CORRUPT: %v", err)
	}
	defer r.Close() //nolint:errcheck
	if !check {
		return "ok"
	}
	worst, err := r.ModelMaxError()
	if err != nil {
		return fmt.Sprintf("MODEL-PROBE-FAILED: %v", err)
	}
	if worst > m.Eps {
		return fmt.Sprintf("MODEL-ERROR %d > eps %d", worst, m.Eps)
	}
	return fmt.Sprintf("ok (model max err %d <= eps %d)", worst, m.Eps)
}

// inspectSegFile dumps one segment file with no manifest cross-check (the
// path for quarantined or orphaned files).
func inspectSegFile(path string) {
	r, err := segment.Open(faultfs.OS, path, nil)
	if err != nil {
		fatal(err)
	}
	defer r.Close() //nolint:errcheck
	m := r.Meta()
	if id, ok := segment.ParseFileName(filepath.Base(path)); ok {
		m.ID = id
	}
	fmt.Printf("file:         %s\n", path)
	fmt.Printf("id:           %d\n", m.ID)
	fmt.Printf("level:        %d\n", m.Level)
	fmt.Printf("entries:      %d (%d live, %d tombstones)\n", m.Count, m.Live, m.Count-m.Live)
	fmt.Printf("key range:    [%d, %d]\n", m.MinKey, m.MaxKey)
	fmt.Printf("seq:          %d\n", m.Seq)
	fmt.Printf("bytes:        %d\n", m.Bytes)
	fmt.Printf("model:        %d pieces (%d bytes), promised eps %d\n",
		m.ModelPieces, m.ModelPieces*24, m.Eps)
	worst, err := r.ModelMaxError()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("model error:  max %d (CRC and key order verified at open)\n", worst)
}
