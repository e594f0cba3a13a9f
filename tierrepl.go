package chameleon

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"chameleon/internal/segment"
)

// Replication bootstrap for tiered directories. A legacy snapshot stream
// (CHAMSNP3, core.WriteTo) carries the learned structure: tree shape, gates
// and leaf geometry, with leaf slots re-placed on load. A tiered primary
// instead ships its state as a *segment bundle* — the published segment files
// verbatim plus the volatile tiers (memtable, dead set, frozen run) encoded
// as in-memory CHAMSEG2 runs — so a multi-gigabyte tier streams straight off
// disk without materializing a monolithic structure snapshot.
//
// Bundle layout (CHAMTBN1, lengths little-endian):
//
//	[8]  magic "CHAMTBN1"
//	[4]  manifest envelope length | EncodeManifest bytes (self-CRC'd)
//	per manifest segment, in manifest order:
//	     [8] file length | raw segment bytes (each a self-CRC'd CHAMSEG2 file)
//	[8]  magic "CHAMTBN1" again (end marker)
//
// Only a tiered follower restores a bundle: it flattens it to one sorted run
// and lands it through the tier's one replace protocol (tier.replaceLocked,
// the same commit BulkLoad makes). Every layer of the bundle carries its own
// CRC; the manifest's per-segment Meta doubles as the cross-check on each
// run.
const bundleMagic = "CHAMTBN1"

// maxBundleManifest bounds the manifest envelope a decoder will buffer
// before the CRC check can reject it.
const maxBundleManifest = 64 << 20

// errBadBundle wraps bundle-stream framing violations.
var errBadBundle = fmt.Errorf("chameleon: corrupt snapshot bundle")

// ErrRestoreBehind is returned by RestoreSnapshot on a tiered directory when
// the snapshot's commit sequence is behind the local one. Rewinding a tiered
// directory is unsafe: local WAL files hold records with implicit sequences
// above the rewound watermark, and a crash between the restore's manifest
// commit and its WAL garbage collection would replay them as phantoms on top
// of the restored state. A diverged-ahead follower must be wiped and
// re-bootstrapped into an empty directory instead.
var ErrRestoreBehind = fmt.Errorf("chameleon: snapshot is behind local commit sequence")

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeBundle streams the tier's full visible state as a CHAMTBN1 bundle.
// The caller holds d.mu, so the volatile capture is coherent and no commit
// can land mid-stream; the published segment set is pinned under segMu.RLock
// (the allowed d.mu → segMu.RLock order) while its files are copied raw.
func (t *tier) writeBundle(w io.Writer) (int64, error) {
	d := t.d
	cw := &countingWriter{w: w}

	// Encode the volatile tiers as in-memory runs. IDs only order ties: the
	// memtable run gets the highest (it can only tie the frozen run's
	// watermark when both are empty, but newest-wins must hold regardless),
	// the frozen run the next, both above every disk segment.
	id := t.nextID.Load()
	type virtualRun struct {
		meta segment.Meta
		data []byte
	}
	var virt []virtualRun
	if fr := t.frozen.Load(); fr != nil && len(fr.keys) > 0 {
		var buf bytes.Buffer
		meta, err := segment.Write(&buf, fr.keys, fr.vals, fr.tombs, id, 0, fr.seq, 0)
		if err != nil {
			return cw.n, err
		}
		virt = append(virt, virtualRun{meta, buf.Bytes()})
	}
	if mk, mv, mt := t.captureLocked(); len(mk) > 0 {
		var buf bytes.Buffer
		meta, err := segment.Write(&buf, mk, mv, mt, id+1, 0, d.commitSeq.Load(), 0)
		if err != nil {
			return cw.n, err
		}
		virt = append(virt, virtualRun{meta, buf.Bytes()})
	}

	t.segMu.RLock()
	defer t.segMu.RUnlock()
	set := t.segs.Load()

	man := &segment.Manifest{
		Gen:        t.gen.Load(),
		FlushedSeq: d.commitSeq.Load(),
		LiveCount:  t.liveCount.Load(),
		NextID:     id + 2,
		Segments:   set.metas(),
	}
	for _, v := range virt {
		man.Segments = append(man.Segments, v.meta)
	}
	env, err := segment.EncodeManifest(man)
	if err != nil {
		return cw.n, err
	}
	if _, err := cw.Write([]byte(bundleMagic)); err != nil {
		return cw.n, err
	}
	var len4 [4]byte
	binary.LittleEndian.PutUint32(len4[:], uint32(len(env)))
	if _, err := cw.Write(len4[:]); err != nil {
		return cw.n, err
	}
	if _, err := cw.Write(env); err != nil {
		return cw.n, err
	}
	var len8 [8]byte
	for _, r := range set.readers {
		binary.LittleEndian.PutUint64(len8[:], uint64(r.Meta().Bytes))
		if _, err := cw.Write(len8[:]); err != nil {
			return cw.n, err
		}
		if _, err := r.WriteRaw(cw); err != nil {
			return cw.n, err
		}
	}
	for _, v := range virt {
		binary.LittleEndian.PutUint64(len8[:], uint64(len(v.data)))
		if _, err := cw.Write(len8[:]); err != nil {
			return cw.n, err
		}
		if _, err := cw.Write(v.data); err != nil {
			return cw.n, err
		}
	}
	if _, err := cw.Write([]byte(bundleMagic)); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// readBundleFlat decodes a CHAMTBN1 stream (positioned at the leading magic)
// and flattens it: runs merge newest-first with tombstone elision, yielding
// the strictly-ascending live contents as of the bundle's watermark.
func readBundleFlat(r io.Reader) (keys, vals []uint64, err error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil || string(head[:]) != bundleMagic {
		return nil, nil, fmt.Errorf("%w: bad magic", errBadBundle)
	}
	var len4 [4]byte
	if _, err := io.ReadFull(r, len4[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: short manifest length", errBadBundle)
	}
	manLen := binary.LittleEndian.Uint32(len4[:])
	if manLen < 16 || manLen > maxBundleManifest {
		return nil, nil, fmt.Errorf("%w: manifest length %d", errBadBundle, manLen)
	}
	env := make([]byte, manLen)
	if _, err := io.ReadFull(r, env); err != nil {
		return nil, nil, fmt.Errorf("%w: short manifest", errBadBundle)
	}
	man, err := segment.DecodeManifest(env)
	if err != nil {
		return nil, nil, err
	}

	type run struct {
		meta    segment.Meta
		entries []segment.Entry
	}
	runs := make([]run, 0, len(man.Segments))
	var len8 [8]byte
	for i := range man.Segments {
		m := man.Segments[i]
		if _, err := io.ReadFull(r, len8[:]); err != nil {
			return nil, nil, fmt.Errorf("%w: short segment length", errBadBundle)
		}
		if n := binary.LittleEndian.Uint64(len8[:]); n != uint64(m.Bytes) {
			return nil, nil, fmt.Errorf("%w: segment %d length %d, manifest says %d",
				errBadBundle, m.ID, n, m.Bytes)
		}
		data := make([]byte, m.Bytes)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, nil, fmt.Errorf("%w: short segment %d", errBadBundle, m.ID)
		}
		sr, err := segment.OpenBytes(data, &m)
		if err != nil {
			return nil, nil, err
		}
		entries, err := sr.LoadEntries()
		sr.Close() //nolint:errcheck
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, run{m, entries})
	}
	if _, err := io.ReadFull(r, head[:]); err != nil || string(head[:]) != bundleMagic {
		return nil, nil, fmt.Errorf("%w: bad end marker", errBadBundle)
	}

	sort.Slice(runs, func(i, j int) bool {
		if runs[i].meta.Seq != runs[j].meta.Seq {
			return runs[i].meta.Seq > runs[j].meta.Seq
		}
		return runs[i].meta.ID > runs[j].meta.ID
	})
	sources := make([]segment.Iterator, len(runs))
	for i := range runs {
		sources[i] = segment.NewSliceIter(runs[i].entries)
	}
	m := segment.NewMerge(sources...)
	for m.Next() {
		e := m.Entry()
		if e.Tomb {
			continue
		}
		keys = append(keys, e.Key)
		vals = append(vals, e.Val)
	}
	if err := m.Err(); err != nil {
		return nil, nil, err
	}
	if int64(len(keys)) != man.LiveCount {
		return nil, nil, fmt.Errorf("%w: flattened to %d live keys, manifest says %d",
			errBadBundle, len(keys), man.LiveCount)
	}
	return keys, vals, nil
}
