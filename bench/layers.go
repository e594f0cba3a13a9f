package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"chameleon"
	"chameleon/internal/client"
	"chameleon/internal/ebh"
	"chameleon/internal/faultfs"
	"chameleon/internal/segment"
	"chameleon/internal/server"
	"chameleon/internal/wal"
	"chameleon/internal/wire"
)

// Layer probes: each times direct calls into one layer's public functions on
// the workload's own keys and frames, from this file, so a traced run can say
// what each layer costs on its own. They run in a worker process of their own
// after the workload's windows, so they neither disturb the end-to-end
// numbers nor inherit the host's heap.

// probeOps is how many calls the cheap probes time.
const probeOps = 200_000

// countingFS counts the I/O a layer issues through faultfs.FS.
type countingFS struct {
	faultfs.FS
	reads, readBytes, writeBytes atomic.Uint64
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, c: c}, nil
}

func (c *countingFS) reset() {
	c.reads.Store(0)
	c.readBytes.Store(0)
	c.writeBytes.Store(0)
}

type countingFile struct {
	faultfs.File
	c *countingFS
}

func (f *countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.c.reads.Add(1)
	f.c.readBytes.Add(uint64(n))
	return n, err
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.writeBytes.Add(uint64(n))
	return n, err
}

// nullIndex is a server.Index that does no index work: what is left of a
// request's time and CPU is the client, the wire, the server and the kernel.
type nullIndex struct{}

func (nullIndex) Lookup(key uint64) (uint64, bool) { return key ^ valueSalt, true }
func (nullIndex) LookupBatch(keys, vals []uint64, found []bool) {
	for i, k := range keys {
		vals[i], found[i] = k^valueSalt, true
	}
}
func (nullIndex) Range(lo, hi uint64, fn func(key, val uint64) bool) {}
func (nullIndex) InsertCtx(context.Context, uint64, uint64) error    { return nil }
func (nullIndex) DeleteCtx(context.Context, uint64) error            { return nil }
func (nullIndex) Checkpoint() error                                  { return nil }
func (nullIndex) Close() error                                       { return nil }
func (nullIndex) Len() int                                           { return 0 }
func (nullIndex) WALSize() int64                                     { return 0 }
func (nullIndex) Health() chameleon.Health                           { return chameleon.Health{} }
func (nullIndex) Err() error                                         { return nil }
func (nullIndex) CommitSeq() uint64                                  { return 0 }
func (nullIndex) WaitSeq(context.Context, uint64) error              { return nil }

// probeKeys is the slice of the op stream the probes replay: the keys its
// first GETs read (loaded keys only), its first inserts add and its first
// deletes remove.
type probeKeys struct {
	gets, inserts, deletes []uint64
}

func collectProbeKeys(s *stream) probeKeys {
	var p probeKeys
	for i := uint64(0); len(p.gets) < probeOps; i++ {
		p.gets = append(p.gets, s.stable(mix64(s.seed^i)))
	}
	for k := uint64(0); k < probeOps/2; k++ {
		key, _ := s.fresh(k)
		p.inserts = append(p.inserts, key)
		p.deletes = append(p.deletes, s.deleted(k))
	}
	return p
}

// nsPer times fn once and returns nanoseconds per op.
func nsPer(ops int, fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

func probeLayers(w *workload, seed uint64, dir string, batch int) (map[string]float64, error) {
	s, err := newStream(seed, loadedKeys, w.mix)
	if err != nil {
		return nil, err
	}
	if batch < 1 {
		batch = 1
	}
	keys := collectProbeKeys(s)
	m := make(map[string]float64)
	for _, probe := range []func() error{
		func() error { return probeWire(m, s) },
		func() error { return probeNullServer(m, keys) },
		func() error { return probeShardRoute(m, s, keys, filepath.Join(dir, "shard")) },
		func() error { return probeWAL(m, keys, filepath.Join(dir, "wal"), batch) },
		func() error { return probeCore(m, s, keys) },
		func() error { return probeEBH(m, s) },
		func() error { return probeSegment(m, s, keys, filepath.Join(dir, "segment")) },
		func() error { return probeTier(m, s, keys, filepath.Join(dir, "tier")) },
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// probeWire times the codec on the frames the workload's own ops produce.
func probeWire(m map[string]float64, s *stream) error {
	const frames = 1024
	var reqs []*wire.Request
	var resps []*wire.Response
	pairs := make([]wire.Pair, rangeLen)
	for i := uint64(0); len(reqs) < frames; i++ {
		o := s.at(i)
		id := 1<<20 + i
		switch o.kind {
		case opGet:
			reqs = append(reqs, &wire.Request{ID: id, Op: wire.OpGet, Key: o.key})
			resps = append(resps, &wire.Response{ID: id, Op: wire.OpGet, OK: true, Found: true, Val: o.key ^ valueSalt})
		case opInsert:
			reqs = append(reqs, &wire.Request{ID: id, Op: wire.OpInsert, Key: o.key, Val: o.key ^ valueSalt})
			resps = append(resps, &wire.Response{ID: id, Op: wire.OpInsert, OK: true, HasSeq: true, Seq: id})
		case opDelete:
			reqs = append(reqs, &wire.Request{ID: id, Op: wire.OpDelete, Key: o.key})
			resps = append(resps, &wire.Response{ID: id, Op: wire.OpDelete, OK: true, HasSeq: true, Seq: id})
		case opRange:
			reqs = append(reqs, &wire.Request{ID: id, Op: wire.OpRange, Key: o.key, Val: o.hi, Limit: rangeLen})
			resps = append(resps, &wire.Response{ID: id, Op: wire.OpRange, OK: true, Pairs: pairs, More: true})
		}
	}
	reqFrames := make([][]byte, frames)
	respFrames := make([][]byte, frames)
	for i := range reqs {
		reqFrames[i] = wire.AppendRequest(nil, reqs[i])
		respFrames[i] = wire.AppendResponse(nil, resps[i])
	}
	const rounds = probeOps / frames
	var buf []byte
	var failure error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m["wire.encode_req_ns"] = nsPer(rounds*frames, func() {
		for r := 0; r < rounds; r++ {
			for _, req := range reqs {
				buf = wire.AppendRequest(buf[:0], req)
			}
		}
	})
	m["wire.decode_req_ns"] = nsPer(rounds*frames, func() {
		for r := 0; r < rounds; r++ {
			for _, frame := range reqFrames {
				payload, _, err := wire.DecodeFrame(frame)
				if err == nil {
					_, err = wire.DecodeRequest(payload)
				}
				if err != nil {
					failure = err
				}
			}
		}
	})
	m["wire.encode_resp_ns"] = nsPer(rounds*frames, func() {
		for r := 0; r < rounds; r++ {
			for _, resp := range resps {
				buf = wire.AppendResponse(buf[:0], resp)
			}
		}
	})
	m["wire.decode_resp_ns"] = nsPer(rounds*frames, func() {
		for r := 0; r < rounds; r++ {
			for _, frame := range respFrames {
				payload, _, err := wire.DecodeFrame(frame)
				if err == nil {
					_, err = wire.DecodeResponse(payload)
				}
				if err != nil {
					failure = err
				}
			}
		}
	})
	runtime.ReadMemStats(&after)
	m["wire.allocs_per_roundtrip"] = float64(after.Mallocs-before.Mallocs) / (rounds * frames)
	sink += uint64(len(buf))
	if failure != nil {
		return fmt.Errorf("wire probe: %w", failure)
	}
	return nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// probeNullServer measures the serving stack over an index that does
// nothing: the round trip at depth 1 and the CPU per op at 2 conns x depth 64
// (client and server share this process, so the CPU figure covers both).
func probeNullServer(m map[string]float64, keys probeKeys) error {
	srv := server.New(nullIndex{}, server.Options{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	go srv.Serve()    //nolint:errcheck // ends when Close closes the listener
	defer srv.Close() //nolint:errcheck // nothing to drain
	c, err := client.Dial(srv.Addr().String(), client.Options{Conns: remoteConns, MaxPipeline: remoteDepth})
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck // nothing in flight
	ctx := context.Background()

	var failure atomic.Value
	get := func(key uint64) {
		if v, ok, err := c.Get(ctx, key); err != nil || !ok || v != key^valueSalt {
			failure.Store(fmt.Errorf("null server: get %d = (%#x, %v, %v)", key, v, ok, err))
		}
	}
	const depth1 = 20_000
	rtts := make([]uint32, 0, depth1)
	for _, key := range keys.gets[:depth1] {
		t0 := time.Now()
		get(key)
		rtts = append(rtts, uint32(time.Since(t0).Nanoseconds()))
	}
	sortU32(rtts)
	m["server.null_rtt_us"] = percentile(rtts, 50) / 1e3

	var next atomic.Uint64
	cpu0 := cpuSeconds()
	var wg sync.WaitGroup
	for g := 0; g < remoteConns*remoteDepth; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= probeOps {
					return
				}
				get(keys.gets[i])
			}
		}()
	}
	wg.Wait()
	m["server.null_cpu_us_per_op"] = (cpuSeconds() - cpu0) * 1e6 / probeOps
	if err, _ := failure.Load().(error); err != nil {
		return err
	}
	return nil
}

// probeShardRoute is what the 1-shard router adds to a lookup: ShardedIndex
// over DurableIndex on the same data (a tenth of the loaded keys — the
// router's cost does not depend on how many there are).
func probeShardRoute(m map[string]float64, s *stream, keys probeKeys, dir string) error {
	data := s.keys[:len(s.keys)/10]
	opts := chameleon.DirOptions{Sync: chameleon.SyncNone}
	plain, err := chameleon.OpenDir(filepath.Join(dir, "plain"), opts)
	if err != nil {
		return err
	}
	defer plain.Close() //nolint:errcheck // read-only after the load
	if err := plain.BulkLoad(data, nil); err != nil {
		return err
	}
	sharded, err := chameleon.OpenShardedDir(filepath.Join(dir, "sharded"), chameleon.ShardDirOptions{DirOptions: opts, Shards: 1})
	if err != nil {
		return err
	}
	defer sharded.Close() //nolint:errcheck // read-only after the load
	if err := sharded.BulkLoad(data, nil); err != nil {
		return err
	}
	var probe []uint64
	for i := range keys.gets {
		probe = append(probe, data[mix64(uint64(i))%uint64(len(data))])
	}
	// Alternate the two so drift hits both alike; keep the median difference.
	var diffs []float64
	for round := 0; round < 5; round++ {
		a := nsPer(len(probe), func() {
			for _, k := range probe {
				v, _ := sharded.Lookup(k)
				sink += v
			}
		})
		b := nsPer(len(probe), func() {
			for _, k := range probe {
				v, _ := plain.Lookup(k)
				sink += v
			}
		})
		diffs = append(diffs, a-b)
	}
	m["shard.route_ns"] = median(diffs)
	return nil
}

// probeWAL appends batches of the size the workload's group commit formed,
// through a counting filesystem, and times the fsync separately.
func probeWAL(m map[string]float64, keys probeKeys, dir string, batch int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfs := &countingFS{FS: faultfs.OS}
	log, _, err := wal.Open(filepath.Join(dir, "probe.log"), wal.Options{Policy: wal.SyncNone, FS: cfs}, nil)
	if err != nil {
		return err
	}
	defer log.Close() //nolint:errcheck // a probe's log; nothing depends on it
	const batches = 1000
	recs := make([]wal.Record, batch)
	var appendNS int64
	syncs := make([]uint32, 0, batches)
	for b := 0; b < batches; b++ {
		for i := range recs {
			k := keys.inserts[(b*batch+i)%len(keys.inserts)]
			recs[i] = wal.Record{Op: wal.OpInsert, Key: k, Val: k ^ valueSalt}
		}
		t0 := time.Now()
		if err := log.AppendAll(recs); err != nil {
			return err
		}
		t1 := time.Now()
		if err := log.Sync(); err != nil {
			return err
		}
		appendNS += t1.Sub(t0).Nanoseconds()
		syncs = append(syncs, uint32(time.Since(t1).Nanoseconds()))
	}
	sortU32(syncs)
	m["wal.append_ns_per_rec"] = float64(appendNS) / float64(batches*batch)
	m["wal.sync_us_p50"] = percentile(syncs, 50) / 1e3
	m["wal.bytes_per_rec"] = float64(cfs.writeBytes.Load()) / float64(batches*batch)
	return nil
}

// probeCore drives the paper's index directly: bulk load, then the
// workload's lookups, inserts and deletes with the retrainer on.
func probeCore(m map[string]float64, s *stream, keys probeKeys) error {
	ix := chameleon.New(chameleon.Options{RetrainEvery: retrainEvery})
	defer ix.Close() //nolint:errcheck // in-memory only
	vals := s.values()
	t0 := time.Now()
	if err := ix.BulkLoad(s.keys, vals); err != nil {
		return err
	}
	m["core.bulkload_s"] = time.Since(t0).Seconds()
	loaded := time.Now()

	misses := 0
	m["core.lookup_ns"] = nsPer(len(keys.gets), func() {
		for _, k := range keys.gets {
			if v, ok := ix.Lookup(k); !ok || v != k^valueSalt {
				misses++
			}
		}
	})
	const batch = 16 // the depth the server's GET coalescing reaches
	bv, bf := make([]uint64, batch), make([]bool, batch)
	m["core.lookup_batch_ns_per_key"] = nsPer(len(keys.gets), func() {
		for i := 0; i+batch <= len(keys.gets); i += batch {
			ix.LookupBatch(keys.gets[i:i+batch], bv, bf)
			for _, ok := range bf {
				if !ok {
					misses++
				}
			}
		}
	})
	var failure error
	m["core.insert_ns"] = nsPer(len(keys.inserts), func() {
		for _, k := range keys.inserts {
			if err := ix.Insert(k, k^valueSalt); err != nil {
				failure = err
			}
		}
	})
	m["core.delete_ns"] = nsPer(len(keys.deletes), func() {
		for _, k := range keys.deletes {
			if err := ix.Delete(k); err != nil {
				failure = err
			}
		}
	})
	if failure != nil || misses > 0 {
		return fmt.Errorf("core probe: %d wrong lookups, last write error %v", misses, failure)
	}
	retrains, busy := ix.RetrainStats()
	m["core.retrains"] = float64(retrains)
	m["core.retrain_busy_frac"] = busy.Seconds() / time.Since(loaded).Seconds()
	m["core.read_fallbacks"] = float64(ix.ReadFallbacks())
	m["core.height"] = float64(ix.Height())
	m["core.bytes_per_key"] = float64(ix.Bytes()) / float64(ix.Len())
	m["core.reconstructions"] = float64(ix.Reconstructions())
	return nil
}

// probeEBH drives one error-bounded-hashing leaf of the size the core builds
// (a few thousand keys) with the paper's default tau and alpha.
func probeEBH(m map[string]float64, s *stream) error {
	const leaf = 4096
	mid := len(s.keys) / 2
	keys := s.keys[mid : mid+leaf]
	node := ebh.NewFromSorted(0, 0, keys, nil, 0.45, 131)
	const rounds = probeOps / leaf
	misses := 0
	m["ebh.lookup_ns"] = nsPer(rounds*leaf, func() {
		for r := 0; r < rounds; r++ {
			for i := range keys {
				if _, ok := node.Lookup(keys[(i*2654435761)%leaf]); !ok {
					misses++
				}
			}
		}
	})
	maxErr, sumErr := node.ErrorStats()
	_ = maxErr
	m["ebh.mean_probe_err"] = sumErr / float64(node.Len())
	var fresh []uint64
	for i := 0; i+1 < len(keys); i++ {
		if gap := keys[i+1] - keys[i]; gap >= 2 {
			fresh = append(fresh, keys[i]+gap/2)
		}
	}
	if len(fresh) == 0 {
		return fmt.Errorf("ebh probe: no gaps in the sampled leaf")
	}
	m["ebh.insert_ns"] = nsPer(len(fresh), func() {
		for _, k := range fresh {
			if !node.Insert(k, k) {
				misses++
			}
		}
	})
	m["ebh.conflict_degree"] = float64(node.ConflictDegree())
	if misses > 0 {
		return fmt.Errorf("ebh probe: %d lookups or inserts failed", misses)
	}
	return nil
}

// probeSegment builds one segment of the loaded keys and reads it cold-path
// style, counting the preads it takes.
func probeSegment(m map[string]float64, s *stream, keys probeKeys, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	vals := s.values()
	cfs := &countingFS{FS: faultfs.OS}
	t0 := time.Now()
	meta, err := segment.Create(cfs, dir, s.keys, vals, nil, 1, 1, 1, 0)
	if err != nil {
		return err
	}
	m["segment.build_ns_per_key"] = float64(time.Since(t0).Nanoseconds()) / float64(len(s.keys))
	m["segment.model_bytes_per_key"] = float64(meta.ModelPieces*24) / float64(len(s.keys))
	r, err := segment.Open(cfs, filepath.Join(dir, segment.FileName(1)), nil)
	if err != nil {
		return err
	}
	defer r.Close() //nolint:errcheck // read-only
	cfs.reset()
	var dists, misses int
	var failure error
	m["segment.get_ns"] = nsPer(len(keys.gets), func() {
		for _, k := range keys.gets {
			v, _, ok, dist, err := r.Get(k)
			if err != nil {
				failure = err
			}
			if !ok || v != k^valueSalt {
				misses++
			}
			dists += dist
		}
	})
	if failure != nil || misses > 0 {
		return fmt.Errorf("segment probe: %d wrong gets, last error %v", misses, failure)
	}
	gets := float64(len(keys.gets))
	m["segment.rank_err_mean"] = float64(dists) / gets
	m["segment.preads_per_get"] = float64(cfs.reads.Load()) / gets
	m["segment.bytes_per_get"] = float64(cfs.readBytes.Load()) / gets
	return nil
}

// probeTier times direct Flush and Compact calls on a tiered directory of the
// loaded keys, one memtable of the embedded workload's size per flush, and
// the reopen that follows.
func probeTier(m map[string]float64, s *stream, keys probeKeys, dir string) error {
	// The background flusher and the compaction trigger stay out of the way:
	// every flush and compaction here is the one being timed.
	opts := chameleon.DirOptions{Sync: chameleon.SyncNone, Tiered: true, MemtableBytes: 1 << 30, CompactL0: 1 << 20}
	ix, err := chameleon.OpenDir(dir, opts)
	if err != nil {
		return err
	}
	defer func() { ix.Close() }() //nolint:errcheck // the probe checks the Close it times
	vals := s.values()
	if err := ix.BulkLoad(s.keys, vals); err != nil {
		return err
	}
	const perFlush = embedMemtableBytes / 16
	var flushes, compacts []float64
	next := 0
	for cycle := 0; cycle < 2; cycle++ {
		for f := 0; f < 3; f++ {
			for i := 0; i < perFlush; i++ {
				k := keys.inserts[next]
				next++
				if err := ix.Insert(k, k^valueSalt); err != nil {
					return err
				}
			}
			t0 := time.Now()
			if err := ix.Flush(); err != nil {
				return err
			}
			flushes = append(flushes, float64(time.Since(t0).Microseconds())/1e3)
		}
		t0 := time.Now()
		if err := ix.Compact(); err != nil {
			return err
		}
		compacts = append(compacts, float64(time.Since(t0).Microseconds())/1e3)
	}
	m["tier.flush_ms_p50"] = median(flushes)
	m["tier.compact_ms_p50"] = median(compacts)
	if err := ix.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	if ix, err = chameleon.OpenDir(dir, opts); err != nil {
		return err
	}
	m["tier.reopen_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	return nil
}
