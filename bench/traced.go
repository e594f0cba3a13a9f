package main

import (
	"fmt"
	"path/filepath"

	"chameleon/internal/wal"
)

// traced is the traced phase of a run, on a set-up of its own: a quarter of
// the op count untraced, the same again with tracing on, then the layer
// probes. The two windows only differ in whether spans are recorded, so their
// throughput ratio is the tracing overhead. A remote workload's server runs
// inside this process here, which therefore keeps every CPU.
func (p *phase) traced() error {
	b, e, w, pat, seed, res := p.b, p.e, p.w, &p.pat, p.seed, p.res
	tr := newTracer() // remote workloads; an embedded worker keeps its own
	dir := filepath.Join(p.tmp, "data-traced")
	h, err := p.setUp(dir, tr)
	if err != nil {
		return err
	}
	quarter := w.opsPerSecond * uint64(p.secs) / 4
	timeout := windowTimeout(p.secs)
	c0, err := h.counters()
	if err != nil {
		return err
	}
	plain, err := h.run(w.warmup, w.warmup+quarter, timeout, nil)
	if err != nil {
		return err
	}
	res.account(plain)
	tr.start()
	traced, err := h.run(plain.Next, plain.Next+quarter, timeout, tr)
	tr.stop()
	if err != nil {
		return err
	}
	res.account(traced)
	c1, err := h.counters()
	if err != nil {
		return err
	}
	if _, _, err := p.finish(h, dir, traced.Next); err != nil {
		return err
	}

	v := res.values
	v["trace.overhead_frac"] = 1 - ratio(traced.opsPerSec(), plain.opsPerSec())

	// The caller's view of the traced window.
	v["client.get_p99_us"] = traced.Lat[latGet].P99
	v["client.write_p99_us"] = traced.Lat[latWrite].P99
	v["client.range_p50_us"] = traced.Lat[latRange].P50
	v["tier.slice_min_over_median"] = traced.sliceMinOverMedian()

	// Counters over both windows.
	ops := float64(plain.ops() + traced.ops())
	writes := float64(pat.writes(plain.Start, traced.Next))
	// Lookups the tier may have to answer from a segment: GETs, and the
	// presence check every delete makes before it commits.
	probes := float64(pat.count(opGet, traced.Next) + pat.count(opDelete, traced.Next) -
		pat.count(opGet, plain.Start) - pat.count(opDelete, plain.Start))
	elapsed := float64(plain.ElapsedNS+traced.ElapsedNS) / 1e9
	batches := float64(c1.Batches - c0.Batches)
	v["durable.batch_mean"] = ratio(float64(c1.BatchedOps-c0.BatchedOps), batches)
	v["durable.batches_per_s"] = ratio(batches, elapsed)
	v["durable.queue_high_water"] = float64(c1.QueueHighWater)
	v["durable.shed_ops"] = float64(c1.ShedOps - c0.ShedOps)
	var slow, all float64
	for i := range c1.FsyncHist {
		n := float64(c1.FsyncHist[i] - c0.FsyncHist[i])
		all += n
		if i >= 2 { // buckets from FsyncBucketBounds[1] = 1 ms up
			slow += n
		}
	}
	v["durable.fsync_over_1ms_frac"] = ratio(slow, all)
	if w.remote {
		// Every batch is one fsync under fsync-every-op; embedded workloads
		// run with no fsync at all.
		v["wal.fsyncs_per_write"] = ratio(batches, writes)
		v["server.get_batch_mean"] = ratio(float64(c1.BatchedGets-c0.BatchedGets), float64(c1.GetBatches-c0.GetBatches))
		v["server.req_errors"] = float64(c1.ReqErrors - c0.ReqErrors)
		// Requests the server saw beyond the ops issued (and the one STATS
		// call between the snapshots) are the client's retries.
		v["client.retries"] = float64(c1.Requests-c0.Requests) - ops - 1
	}
	v["tier.cold_read_frac"] = ratio(float64(c1.ColdReads-c0.ColdReads), probes)
	v["tier.segments_end"] = float64(c1.Segments)
	v["tier.l0_end"] = float64(c1.L0Segments)
	v["tier.flushes"] = float64(c1.Flushes - c0.Flushes)
	v["tier.compactions"] = float64(c1.Compactions - c0.Compactions)
	flushed, compacted := float64(c1.FlushedBytes-c0.FlushedBytes), float64(c1.CompactBytes-c0.CompactBytes)
	v["tier.flush_bytes_per_write"] = ratio(flushed, writes)
	v["tier.compact_bytes_per_write"] = ratio(compacted, writes)
	if w.tiered {
		// (WAL + flushed + compacted bytes) over the 16 B a write carries.
		v["tier.write_amp"] = ratio(wal.FrameSize*writes+flushed+compacted, 16*writes)
	}

	// Spans: self time of the serving stack around the index.
	spans := traced.Spans // embedded: the worker resolved its own
	counts := map[string]float64{"requests": float64(traced.ops())}
	if w.remote {
		tres := tr.resolve()
		spans = tres.spans
		v["server.self_us_per_get"] = tres.selfP50[latGet]
		v["server.self_us_per_write"] = tres.selfP50[latWrite]
		v["durable.index_span_us_per_write"] = tres.indexP50[latWrite]
		counts["request_spans"], counts["index_spans_matched"] = float64(tres.requests), float64(tres.matched)
		if tres.matched < tres.requests {
			res.fail("%d of %d request spans have no index child span", tres.requests-tres.matched, tres.requests)
		}
	} else {
		// The caller's span is the DurableIndex call itself.
		v["durable.index_span_us_per_write"] = traced.Lat[latWrite].P50
	}
	// Layer probes, in a process of their own, at the batch size this
	// workload's group commit formed.
	var layers map[string]float64
	batch := int(v["durable.batch_mean"] + 0.5)
	if err := e.runWorker(&layers, "layers", w, seed, filepath.Join(p.tmp, "layers"), "-batch", fmt.Sprint(batch)); err != nil {
		return err
	}
	for name, value := range layers {
		v[name] = value
	}
	for name, value := range v {
		counts[name] = value
	}
	path := filepath.Join(b.root, ".bench_build", fmt.Sprintf("trace-%s-%d.json", w.name, seed))
	note := "times are ns since the traced window began; a span's parent is the request that caused it and shares its req (the op's index in the stream); self time of a request = its duration minus its children's"
	if err := writeSpanFile(path, spanFile{Workload: w.name, Seed: seed, Note: note, Counts: counts, Spans: spans}); err != nil {
		return err
	}
	res.notes = append(res.notes, fmt.Sprintf("span file: %s (%d spans)", path, len(spans)))
	res.notes = append(res.notes, fmt.Sprintf("untraced %.0f ops/s, traced %.0f ops/s over %d ops each", plain.opsPerSec(), traced.opsPerSec(), quarter))
	return nil
}
