package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chameleon"
)

// Tracing is done from the benchmark's own files, around the calls into each
// layer; spans inside the program are a later change (ROADMAP item 4). A
// traced run records two kinds of span:
//
//   - a request span around every timed caller-side op (client.Get, ... for
//     remote workloads; the DurableIndex call itself for embedded ones), and
//   - for remote workloads, an index span around every call the in-process
//     server makes into the server.Index it serves.
//
// The index span a request caused is found after the run: same op kind, same
// key, and an interval inside the request's. It then takes the request's id
// and names the request as its parent, so the serving stack's self time
// (client + wire + server + kernel) is the request span minus its child.
// Spans and counts stay in memory until the run ends.

// span is the span file's record. Times are ns since the traced window began.
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"` // 0: a root span
	Req     uint64 `json:"req"`    // the op's index in the stream; shared by a request and its children
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// rawSpan is a span as recorded on the hot path.
type rawSpan struct {
	kind       opKind
	batch      bool // index side: part of a coalesced LookupBatch
	key        uint64
	req        uint64
	start, end int64
}

// maxSpans bounds each side's in-memory record (40 B per span); a window
// that outruns it simply stops recording.
const maxSpans = 1 << 21

// maxFileRequests bounds the span file: the first requests of the traced
// window with their children, enough to read a timeline from.
const maxFileRequests = 20_000

type tracer struct {
	on    atomic.Bool
	epoch time.Time
	// names labels the request spans: requestNames for client calls,
	// durableNames when the "request" is the embedded DurableIndex call.
	names *[numKinds]string

	mu       sync.Mutex
	requests []rawSpan
	index    []rawSpan
}

func newTracer() *tracer {
	return &tracer{names: &requestNames, requests: make([]rawSpan, 0, maxSpans), index: make([]rawSpan, 0, maxSpans)}
}

func (t *tracer) start() {
	t.epoch = time.Now()
	t.on.Store(true)
}

func (t *tracer) stop() { t.on.Store(false) }

func (t *tracer) request(o op, i uint64, t0, t1 time.Time) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	if len(t.requests) < maxSpans {
		t.requests = append(t.requests, rawSpan{kind: o.kind, key: o.key, req: i, start: t0.Sub(t.epoch).Nanoseconds(), end: t1.Sub(t.epoch).Nanoseconds()})
	}
	t.mu.Unlock()
}

func (t *tracer) indexSpan(kind opKind, batch bool, keys []uint64, t0 time.Time) {
	t1 := time.Now()
	t.mu.Lock()
	for _, key := range keys {
		if len(t.index) < maxSpans {
			t.index = append(t.index, rawSpan{kind: kind, batch: batch, key: key, start: t0.Sub(t.epoch).Nanoseconds(), end: t1.Sub(t.epoch).Nanoseconds()})
		}
	}
	t.mu.Unlock()
}

// tracedIndex decorates the handle an in-process server serves with a span
// around each of the five calls that do index work; everything else passes
// through.
type tracedIndex struct {
	*chameleon.DurableIndex
	tr *tracer
}

func (x *tracedIndex) Lookup(key uint64) (uint64, bool) {
	if !x.tr.on.Load() {
		return x.DurableIndex.Lookup(key)
	}
	t0 := time.Now()
	v, ok := x.DurableIndex.Lookup(key)
	x.tr.indexSpan(opGet, false, []uint64{key}, t0)
	return v, ok
}

func (x *tracedIndex) LookupBatch(keys, vals []uint64, found []bool) {
	if !x.tr.on.Load() {
		x.DurableIndex.LookupBatch(keys, vals, found)
		return
	}
	t0 := time.Now()
	x.DurableIndex.LookupBatch(keys, vals, found)
	x.tr.indexSpan(opGet, true, keys, t0)
}

func (x *tracedIndex) Range(lo, hi uint64, fn func(key, val uint64) bool) {
	if !x.tr.on.Load() {
		x.DurableIndex.Range(lo, hi, fn)
		return
	}
	t0 := time.Now()
	x.DurableIndex.Range(lo, hi, fn)
	x.tr.indexSpan(opRange, false, []uint64{lo}, t0)
}

func (x *tracedIndex) InsertCtx(ctx context.Context, key, val uint64) error {
	if !x.tr.on.Load() {
		return x.DurableIndex.InsertCtx(ctx, key, val)
	}
	t0 := time.Now()
	err := x.DurableIndex.InsertCtx(ctx, key, val)
	x.tr.indexSpan(opInsert, false, []uint64{key}, t0)
	return err
}

func (x *tracedIndex) DeleteCtx(ctx context.Context, key uint64) error {
	if !x.tr.on.Load() {
		return x.DurableIndex.DeleteCtx(ctx, key)
	}
	t0 := time.Now()
	err := x.DurableIndex.DeleteCtx(ctx, key)
	x.tr.indexSpan(opDelete, false, []uint64{key}, t0)
	return err
}

// traceResult is what the spans of one traced window add up to.
type traceResult struct {
	requests, matched int
	// Self time of the serving stack (request minus its index child) and the
	// index span itself, medians in microseconds per latency class.
	selfP50  [numLat]float64
	indexP50 [numLat]float64
	spans    []span // the first maxFileRequests requests, children after their parent
}

var requestNames = [numKinds]string{"client.Get", "client.Insert", "client.Delete", "client.Range"}
var durableNames = [numKinds]string{"durable.Lookup", "durable.Insert", "durable.Delete", "durable.Range"}
var indexNames = [numKinds]string{"index.Lookup", "index.InsertCtx", "index.DeleteCtx", "index.Range"}

// resolve pairs every request span with the index span it caused: same kind,
// same key, interval inside the request's. When one key is in flight twice an
// index span can sit inside both requests, so a first-fit choice may take the
// only span the other request could have; the pairing is therefore a maximum
// matching (augmenting paths, over the handful of spans that share a key).
func (t *tracer) resolve() traceResult {
	sort.Slice(t.requests, func(a, b int) bool { return t.requests[a].start < t.requests[b].start })
	sort.Slice(t.index, func(a, b int) bool { return t.index[a].start < t.index[b].start })
	type slot struct {
		kind opKind
		key  uint64
	}
	byKey := make(map[slot][]int, len(t.index))
	for i, c := range t.index {
		s := slot{c.kind, c.key}
		byKey[s] = append(byKey[s], i)
	}
	// child[r] is the index span request r got and owner[c] the request that
	// index span c went to; -1: none. seen[c] is the search that last tried c.
	child, owner, seen := make([]int, len(t.requests)), make([]int, len(t.index)), make([]int, len(t.index))
	for r := range child {
		child[r] = -1
	}
	for c := range owner {
		owner[c] = -1
	}
	var assign func(r, search int) bool
	assign = func(r, search int) bool {
		req := t.requests[r]
		for _, c := range byKey[slot{req.kind, req.key}] {
			if seen[c] == search || t.index[c].start < req.start || t.index[c].end > req.end {
				continue
			}
			seen[c] = search
			if owner[c] < 0 || assign(owner[c], search) {
				owner[c], child[r] = r, c
				return true
			}
		}
		return false
	}

	res := traceResult{requests: len(t.requests)}
	for r := range t.requests {
		if assign(r, r+1) {
			res.matched++
		}
	}
	var self, index [numLat][]uint32
	var nextID uint64
	for i, r := range t.requests {
		nextID++
		id := nextID
		if len(res.spans) < 2*maxFileRequests {
			res.spans = append(res.spans, span{Name: t.names[r.kind], ID: id, Req: r.req, StartNS: r.start, EndNS: r.end})
		}
		if child[i] < 0 {
			continue
		}
		c := t.index[child[i]]
		cl := classOf(r.kind)
		self[cl] = append(self[cl], uint32((r.end-r.start)-(c.end-c.start)))
		index[cl] = append(index[cl], uint32(c.end-c.start))
		nextID++
		if len(res.spans) < 2*maxFileRequests {
			name := indexNames[c.kind]
			if c.batch {
				name = "index.LookupBatch"
			}
			res.spans = append(res.spans, span{Name: name, ID: nextID, Parent: id, Req: r.req, StartNS: c.start, EndNS: c.end})
		}
	}
	for cl := latClass(0); cl < numLat; cl++ {
		sortU32(self[cl])
		sortU32(index[cl])
		res.selfP50[cl] = percentile(self[cl], 50) / 1e3
		res.indexP50[cl] = percentile(index[cl], 50) / 1e3
	}
	return res
}

// spanFile is the JSON document a traced run leaves behind.
type spanFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Note     string             `json:"note"`
	Counts   map[string]float64 `json:"counts"`
	Spans    []span             `json:"spans"`
}

func writeSpanFile(path string, f spanFile) error {
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
