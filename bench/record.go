package main

import "time"

// latClass groups op kinds the way the metrics do.
type latClass int

const (
	latGet latClass = iota
	latWrite
	latRange
	numLat
)

func classOf(k opKind) latClass {
	switch k {
	case opGet:
		return latGet
	case opRange:
		return latRange
	}
	return latWrite
}

// numSlices is how many equal parts a window's op range is broken into; the
// slowest against the median shows foreground stalls.
const numSlices = 10

// latSummary is what a window reports per latency class, in microseconds.
type latSummary struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50_us"`
	P99     float64 `json:"p99_us"`
	// Tail is the highest of p99.9/p99/p90 with at least ten samples beyond
	// it; TailP says which.
	Tail  float64 `json:"tail_us"`
	TailP float64 `json:"tail_p"`
}

// window is the outcome of running ops [Start, Limit) of the stream against
// a host. Every index in [Start, Next) was issued and checked; Next < Limit
// means the window hit its timeout (or ran out of fresh keys) first.
type window struct {
	Start     uint64             `json:"start"`
	Next      uint64             `json:"next"`
	Limit     uint64             `json:"limit"`
	ElapsedNS int64              `json:"elapsed_ns"`
	Failed    uint64             `json:"failed"`
	Failure   string             `json:"failure,omitempty"` // the first one, for the log
	Lat       [numLat]latSummary `json:"lat"`
	SliceNS   [numSlices]int64   `json:"slice_ns"` // wall time of each tenth of the op range
	Spans     []span             `json:"spans,omitempty"`
}

func (w *window) ops() uint64        { return w.Next - w.Start }
func (w *window) opsPerSec() float64 { return ratio(float64(w.ops()), float64(w.ElapsedNS)/1e9) }

// sliceMinOverMedian is the throughput of the slowest tenth of the op range
// over that of the median tenth: how far background work stalls the
// foreground at its worst.
func (w *window) sliceMinOverMedian() float64 {
	vals := make([]float64, 0, numSlices)
	var slowest float64
	for _, ns := range w.SliceNS {
		vals = append(vals, float64(ns))
		slowest = max(slowest, float64(ns))
	}
	return ratio(median(vals), slowest)
}

// recorder collects one caller's view of a window. Callers each own one and
// the driver merges them, so the hot path takes no lock.
type recorder struct {
	samples [numLat][]uint32 // latencies in ns, saturating at ~4.29 s
	failed  uint64
	failure string
}

func (r *recorder) observe(c latClass, d time.Duration) {
	ns := d.Nanoseconds()
	if ns > int64(^uint32(0)) {
		ns = int64(^uint32(0))
	}
	r.samples[c] = append(r.samples[c], uint32(ns))
}

func (r *recorder) fail(msg string) {
	if r.failed == 0 {
		r.failure = msg
	}
	r.failed++
}

// summarize merges the callers' recorders into w.
func summarize(w *window, recs []*recorder) {
	for c := latClass(0); c < numLat; c++ {
		var all []uint32
		for _, r := range recs {
			all = append(all, r.samples[c]...)
		}
		sortU32(all)
		tail, tailP := tailPercentile(all)
		w.Lat[c] = latSummary{
			Samples: len(all),
			P50:     percentile(all, 50) / 1e3,
			P99:     percentile(all, 99) / 1e3,
			Tail:    tail / 1e3,
			TailP:   tailP,
		}
	}
	for _, r := range recs {
		if r.failed > 0 && w.Failed == 0 {
			w.Failure = r.failure
		}
		w.Failed += r.failed
	}
}
