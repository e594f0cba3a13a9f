package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chameleon"
	"chameleon/internal/report"
)

// Overload measures the bounded-admission write path: what happens to durable
// insert throughput, shed rate, and batch amortization as offered load
// exceeds what the disk can absorb, across queue bounds and both full-queue
// policies (fast-fail shedding vs blocking backpressure), plus the
// deadline-write path (InsertCtx). Its results are BENCH_overload.json's.
func Overload(cfg Config) ([]*report.Table, any) {
	cfg = cfg.Defaults()
	ops := min(cfg.Ops, 16_000) // fsync-bound: keep every row finite
	out := &overloadReport{}
	return []*report.Table{
		overloadAdmission(ops, out),
		overloadDeadlines(ops, out),
	}, out
}

// overloadReport is BENCH_overload.json's results.
type overloadReport struct {
	Rows []overloadRow `json:"rows"`
}

type overloadRow struct {
	Mode        string   `json:"mode"` // shed | block | deadline
	MaxPending  int      `json:"max_pending"`
	Writers     int      `json:"writers"`
	DeadlineUS  int      `json:"deadline_us,omitempty"`
	Offered     int      `json:"offered"`
	Acked       uint64   `json:"acked"`
	Shed        uint64   `json:"shed"`
	Cancelled   uint64   `json:"cancelled"`
	Seconds     float64  `json:"seconds"`
	AckedPerSec float64  `json:"acked_per_sec"`
	MeanBatch   float64  `json:"mean_batch"`
	MaxBatch    int      `json:"max_batch"`
	HighWater   int      `json:"queue_high_water"`
	FsyncHist   []uint64 `json:"fsync_hist"`
}

// runOverload blasts offered ops at a fresh durable index from writers
// goroutines through op (which returns the per-op error) and distills the
// run's Health counters into a row.
func runOverload(mode string, opts chameleon.DirOptions, writers, offered, deadlineUS int,
	op func(d *chameleon.DurableIndex, key uint64) error) overloadRow {
	dir, err := os.MkdirTemp("", "chameleon-overload-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir) //nolint:errcheck
	d, err := chameleon.OpenDir(dir, opts)
	if err != nil {
		panic(err)
	}
	per := offered / writers
	var acked, cancelled atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w+1) << 32
			for i := 0; i < per; i++ {
				switch err := op(d, base+uint64(i)); {
				case err == nil:
					acked.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					cancelled.Add(1)
				case errors.Is(err, chameleon.ErrOverloaded):
					// counted by the index itself
				default:
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	h := d.Health()
	d.Close() //nolint:errcheck

	row := overloadRow{
		Mode:        mode,
		MaxPending:  opts.MaxPending,
		Writers:     writers,
		DeadlineUS:  deadlineUS,
		Offered:     per * writers,
		Acked:       acked.Load(),
		Shed:        h.ShedOps,
		Cancelled:   cancelled.Load(),
		Seconds:     elapsed.Seconds(),
		AckedPerSec: float64(acked.Load()) / elapsed.Seconds(),
		MaxBatch:    h.MaxBatch,
		HighWater:   h.QueueHighWater,
		FsyncHist:   h.FsyncLatency[:],
	}
	if h.Batches > 0 {
		row.MeanBatch = float64(h.BatchedOps) / float64(h.Batches)
	}
	return row
}

// overloadAdmission sweeps the queue bound under a fixed writer count on the
// SyncEveryOp path: unbounded is the baseline, then progressively tighter
// bounds under both full-queue policies. Tighter bounds shed more but keep
// the queue (and so tail latency) short; blocking sheds nothing and converts
// the excess into writer wait time.
func overloadAdmission(ops int, out *overloadReport) *report.Table {
	const writers = 8
	t := &report.Table{
		Title: fmt.Sprintf("Overload — bounded admission under %d writers (SyncEveryOp, %d offered ops)",
			writers, ops),
		Cols: []string{"policy", "bound", "acked/s", "shed", "shed %", "mean batch", "queue high-water"},
	}
	addRow := func(mode string, row overloadRow) {
		out.Rows = append(out.Rows, row)
		bound := "∞"
		if row.MaxPending > 0 {
			bound = strconv.Itoa(row.MaxPending)
		}
		t.AddRow(mode, bound,
			fmt.Sprintf("%.0f", row.AckedPerSec),
			fmt.Sprintf("%d", row.Shed),
			fmt.Sprintf("%.1f%%", 100*float64(row.Shed)/float64(row.Offered)),
			fmt.Sprintf("%.1f", row.MeanBatch),
			strconv.Itoa(row.HighWater))
	}
	// With w writers at most w ops are ever in flight, so bounds below the
	// writer count are what force the admission decision.
	insert := func(d *chameleon.DurableIndex, key uint64) error { return d.Insert(key, key) }
	for _, bound := range []int{0, writers, writers / 2, 2} {
		opts := chameleon.DirOptions{MaxPending: bound}
		addRow("shed", runOverload("shed", opts, writers, ops, 0, insert))
	}
	for _, bound := range []int{writers / 2, 2} {
		opts := chameleon.DirOptions{MaxPending: bound, BlockOnFull: true}
		addRow("block", runOverload("block", opts, writers, ops, 0, insert))
	}
	return t
}

// overloadDeadlines drives the deadline-write path: every op carries a
// context deadline and the queue applies backpressure, so ops that cannot
// reach the disk in time cancel cleanly (two-state: cancelled ops have no
// durable effect). Generous deadlines behave like plain blocking writes;
// aggressive ones trade completion rate for bounded per-op latency.
func overloadDeadlines(ops int, out *overloadReport) *report.Table {
	const writers = 8
	const bound = 64
	t := &report.Table{
		Title: fmt.Sprintf("Overload — InsertCtx deadlines under %d writers (SyncEveryOp, bound %d, %d offered ops)",
			writers, bound, ops),
		Cols: []string{"deadline", "acked/s", "completed %", "cancelled", "mean batch"},
	}
	for _, dl := range []time.Duration{500 * time.Microsecond, 2 * time.Millisecond, 20 * time.Millisecond} {
		opts := chameleon.DirOptions{MaxPending: bound, BlockOnFull: true}
		row := runOverload("deadline", opts, writers, ops, int(dl/time.Microsecond),
			func(d *chameleon.DurableIndex, key uint64) error {
				ctx, cancel := context.WithTimeout(context.Background(), dl)
				defer cancel()
				return d.InsertCtx(ctx, key, key)
			})
		out.Rows = append(out.Rows, row)
		t.AddRow(dl.String(),
			fmt.Sprintf("%.0f", row.AckedPerSec),
			fmt.Sprintf("%.1f%%", 100*float64(row.Acked)/float64(row.Offered)),
			fmt.Sprintf("%d", row.Cancelled),
			fmt.Sprintf("%.1f", row.MeanBatch))
	}
	return t
}
