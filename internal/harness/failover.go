package harness

import (
	"context"
	"fmt"
	"slices"
	"time"

	"chameleon/internal/client"
	"chameleon/internal/failover"
	"chameleon/internal/report"
)

// Failover measures the operator-free failover path end to end: per trial, a
// primary/follower pair is loaded and converged, a failure detector watches
// the follower, and a failover pool client writes through the primary. Then
// the primary crashes (its server closes and the replication link
// partitions). Three clocks start at the crash:
//
//   - detect:  crash → the detector declares death and finishes promoting,
//   - promote: the Promote call itself (epoch persist + role flip),
//   - client:  crash → the pool client's first acked write on the NEW
//     primary (re-resolve latency rides on top of detection).
//
// The distribution across trials is the bound the docs quote: the trial
// thresholds here (suspect 300ms, 3 probes at 50ms) budget ~450ms for
// detection, the client follows within its next resolve sweep, and
// whatever the promotion itself takes comes on top (EXPERIMENTS.md). Its
// results are BENCH_failover.json's.
func Failover(cfg Config) ([]*report.Table, any) {
	cfg = cfg.Defaults()
	out := &failoverReport{}

	t := &report.Table{
		Title: "failover — crash the primary; detector promotes, pool client follows",
		Cols:  []string{"trial", "keys behind", "detect+promote", "promote only", "client e2e"},
	}
	trials, load := failoverTrials(cfg)
	var detect, clientE2E []float64
	for i := 0; i < trials; i++ {
		row := runAutoFailoverTrial(i, load)
		out.Trials = append(out.Trials, row)
		detect = append(detect, row.DetectUS)
		clientE2E = append(clientE2E, row.ClientUS)
		t.AddRow(fmt.Sprint(i), fmt.Sprint(row.KeysBehind),
			report.NsF(row.DetectUS*1e3), report.NsF(row.PromoteUS*1e3),
			report.NsF(row.ClientUS*1e3))
	}
	slices.Sort(detect)
	slices.Sort(clientE2E)
	out.DetectP50US, out.DetectMaxUS = report.Percentile(detect, 0.5), report.Percentile(detect, 1)
	out.ClientP50US, out.ClientMaxUS = report.Percentile(clientE2E, 0.5), report.Percentile(clientE2E, 1)

	sum := &report.Table{
		Title: "failover — distribution across trials",
		Cols:  []string{"clock", "p50", "max"},
	}
	sum.AddRow("detect+promote", report.NsF(out.DetectP50US*1e3), report.NsF(out.DetectMaxUS*1e3))
	sum.AddRow("client e2e", report.NsF(out.ClientP50US*1e3), report.NsF(out.ClientMaxUS*1e3))
	return []*report.Table{t, sum}, out
}

// failoverReport is BENCH_failover.json's results.
type failoverReport struct {
	Trials      []autoFailoverTrial `json:"trials"`
	DetectP50US float64             `json:"detect_p50_us"`
	DetectMaxUS float64             `json:"detect_max_us"`
	ClientP50US float64             `json:"client_p50_us"`
	ClientMaxUS float64             `json:"client_max_us"`
}

type autoFailoverTrial struct {
	Trial      int    `json:"trial"`
	KeysBehind uint64 `json:"keys_behind"`
	// DetectUS: crash → detector-driven promotion complete.
	DetectUS float64 `json:"detect_us"`
	// PromoteUS: the Promote call inside that window.
	PromoteUS float64 `json:"promote_us"`
	// ClientUS: crash → first write acked on the new primary through the
	// failover pool client.
	ClientUS float64 `json:"client_us"`
	Epoch    uint64  `json:"epoch"`
}

func runAutoFailoverTrial(trial, load int) autoFailoverTrial {
	b := startReplBench(false)
	defer b.close()
	ctx := context.Background()

	pc, err := client.Dial(b.primary.Addr().String(), client.Options{})
	if err != nil {
		panic(err)
	}
	for k := uint64(1); k <= uint64(load); k++ {
		if err := pc.Insert(ctx, k, k); err != nil {
			panic(fmt.Sprintf("failover trial %d insert: %v", trial, err))
		}
	}
	pc.Close() //nolint:errcheck
	deadline := time.Now().Add(30 * time.Second)
	for b.followerIx.CommitSeq() < uint64(load) {
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("failover trial %d: follower stuck at %d", trial, b.followerIx.CommitSeq()))
		}
		time.Sleep(2 * time.Millisecond)
	}

	fc, err := client.DialPool(client.FailoverOptions{
		Addrs:       []string{b.primary.Addr().String(), b.follower.Addr().String()},
		Client:      client.Options{DialTimeout: 500 * time.Millisecond},
		MaxResolves: 100,
		BackoffMin:  5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})
	if err != nil {
		panic(fmt.Sprintf("failover trial %d dial pool: %v", trial, err))
	}
	defer fc.Close() //nolint:errcheck
	if err := fc.Insert(ctx, uint64(load)+1, 1); err != nil {
		panic(fmt.Sprintf("failover trial %d pool write: %v", trial, err))
	}

	type promoEvent struct {
		epoch   uint64
		promote time.Duration
		at      time.Time // when the promotion completed
	}
	promoted := make(chan promoEvent, 1)
	det := failover.Start(b.followerNode, failover.Options{
		Upstream:      b.proxy.Addr(),
		SuspectAfter:  300 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond,
		Probes:        3,
		OnPromoted: func(epoch uint64, _, promote time.Duration) {
			promoted <- promoEvent{epoch, promote, time.Now()}
		},
	})
	defer det.Stop()

	// Crash: the primary's server dies for real, and the replication link
	// partitions (a stalled proxy keeps half-open conns realistic).
	p, f := b.primaryIx.CommitSeq(), b.followerIx.CommitSeq()
	t0 := time.Now()
	b.proxy.Partition(true)
	b.primary.Close() //nolint:errcheck

	// The pool client hammers until a write lands on the new primary.
	var clientDur time.Duration
	for k := uint64(1); ; k++ {
		wctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		err := fc.Insert(wctx, 1<<40+k, k)
		cancel()
		if err == nil {
			clientDur = time.Since(t0)
			break
		}
		if time.Since(t0) > 60*time.Second {
			panic(fmt.Sprintf("failover trial %d: client never recovered: %v", trial, err))
		}
	}
	ev := <-promoted
	row := autoFailoverTrial{
		Trial:     trial,
		DetectUS:  float64(ev.at.Sub(t0).Microseconds()),
		PromoteUS: float64(ev.promote.Microseconds()),
		ClientUS:  float64(clientDur.Microseconds()),
		Epoch:     ev.epoch,
	}
	if p > f {
		row.KeysBehind = p - f
	}
	return row
}
