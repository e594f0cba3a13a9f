package harness

import (
	"context"
	"fmt"
	"os"
	"slices"
	"time"

	"chameleon"
	"chameleon/internal/client"
	"chameleon/internal/netfault"
	"chameleon/internal/repl"
	"chameleon/internal/report"
	"chameleon/internal/server"
)

// Repl measures the replication subsystem end-to-end over TCP loopback: a
// primary/follower pair under a steady insert load, in async and semi-sync
// modes, reporting the write-ack latency the client observes and the
// replication lag the follower carries (sampled as primary seq − follower
// seq); then a series of failover trials — partition the link, promote the
// follower over the wire, and time until the new primary accepts a write.
// Its results are BENCH_repl.json's.
func Repl(cfg Config) ([]*report.Table, any) {
	cfg = cfg.Defaults()
	out := &replReport{}

	lag := &report.Table{
		Title: fmt.Sprintf("repl — primary/follower over TCP loopback (%s per mode)", cfg.Dur),
		Cols:  []string{"mode", "acked wr/s", "ack p50", "ack p99", "lag p50 (recs)", "lag p99 (recs)", "lag max", "ryw p50", "ryw p99"},
	}
	for _, semiSync := range []bool{false, true} {
		row := runReplLagPoint(cfg.Dur, semiSync)
		out.Lag = append(out.Lag, row)
		lag.AddRow(row.Mode,
			report.F2(row.AckedWPS),
			report.NsF(row.AckP50US*1e3), report.NsF(row.AckP99US*1e3),
			report.F2(row.LagP50), report.F2(row.LagP99), fmt.Sprint(row.LagMax),
			report.NsF(row.RYWP50US*1e3), report.NsF(row.RYWP99US*1e3),
		)
	}

	fo := &report.Table{
		Title: "repl — failover: partition the link, promote the follower, first accepted write",
		Cols:  []string{"trial", "keys behind", "failover time"},
	}
	trials, load := failoverTrials(cfg)
	for i := 0; i < trials; i++ {
		row := runFailoverTrial(i, load)
		out.Failover = append(out.Failover, row)
		fo.AddRow(fmt.Sprint(i), fmt.Sprint(row.KeysBehind), report.NsF(row.FailoverUS*1e3))
	}
	return []*report.Table{lag, fo}, out
}

// failoverTrials sizes the repl and failover sweeps from cfg: five trials,
// each preloading 1,000 fsynced writes, at the default scale; fewer and
// lighter when cfg.Ops is small.
func failoverTrials(cfg Config) (trials, load int) {
	return min(5, max(1, cfg.Ops/2_000)), min(cfg.Ops, 1_000)
}

// replReport is BENCH_repl.json's results.
type replReport struct {
	Lag      []replLagRow  `json:"lag"`
	Failover []failoverRow `json:"failover"`
}

type replLagRow struct {
	Mode     string  `json:"mode"`
	Writes   uint64  `json:"acked_writes"`
	Seconds  float64 `json:"seconds"`
	AckedWPS float64 `json:"acked_writes_per_sec"`
	// Write-ack latency as the primary's client sees it (semi-sync folds the
	// follower round trip into this).
	AckP50US float64 `json:"ack_p50_us"`
	AckP99US float64 `json:"ack_p99_us"`
	// Replication lag in records, sampled during the run.
	LagP50 float64 `json:"lag_p50_records"`
	LagP99 float64 `json:"lag_p99_records"`
	LagMax uint64  `json:"lag_max_records"`
	// Read-your-writes: time for GetAtLeast(key, token) on the follower to
	// return after the primary acked the write.
	RYWP50US float64 `json:"ryw_p50_us"`
	RYWP99US float64 `json:"ryw_p99_us"`
}

type failoverRow struct {
	Trial      int     `json:"trial"`
	KeysBehind uint64  `json:"keys_behind"`
	FailoverUS float64 `json:"failover_us"`
}

// replBench is one primary ← proxy ← follower pair with everything the
// harness needs to tear it down.
type replBench struct {
	primaryIx, followerIx     *chameleon.DurableIndex
	primaryNode, followerNode *repl.Node
	primary, follower         *server.Server
	proxy                     *netfault.Proxy
	dirs                      []string
}

func startReplBench(semiSync bool) *replBench {
	b := &replBench{}
	mkIx := func() *chameleon.DurableIndex {
		dir, err := os.MkdirTemp("", "chameleon-repl-*")
		if err != nil {
			panic(err)
		}
		b.dirs = append(b.dirs, dir)
		ix, err := chameleon.OpenDir(dir, chameleon.DirOptions{
			Sync: chameleon.SyncEveryOp, MaxPending: 4096, BlockOnFull: true,
		})
		if err != nil {
			panic(err)
		}
		return ix
	}
	b.primaryIx = mkIx()
	b.primaryNode = repl.New(b.primaryIx, repl.Options{SemiSync: semiSync, AckTimeout: 5 * time.Second})
	b.primary = server.New(b.primaryIx, server.Options{Repl: b.primaryNode})
	if err := b.primary.Listen("127.0.0.1:0"); err != nil {
		panic(err)
	}
	go b.primary.Serve() //nolint:errcheck

	proxy, err := netfault.New(b.primary.Addr().String())
	if err != nil {
		panic(err)
	}
	b.proxy = proxy

	b.followerIx = mkIx()
	b.followerNode = repl.New(b.followerIx, repl.Options{
		ReplicaOf:    proxy.Addr(),
		PullWait:     100 * time.Millisecond,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 100 * time.Millisecond,
	})
	b.follower = server.New(b.followerIx, server.Options{Repl: b.followerNode})
	if err := b.follower.Listen("127.0.0.1:0"); err != nil {
		panic(err)
	}
	go b.follower.Serve() //nolint:errcheck
	return b
}

func (b *replBench) close() {
	b.followerNode.Close()
	b.primaryNode.Close()
	b.follower.Close() //nolint:errcheck
	b.primary.Close()  //nolint:errcheck
	b.proxy.Close()
	b.followerIx.Close() //nolint:errcheck
	b.primaryIx.Close()  //nolint:errcheck
	for _, d := range b.dirs {
		os.RemoveAll(d) //nolint:errcheck
	}
}

// runReplLagPoint drives one mode for dur: a single writer inserts through
// the primary while a sampler tracks follower lag, and every 16th write is
// followed by a read-your-writes probe against the follower.
func runReplLagPoint(dur time.Duration, semiSync bool) replLagRow {
	b := startReplBench(semiSync)
	defer b.close()

	pc, err := client.Dial(b.primary.Addr().String(), client.Options{})
	if err != nil {
		panic(err)
	}
	defer pc.Close() //nolint:errcheck
	fc, err := client.Dial(b.follower.Addr().String(), client.Options{})
	if err != nil {
		panic(err)
	}
	defer fc.Close() //nolint:errcheck
	ctx := context.Background()

	// Lag sampler, concurrent with the writer.
	stop := make(chan struct{})
	lagDone := make(chan []uint64, 1)
	go func() {
		var samples []uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				lagDone <- samples
				return
			case <-tick.C:
				p, f := b.primaryIx.CommitSeq(), b.followerIx.CommitSeq()
				if p > f {
					samples = append(samples, p-f)
				} else {
					samples = append(samples, 0)
				}
			}
		}
	}()

	var (
		ackLat, rywLat []time.Duration
		writes         uint64
	)
	deadline := time.Now().Add(dur)
	start := time.Now()
	for key := uint64(1); time.Now().Before(deadline); key++ {
		t0 := time.Now()
		if err := pc.Insert(ctx, key, key^0x5bd1e995); err != nil {
			panic(fmt.Sprintf("repl bench insert(%d): %v", key, err))
		}
		ackLat = append(ackLat, time.Since(t0))
		writes++
		if key%16 == 0 {
			t1 := time.Now()
			if _, _, err := fc.GetAtLeast(ctx, key, pc.LastSeq(), 10*time.Second); err != nil {
				panic(fmt.Sprintf("repl bench read-your-writes(%d): %v", key, err))
			}
			rywLat = append(rywLat, time.Since(t1))
		}
	}
	elapsed := time.Since(start)
	close(stop)
	lagSamples := <-lagDone

	mode := "async"
	if semiSync {
		mode = "semi-sync"
	}
	slices.Sort(ackLat)
	slices.Sort(rywLat)
	slices.Sort(lagSamples)
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	return replLagRow{
		Mode: mode, Writes: writes, Seconds: elapsed.Seconds(),
		AckedWPS: float64(writes) / elapsed.Seconds(),
		AckP50US: us(report.Percentile(ackLat, 0.50)), AckP99US: us(report.Percentile(ackLat, 0.99)),
		RYWP50US: us(report.Percentile(rywLat, 0.50)), RYWP99US: us(report.Percentile(rywLat, 0.99)),
		LagP50: float64(report.Percentile(lagSamples, 0.50)),
		LagP99: float64(report.Percentile(lagSamples, 0.99)),
		LagMax: report.Percentile(lagSamples, 1),
	}
}

// runFailoverTrial stands up a fresh pair, loads it with load writes, cuts
// the link, and times partition → promoted follower accepting its first
// write. KeysBehind is how many records the follower still had to apply when
// the link died — promotion does not wait for them (they are applied;
// promotion is an epoch bump plus role flip), so failover time should not
// scale with it.
func runFailoverTrial(trial, load int) failoverRow {
	b := startReplBench(false)
	defer b.close()

	pc, err := client.Dial(b.primary.Addr().String(), client.Options{})
	if err != nil {
		panic(err)
	}
	defer pc.Close() //nolint:errcheck
	fc, err := client.Dial(b.follower.Addr().String(), client.Options{})
	if err != nil {
		panic(err)
	}
	defer fc.Close() //nolint:errcheck
	ctx := context.Background()

	for k := uint64(1); k <= uint64(load); k++ {
		if err := pc.Insert(ctx, k, k); err != nil {
			panic(fmt.Sprintf("failover trial %d insert: %v", trial, err))
		}
	}

	b.proxy.Partition(true)
	p, f := b.primaryIx.CommitSeq(), b.followerIx.CommitSeq()
	t0 := time.Now()
	if _, _, err := fc.Promote(ctx); err != nil {
		panic(fmt.Sprintf("failover trial %d promote: %v", trial, err))
	}
	// First accepted write on the new primary closes the failover window.
	for k := uint64(1); ; k++ {
		if err := fc.Insert(ctx, 1<<40+k, k); err == nil {
			break
		}
	}
	row := failoverRow{Trial: trial, FailoverUS: float64(time.Since(t0).Microseconds())}
	if p > f {
		row.KeysBehind = p - f
	}
	return row
}
