// Command chameleon-serve serves a durable chameleon index over TCP with
// the wire protocol (see DESIGN.md §10). It opens (or creates) the index
// directory, listens, and drains gracefully on SIGINT/SIGTERM: stop
// accepting, finish in-flight requests, checkpoint, close. A client that
// received an ack before the signal finds its write after restart.
//
// Usage:
//
//	chameleon-serve -dir /var/lib/chameleon            # serve on :9431
//	chameleon-serve -dir d -shards 4                   # range-partitioned, one WAL per shard
//	chameleon-serve -dir d -sync interval -sync-every 5ms
//	chameleon-serve -dir d1 -repl                      # primary: serve follower pulls
//	chameleon-serve -dir d2 -replica-of primary:9431   # follower (read-only)
//	chameleon-serve -stats -addr localhost:9431        # one-line health JSON
//
// A directory that already holds a shard manifest reopens sharded no matter
// what -shards says (the stored layout owns the data). A directory does not
// change layout: -shards on an unsharded directory, or -tier on one holding
// a legacy snapshot, fails the open (DESIGN.md §7). -stats exits 0 only
// for a reachable, non-draining server; an unreachable or draining one gets
// a one-line error on stderr and a non-zero exit, so probes can alarm on the
// exit code alone.
//
// Replication (DESIGN.md §12): -replica-of starts the node as a follower of
// the given primary; it rejects writes and serves reads while pulling the
// primary's commit stream. A primary must opt in with -repl (implied by
// -repl-semisync) to accept follower pulls; -repl-semisync makes each write
// wait for a follower ack (bounded by -repl-ack-timeout). Sharded layouts
// replicate too (DESIGN.md §14): a sharded node runs one replication stream
// per shard, and its follower must be started with the same shard count.
// The engine may differ: a follower started with or without -tier
// bootstraps from either kind of primary, so following and then promoting
// moves a live node between engines.
//
// Failover (DESIGN.md §14): -failover-auto runs the failure detector beside
// a follower — when the primary is both silent on the pull stream and
// unresponsive to direct probes, the follower fences and promotes itself.
// SIGUSR1 (or the wire PROMOTE op) remains the manual path. A node that was
// fenced stays fenced across restarts (the repl.meta sidecar).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"chameleon"
	"chameleon/internal/client"
	"chameleon/internal/failover"
	"chameleon/internal/repl"
	"chameleon/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":9431", "listen address (or target for -stats)")
		dir          = flag.String("dir", "", "index directory (created if missing)")
		sync         = flag.String("sync", "everyop", "WAL sync policy: everyop (write and fsync each commit; survives kill and OS crash) | interval (acked writes wait in a 64 KiB buffer, written and fsynced every -sync-every; a kill loses the buffer, an OS crash one interval) | none (the same buffer, never fsynced; a kill loses the buffer, an OS crash everything since the last checkpoint)")
		syncEvery    = flag.Duration("sync-every", 10*time.Millisecond, "fsync interval for -sync interval")
		maxPending   = flag.Int("max-pending", 4096, "admission bound: max queued mutations (per shard when sharded)")
		shards       = flag.Int("shards", 0, "range partitions, each with its own WAL and commit queue (0 = unsharded; ignored when the directory already has a shard manifest; an unsharded directory is refused)")
		blockOnFull  = flag.Bool("block-on-full", true, "block writers at the bound instead of shedding with overloaded")
		maxConns     = flag.Int("max-conns", 256, "max concurrent connections")
		pipeline     = flag.Int("pipeline", 128, "max in-flight requests per connection")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGINT/SIGTERM")
		stats        = flag.Bool("stats", false, "dial -addr, print one-line STATS JSON, exit")
		replEnable   = flag.Bool("repl", false, "enable replication as primary (serve follower pulls); implied by -replica-of and -repl-semisync")
		replicaOf    = flag.String("replica-of", "", "follow this primary address (read-only until promoted via -failover-auto, SIGUSR1, or the wire PROMOTE op)")
		semiSync     = flag.Bool("repl-semisync", false, "primary: block each write's ack until a follower acknowledged it")
		ackTimeout   = flag.Duration("repl-ack-timeout", 2*time.Second, "semi-sync wait bound; on expiry the write errors replica-lagging but stays locally durable")
		autoFailover = flag.Bool("failover-auto", false, "follower: run the failure detector and self-promote when the primary is dead")
		suspectAfter = flag.Duration("failover-suspect", 2*time.Second, "pull-stall threshold before the detector starts probing the primary")
		probeEvery   = flag.Duration("failover-probe-interval", 500*time.Millisecond, "failure-detector probe interval")
		probeCount   = flag.Int("failover-probes", 3, "consecutive failed probes (while stalled) that declare the primary dead")
		foRank       = flag.Int("failover-rank", 0, "this detector's priority among detector-enabled followers (each must be distinct; rank claims epochs ≡ rank mod group so concurrent promotions can never collide)")
		foPeers      = flag.String("failover-peers", "", "comma-separated addresses of the OTHER detector-enabled followers (checked before promoting, fenced after)")
		tiered       = flag.Bool("tier", false, "tiered disk-resident storage: background flush to immutable sorted segments + leveled compaction instead of monolithic checkpoints (sticky: a directory with a tier manifest always reopens tiered; one with a legacy snapshot is refused)")
		memtableMB   = flag.Int("tier-memtable-mb", 4, "tiered mode: memtable budget in MiB before a background flush is triggered")
		compactL0    = flag.Int("tier-compact-l0", 0, "tiered mode: L0 segment count that triggers compaction into L1 (0 = default 4)")
	)
	flag.Parse()

	if *stats {
		os.Exit(printStats(*addr))
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "chameleon-serve: -dir is required")
		os.Exit(2)
	}
	dopts := chameleon.DirOptions{
		SyncEvery:     *syncEvery,
		MaxPending:    *maxPending,
		BlockOnFull:   *blockOnFull,
		Tiered:        *tiered,
		MemtableBytes: int64(*memtableMB) << 20,
		CompactL0:     *compactL0,
	}
	switch *sync {
	case "everyop":
		dopts.Sync = chameleon.SyncEveryOp
	case "interval":
		dopts.Sync = chameleon.SyncInterval
	case "none":
		dopts.Sync = chameleon.SyncNone
	default:
		fmt.Fprintf(os.Stderr, "chameleon-serve: unknown -sync %q\n", *sync)
		os.Exit(2)
	}

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "chameleon-serve: %v\n", err)
		os.Exit(1)
	}
	replOn := *replEnable || *replicaOf != "" || *semiSync
	if *autoFailover && *replicaOf == "" {
		fmt.Fprintln(os.Stderr, "chameleon-serve: -failover-auto needs -replica-of (only a follower can fail over)")
		os.Exit(2)
	}

	var ix server.Index
	layout := "unsharded"
	if *shards > 1 || chameleon.IsShardedDir(*dir) {
		n := *shards
		if n <= 1 {
			n = 0 // manifest present: the stored shard count wins anyway
		}
		si, err := chameleon.OpenShardedDir(*dir, chameleon.ShardDirOptions{DirOptions: dopts, Shards: n})
		if err != nil {
			fmt.Fprintf(os.Stderr, "chameleon-serve: open %s: %v\n", *dir, err)
			os.Exit(1)
		}
		ix = si
		layout = fmt.Sprintf("%d shards", si.Shards())
	} else {
		di, err := chameleon.OpenDir(*dir, dopts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chameleon-serve: open %s: %v\n", *dir, err)
			os.Exit(1)
		}
		ix = di
	}

	var node *repl.Node
	if replOn {
		ropts := repl.Options{
			ReplicaOf:  *replicaOf,
			SemiSync:   *semiSync,
			AckTimeout: *ackTimeout,
			Logf: func(format string, args ...any) {
				fmt.Printf("chameleon-serve: "+format+"\n", args...)
			},
		}
		switch ci := ix.(type) {
		case *chameleon.ShardedIndex:
			node = repl.NewSharded(ci, ropts)
		case *chameleon.DurableIndex:
			node = repl.New(ci, ropts)
		}
		role, epoch := node.Role()
		if *replicaOf != "" {
			layout = fmt.Sprintf("%s (%s) of %s, epoch %d", role, layout, *replicaOf, epoch)
		} else {
			layout = fmt.Sprintf("%s (%s), epoch %d", role, layout, epoch)
		}
	}
	var det *failover.Detector
	if *autoFailover {
		var peers []string
		for _, p := range strings.Split(*foPeers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		det = failover.Start(node, failover.Options{
			SuspectAfter:  *suspectAfter,
			ProbeInterval: *probeEvery,
			Probes:        *probeCount,
			Rank:          *foRank,
			Peers:         peers,
			Logf: func(format string, args ...any) {
				fmt.Printf("chameleon-serve: "+format+"\n", args...)
			},
		})
	}
	srv := server.New(ix, server.Options{
		MaxConns:    *maxConns,
		MaxPipeline: *pipeline,
		OwnsIndex:   true, // Shutdown checkpoints and closes the index
		Repl:        node,
	})
	if err := srv.Listen(*addr); err != nil {
		fmt.Fprintf(os.Stderr, "chameleon-serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("chameleon-serve: %d keys from %s (%s), listening on %s (sync=%s)\n",
		ix.Len(), *dir, layout, srv.Addr(), *sync)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()

	for {
		select {
		case sig := <-sigs:
			if sig == syscall.SIGUSR1 {
				// Operator promotion. Safe to repeat: promoting a primary is
				// a no-op, and a fenced node refuses with an explicit error.
				if node == nil {
					fmt.Println("chameleon-serve: SIGUSR1 ignored (replication not enabled)")
					continue
				}
				epoch, err := node.Promote()
				if err != nil {
					fmt.Fprintf(os.Stderr, "chameleon-serve: promote: %v\n", err)
					continue
				}
				fmt.Printf("chameleon-serve: promoted to primary, epoch %d\n", epoch)
				continue
			}
			fmt.Printf("chameleon-serve: %v — draining (budget %s)\n", sig, *drainTimeout)
			if det != nil {
				det.Stop()
			}
			if node != nil {
				node.Close() // stop pulling/acking before the index goes away
			}
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "chameleon-serve: drain: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("chameleon-serve: drained, checkpointed, closed")
			return
		case err := <-errc:
			if err != nil {
				fmt.Fprintf(os.Stderr, "chameleon-serve: %v\n", err)
				os.Exit(1)
			}
			return
		}
	}
}

// printStats dials addr and dumps the server's STATS JSON as one line — the
// operator's health probe, and the counters the repo benchmark (bench/)
// reads. The exit code is the probe's contract: 0 means reachable and
// serving; an unreachable or draining server gets exactly one line on stderr
// and a non-zero exit, so callers alarm on the code without parsing anything.
func printStats(addr string) int {
	c, err := client.Dial(addr, client.Options{DialTimeout: 3 * time.Second})
	if err != nil {
		fmt.Fprintf(os.Stderr, "chameleon-serve -stats: %s unreachable: %s\n", addr, oneLine(err))
		return 1
	}
	defer c.Close() //nolint:errcheck
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	stats, raw, err := c.Stats(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chameleon-serve -stats: %s unreachable: %s\n", addr, oneLine(err))
		return 1
	}
	fmt.Println(string(raw))
	if stats.Draining {
		fmt.Fprintf(os.Stderr, "chameleon-serve -stats: %s is draining\n", addr)
		return 1
	}
	return 0
}

// oneLine flattens an error message so the probe's stderr is always exactly
// one line, whatever the client error path produced.
func oneLine(err error) string {
	return strings.Join(strings.Fields(err.Error()), " ")
}
