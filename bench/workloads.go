package main

import (
	"fmt"
	"time"

	"chameleon"
)

// workload is one of the benchmark's traffic mixes. Names are fixed: later
// issues cite them, and BENCHMARK.json lists them with the same reasons.
type workload struct {
	name string
	why  string
	mix  mix
	// remote workloads drive cmd/chameleon-serve over loopback through
	// internal/client; embedded ones call chameleon.OpenDir's handle from one
	// goroutine of a re-exec'd worker process.
	remote bool
	tiered bool
	// memtableMB is the tiered memtable budget (chameleon-serve only takes
	// whole MiB); embedded tiers use embedMemtableBytes.
	memtableMB int
	// warmup is the fixed number of ops, of the workload's own mix, that ends
	// set-up: caches filled, retrainer and flusher in their steady rhythm.
	warmup uint64
	// opsPerSecond x --seconds is the measured window's op count: a fixed
	// amount of work, the same on every commit compared, not a fixed time.
	// The values are frozen from the reference box (2 vCPUs) at the commit
	// that defined the benchmark, where at --seconds 10 the four windows take
	// about 8, 11, 9 and 18 s: the tier workloads get more of the pipeline's
	// time budget because their flush and compaction cycles need it, the
	// legacy ones less because each of their set-up rounds costs 6 s.
	opsPerSecond uint64
	// Background work that must complete inside the measured window, or the
	// window did not cover what the workload exists to measure.
	minFlushes, minCompactions uint64
}

const (
	embedMemtableBytes = 256 << 10
	retrainEvery       = 100 * time.Millisecond // the paper's 10 s at 200 M keys, scaled to 2 M

	// Closed loop everywhere: callers that wait for a reply.
	embedCallers = 1
	remoteConns  = 2
	remoteDepth  = 64
)

var workloads = []workload{
	{
		name:         "embed_mem",
		why:          "in-process legacy engine, 50% lookup/25% insert/25% delete, retrainer on: core, ebh and ilock do ~80% of the work; wire, server, fsync and tier none. Only here can a change to the paper's index show",
		mix:          mix{opGet: 50, opInsert: 25, opDelete: 25},
		warmup:       400_000,
		opsPerSecond: 300_000,
	},
	{
		name:           "embed_tier",
		why:            "in-process tiered engine, 256 KiB memtable over a 32 MB segment, 65% lookup (>90% cold)/25% insert/10% delete: segment reads, flush and compaction do the work. Same data and reads as embed_mem",
		mix:            mix{opGet: 65, opInsert: 25, opDelete: 10},
		tiered:         true,
		warmup:         100_000,
		opsPerSecond:   50_000,
		minFlushes:     8,
		minCompactions: 2,
	},
	{
		name:         "remote_get",
		why:          "chameleon-serve (legacy dir, fsync per commit) over loopback, 2 conns x depth 64, 98% GET/2% INSERT: client, wire and server (GET coalescing, reply writer) do nearly all the work; core and WAL little",
		mix:          mix{opGet: 98, opInsert: 2},
		remote:       true,
		warmup:       150_000,
		opsPerSecond: 150_000,
	},
	{
		name:           "remote_mixed_tier",
		why:            "chameleon-serve -tier (1 MiB memtable, fsync per commit), 2x64 in flight, 35% GET/45% INSERT/15% DELETE/5% RANGE(100): group commit, WAL and fsync dominate, flush and compaction behind. What users run",
		mix:            mix{opGet: 35, opInsert: 45, opDelete: 15, opRange: 5},
		remote:         true,
		tiered:         true,
		memtableMB:     1,
		warmup:         60_000,
		opsPerSecond:   45_000,
		minFlushes:     3,
		minCompactions: 1,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// dirOptions is how the benchmark's own processes (builder, embedded worker,
// traced in-process server, verifier) open the workload's directory. The
// chameleon-serve child gets the same settings through serveArgs.
func (w *workload) dirOptions() chameleon.DirOptions {
	o := chameleon.DirOptions{Sync: chameleon.SyncNone, Tiered: w.tiered}
	if w.remote {
		// cmd/chameleon-serve's defaults, so a traced (in-process) run
		// serves the same configuration as the child.
		o.Sync = chameleon.SyncEveryOp
		o.MaxPending = 4096
		o.BlockOnFull = true
		o.MemtableBytes = int64(w.memtableMB) << 20
		return o
	}
	o.RetrainEvery = retrainEvery
	if w.tiered {
		o.MemtableBytes = embedMemtableBytes
	}
	return o
}

func (w *workload) serveArgs(dir string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-dir", dir, "-sync", "everyop"}
	if w.tiered {
		args = append(args, "-tier", "-tier-memtable-mb", fmt.Sprint(w.memtableMB))
	}
	return args
}

func (w *workload) callers() int {
	if w.remote {
		return remoteConns * remoteDepth
	}
	return embedCallers
}
