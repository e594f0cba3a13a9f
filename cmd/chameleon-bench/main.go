// Command chameleon-bench regenerates the paper's evaluation (Section VI):
// every figure and table has an experiment ID, and each run prints aligned
// text tables whose rows correspond to the paper's plotted series.
//
// Usage:
//
//	chameleon-bench -exp all                 # everything (slow)
//	chameleon-bench -exp fig8 -n 1000000     # one experiment at 1M keys
//	chameleon-bench -list                    # enumerate experiment IDs
//
// The paper evaluates 50–200M keys on a 128 GB machine; defaults here are
// laptop scale. Latency ratios between the indexes — not absolute numbers —
// are the reproduced quantity (see EXPERIMENTS.md).
//
// An experiment that records results (-list marks which) also writes them
// to BENCH_<id>.json in the current directory, under an environment block
// naming the run's size, machine, Go version and commit.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"chameleon/internal/harness"
	"chameleon/internal/report"
)

func main() {
	ids := make([]string, len(harness.Experiments))
	for i, e := range harness.Experiments {
		ids[i] = e.ID
	}
	var (
		exp  = flag.String("exp", "", "experiment ID ("+strings.Join(ids, ", ")+") or 'all'")
		n    = flag.Int("n", 400_000, "dataset cardinality")
		ops  = flag.Int("ops", 200_000, "mixed-workload operation count")
		seed = flag.Uint64("seed", 42, "generator seed")
		list = flag.Bool("list", false, "list experiment IDs and exit")
		csv  = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		dur  = flag.Duration("dur", 500*time.Millisecond, "repl: measurement window per mode")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range harness.Experiments {
			fmt.Printf("  %-8s %s\n", e.ID, e.Descr)
		}
		if !*list {
			os.Exit(2)
		}
		return
	}

	cfg := harness.Config{N: *n, Ops: *ops, Seed: *seed, Dur: *dur}
	ran := 0
	for _, e := range harness.Experiments {
		if *exp != "all" && !strings.EqualFold(e.ID, *exp) {
			continue
		}
		fmt.Printf("\n### %s — %s (n=%d, ops=%d, seed=%d)\n", e.ID, e.Descr, *n, *ops, *seed)
		start := time.Now()
		tables, results := e.Run(cfg)
		for _, tb := range tables {
			if *csv {
				tb.FprintCSV(os.Stdout)
			} else {
				tb.Fprint(os.Stdout)
			}
		}
		fmt.Printf("\n[%s completed in %.1fs]\n", e.ID, time.Since(start).Seconds())
		if results != nil {
			env := report.Env{Experiment: e.ID, N: *n, Ops: *ops, Seed: *seed, DurationS: dur.Seconds()}
			path, err := report.WriteBench(".", env, results)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing results: %v\n", e.ID, err)
				os.Exit(1)
			}
			fmt.Printf("[wrote %s]\n", path)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
}
