// Command chameleon-train runs Algorithm 2 ("Train Chameleon"): it trains
// the TSMDP and DARE agents over randomized synthetic datasets and saves
// them to -out. A program uses them by passing chameleon.LoadAgents' result
// as Options.UseTrainedAgents (README, "Training the RL agents"). The paper
// trains on a GPU; this pure-Go run is laptop scale — the
// deterministic cost-model policies remain the reproducible default, and
// trained agents are the paper-faithful alternative.
//
// Usage:
//
//	chameleon-train -out ./agents -episodes 8 -dataset-size 50000
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"chameleon/internal/core"
	"chameleon/internal/dataset"
	"chameleon/internal/rl"
)

func main() {
	var (
		out      = flag.String("out", "agents", "output directory for tsmdp.gob / dare.gob")
		episodes = flag.Int("episodes", 4, "episodes per exploration-rate step (K)")
		dsSize   = flag.Int("dataset-size", 50_000, "keys per training dataset")
		epsilon  = flag.Float64("epsilon", 0.2, "exploration termination probability ε")
		height   = flag.Int("height", 3, "index height h the DARE critic is shaped for")
		bt       = flag.Int("bt", 64, "TSMDP PDF bucket size b_T (paper: 256)")
		bd       = flag.Int("bd", 256, "DARE PDF bucket size b_D (paper: 16384)")
		l        = flag.Int("l", 64, "DARE parameter-matrix width L (paper: 256)")
		seed     = flag.Uint64("seed", 7, "training seed")
		verbose  = flag.Bool("v", false, "log per-episode progress")
		eval     = flag.Bool("eval", false, "evaluate the trained agents on a held-out dataset")
	)
	flag.Parse()

	cfg := rl.DefaultTrainConfig()
	cfg.EpisodesPer = *episodes
	cfg.DatasetSize = *dsSize
	cfg.Epsilon = *epsilon
	cfg.Height = *height
	cfg.Seed = *seed
	cfg.TSMDP.Env.BT = *bt
	cfg.DARE.BD = *bd
	cfg.DARE.L = *l
	if *verbose {
		cfg.Log = os.Stderr
	}

	fmt.Printf("training: K=%d episodes/step, |D|=%d, ε=%.3f, h=%d, b_T=%d, b_D=%d, L=%d\n",
		*episodes, *dsSize, *epsilon, *height, *bt, *bd, *l)
	start := time.Now()
	ts, da := rl.Train(cfg)
	fmt.Printf("trained in %.1fs\n", time.Since(start).Seconds())

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	tsPath := filepath.Join(*out, "tsmdp.gob")
	daPath := filepath.Join(*out, "dare.gob")
	if err := rl.SaveTSMDP(ts, tsPath); err != nil {
		fatal(err)
	}
	if err := rl.SaveDARE(da, daPath); err != nil {
		fatal(err)
	}
	fmt.Printf("saved %s and %s\n", tsPath, daPath)

	if *eval {
		evaluate(ts, da)
	}
}

// evaluate builds a held-out skewed dataset with the trained agents and with
// the deterministic cost-model policies, and compares the realized
// structures under the analytic cost model — a quick sanity check that
// training produced usable agents.
func evaluate(ts *rl.TSMDP, da *rl.DARE) {
	keys := dataset.Generate(dataset.FACE, 100_000, 999) // held-out seed
	env := rl.DefaultEnv()

	score := func(name string, dare rl.DAREPolicy, policy rl.FanoutPolicy) {
		ix := core.New(core.Config{Name: name, Dare: dare, Policy: policy})
		start := time.Now()
		if err := ix.BulkLoad(keys, nil); err != nil {
			fatal(err)
		}
		s := ix.Stats()
		fmt.Printf("  %-12s build %6.0fms  height %d  avgErr %.3f  nodes %d  %.1f B/key\n",
			name, float64(time.Since(start).Microseconds())/1000,
			s.MaxHeight, s.AvgError, s.Nodes, float64(ix.Bytes())/float64(ix.Len()))
	}
	fmt.Println("held-out evaluation (FACE, 100k keys):")
	score("trained", da, ts)
	score("cost-model", rl.NewCostDARE(rl.DefaultDAREConfig()), rl.NewCostPolicy(env))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chameleon-train:", err)
	os.Exit(1)
}
