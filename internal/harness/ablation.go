package harness

import (
	"fmt"
	"strconv"
	"time"

	"chameleon/internal/core"
	"chameleon/internal/dataset"
	"chameleon/internal/report"
	"chameleon/internal/rl"
)

// Ablations quantifies the design choices DESIGN.md calls out:
//
//  1. the Theorem 1 collision target τ trades leaf memory against probe
//     length (Eq. capacity ≈ (n−1)/−ln(1−τ));
//  2. the hash factor α must scatter dense runs — a configured α=1 (pure
//     interpolation) clusters skewed data until an overflowing leaf climbs
//     the α ladder to 4 or 16 (ebh.alphaLadder);
//  3. the Interval Lock costs two atomic operations per crossing, only paid
//     while the retraining goroutine is active.
func Ablations(cfg Config) []*report.Table {
	cfg = cfg.Defaults()
	keys := dataset.Generate(dataset.FACE, cfg.N, cfg.Seed)
	probes := Probes(keys, min(cfg.Ops, 100_000), cfg.Seed^0xab)

	tau := &report.Table{
		Title: fmt.Sprintf("Ablation — EBH collision target τ (FACE, %d keys)", cfg.N),
		Cols:  []string{"tau", "lookup", "bytes/key", "max cd"},
	}
	for _, t := range []float64{0.15, 0.30, 0.45, 0.60, 0.80} {
		ix := core.New(core.Config{Name: "Chameleon", Tau: t, Policy: rl.NewCostPolicy(envWithTau(t))})
		if err := ix.BulkLoad(keys, nil); err != nil {
			panic(err)
		}
		ns, _ := MeasureLookupNs(ix, probes)
		s := ix.Stats()
		tau.AddRow(report.F2(t), report.NsF(ns),
			report.F2(float64(ix.Bytes())/float64(len(keys))), strconv.Itoa(s.MaxError))
	}

	alpha := &report.Table{
		Title: "Ablation — configured hash factor α (FACE): α=1 is pure interpolation until a leaf climbs the α ladder",
		Cols:  []string{"alpha", "lookup", "max cd", "avg err"},
	}
	for _, a := range []float64{1, 7, 131, 1031} {
		// Both policies score with the default α: only the leaves' hash
		// factor varies.
		ix := core.New(core.Config{
			Name: "Chameleon", Alpha: a,
			Dare:   rl.NewCostDARE(rl.DefaultDAREConfig()),
			Policy: rl.NewCostPolicy(rl.DefaultEnv()),
		})
		if err := ix.BulkLoad(keys, nil); err != nil {
			panic(err)
		}
		ns, _ := MeasureLookupNs(ix, probes)
		s := ix.Stats()
		alpha.AddRow(report.F2(a), report.NsF(ns), strconv.Itoa(s.MaxError), report.F2(s.AvgError))
	}

	lock := &report.Table{
		Title: "Ablation — Interval-Lock overhead on the query path",
		Cols:  []string{"mode", "lookup"},
	}
	ix, _ := Build("Chameleon", keys)
	ch := ix.(*core.Index)
	nsOff, _ := MeasureLookupNs(ix, probes)
	ch.StartRetrainer(time.Hour) // arms the locks without retraining work
	nsOn, _ := MeasureLookupNs(ix, probes)
	ch.StopRetrainer()
	lock.AddRow("no retrainer (locks skipped)", report.NsF(nsOff))
	lock.AddRow("retrainer armed (CAS per gate)", report.NsF(nsOn))

	return []*report.Table{tau, alpha, lock}
}

func envWithTau(tau float64) rl.Env {
	env := rl.DefaultEnv()
	env.Tau = tau
	return env
}
