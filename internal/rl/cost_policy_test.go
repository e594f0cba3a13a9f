package rl

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"chameleon/internal/costmodel"
	"chameleon/internal/dataset"
)

// bruteFanout is CostPolicy.Fanout as it was before bounds and pruning:
// every fanout scored through Env.Step, each child valued by
// costmodel.Leaf, the first strict improvement kept.
func bruteFanout(p *CostPolicy, keys []uint64, lo, hi uint64) int {
	if len(keys) < p.MinSplit {
		return 1
	}
	score := func(f int) float64 {
		reward, children := p.Env.Step(keys, lo, hi, f)
		for _, c := range children {
			leaf := costmodel.Leaf(c.Keys, c.Lo, c.Hi, p.Env.Tau, p.Env.Alpha)
			reward += c.Weight * costmodel.Reward(leaf, p.Env.Wt, p.Env.Wm)
		}
		return reward
	}
	bestF, bestR := 1, score(1)
	for _, f := range p.Fanouts {
		if f == 1 {
			continue
		}
		if r := score(f); r > bestR {
			bestF, bestR = f, r
		}
	}
	return bestF
}

type fanoutInput struct {
	name   string
	keys   []uint64
	lo, hi uint64
}

func fanoutInputs() []fanoutInput {
	var in []fanoutInput
	whole := func(name string, ks []uint64) {
		in = append(in, fanoutInput{name, ks, ks[0], ks[len(ks)-1]})
	}
	rng := rand.New(rand.NewPCG(7, 11))
	random := make([]uint64, 3000)
	for i := range random {
		random[i] = rng.Uint64()
	}
	whole("random", dataset.SortDedup(random))
	for i, g := range dataset.Names {
		whole(g, dataset.Generate(g, 6000, uint64(i+1)))
	}
	// A lower node as the build sees it: one child of a fanout-16 root.
	face := dataset.Generate(dataset.FACE, 40_000, 5)
	lo, hi := face[0], face[len(face)-1]
	for j := 0; j < 16; j += 5 {
		clo, chi := costmodel.ChildInterval(lo, hi, 16, j)
		var ks []uint64
		for _, k := range face {
			if costmodel.ChildIndex(k, lo, hi, 16) == j {
				ks = append(ks, k)
			}
		}
		if len(ks) > 1 {
			in = append(in, fanoutInput{fmt.Sprintf("face-child-%d", j), ks, clo, chi})
		}
	}
	whole("face-large", dataset.Generate(dataset.FACE, 70_000, 3))
	whole("osmc-large", dataset.Generate(dataset.OSMC, 70_000, 4))
	extremes := []uint64{0, 1, 2, 3, 1 << 32, 1 << 63, math.MaxUint64 - 3, math.MaxUint64 - 2, math.MaxUint64 - 1, math.MaxUint64}
	in = append(in,
		fanoutInput{"extremes", extremes, 0, math.MaxUint64},
		fanoutInput{"zero-span", []uint64{7, 7, 7, 7, 7, 7}, 7, 7},
		fanoutInput{"two-keys", []uint64{10, 20}, 10, 20},                // one-key children: fanouts tie on query cost
		fanoutInput{"dense-run", denseRun(4000), 1 << 40, 1<<40 + 3999},  // one key per child from f = 4000
		fanoutInput{"narrow", face[5000:15000], face[7000], face[12000]}, // keys outside [lo, hi]
	)
	return in
}

func denseRun(n int) []uint64 {
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = 1<<40 + uint64(i)
	}
	return ks
}

// TestCostPolicyFanoutMatchesBruteForce is the exactness contract of the
// pruned search: on random, clustered, tied, zero-span and 0/2^64−1 key
// sets, under several environments (including weights the bound does not
// hold for, and all-zero weights where every fanout ties), with the default
// and a custom action space (1 not first, values that are not powers of
// two, a repeat), Fanout returns exactly what scoring every fanout does.
func TestCostPolicyFanoutMatchesBruteForce(t *testing.T) {
	envs := []Env{
		DefaultEnv(),
		{Tau: 0.2, Alpha: 0, Wt: 1, Wm: 0},
		{Tau: 0.7, Alpha: 37, Wt: 0, Wm: 1},
		{Tau: 0.45, Alpha: 131, Wt: 0, Wm: 0},
		{Tau: 0.45, Alpha: 131, Wt: 0.9, Wm: 0.05},
		{Tau: 0.45, Alpha: 131, Wt: 0.5, Wm: -0.2}, // no bound: every fanout scored
		{Tau: 0.45, Alpha: 131, Wt: -1, Wm: 0.5},
	}
	actions := [][]int{
		DefaultFanouts,
		{1024, 3, 1, 100, 7, 2, 100, 1000, 5},
		{2, 3},
		{5000, 8192, 4001, 2}, // on dense-run under w_m = 0, the first three tie
	}
	tie := &CostPolicy{Fanouts: actions[3], Env: envs[1]}
	if f := bruteFanout(tie, denseRun(4000), 1<<40, 1<<40+3999); f != 5000 {
		t.Fatalf("tie case: brute force picks %d, want 5000", f)
	}
	for _, in := range fanoutInputs() {
		for ei, env := range envs {
			for ai, fanouts := range actions {
				p := &CostPolicy{Fanouts: fanouts, MinSplit: 0, Env: env}
				want := bruteFanout(p, in.keys, in.lo, in.hi)
				if got := p.Fanout(in.keys, in.lo, in.hi, 3); got != want {
					t.Errorf("%s env %d actions %d: Fanout %d, brute force %d", in.name, ei, ai, got, want)
				}
			}
		}
	}
}

// TestCostPolicyPrunes pins the bound's power, which exactness alone does
// not: a bound that loses its ½-probe floor still never skips a winner, but
// skips almost nothing. Over a FACE root and each of its children (the
// decisions a bulk load makes first), at most one in 20
// candidates other than fanout 1 may be scored (one of 8,450 is; without
// the floor, 23 % are).
func TestCostPolicyPrunes(t *testing.T) {
	keys := dataset.Generate(dataset.FACE, 400_000, 42)
	p := NewCostPolicy(DefaultEnv())
	sc := p.scratch()
	defer scratchPool.Put(sc)
	lo, hi := keys[0], keys[len(keys)-1]
	f, scored := p.decide(sc, keys, lo, hi)
	nodes := 1
	start := 0
	for j := 0; j < f; j++ {
		end := start
		for end < len(keys) && costmodel.ChildIndex(keys[end], lo, hi, f) == j {
			end++
		}
		if end-start >= p.MinSplit {
			clo, chi := costmodel.ChildInterval(lo, hi, f, j)
			_, s := p.decide(sc, keys[start:end], clo, chi)
			scored += s
			nodes++
		}
		start = end
	}
	candidates := nodes * (len(p.Fanouts) - 1)
	t.Logf("root fanout %d; %d of %d candidates over %d nodes scored", f, scored, candidates, nodes)
	if scored*20 > candidates {
		t.Fatalf("%d of %d candidates scored exactly, want at most one in 20", scored, candidates)
	}
}
