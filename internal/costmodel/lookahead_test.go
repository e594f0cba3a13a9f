package costmodel

import (
	"math"
	"testing"

	"chameleon/internal/dataset"
	"chameleon/internal/ebh"
)

// refCapacityFor, refLeafCost and refWeightedLeafCost are Theorem 1's
// sizing and the leaf simulations as they were before the leaf model (a
// float probe sum, τ's log taken per leaf), kept verbatim as the reference
// the model must reproduce bit for bit.
func refCapacityFor(n int, tau float64) int {
	if n <= 1 {
		return 1
	}
	if tau <= 0 || tau >= 1 {
		tau = ebh.DefaultTau
	}
	c := int(math.Ceil(float64(n-1) / -math.Log(1-tau)))
	if c < n {
		c = n
	}
	return c
}

func refLeafCost(keys []uint64, lo, hi uint64, tau, alpha float64) Cost {
	n := len(keys)
	if n == 0 {
		return Cost{Query: 1, Memory: 0}
	}
	if alpha == 0 {
		alpha = ebh.DefaultAlpha
	}
	if tau <= 0 || tau >= 1 {
		tau = ebh.DefaultTau
	}
	c := refCapacityFor(n, tau)
	if c < 8 {
		c = 8
	}
	span := hi - lo
	counts := make([]int32, c)
	cf := float64(c)
	invC := 1 / cf
	var scale float64
	if span > 0 {
		scale = alpha * cf / float64(span)
	}
	var probeSum float64
	for _, k := range keys {
		var home int
		if span > 0 {
			x := scale * float64(k-lo)
			x -= math.Trunc(x*invC) * cf
			home = int(x)
			if home >= c {
				home = c - 1
			}
			if home < 0 {
				home = 0
			}
		}
		probeSum += float64(counts[home]+1) / 2
		counts[home]++
	}
	return Cost{
		Query:  1 + probeSum/float64(n) + CacheFactor*math.Log2(float64(c)),
		Memory: float64(c) / float64(n),
	}
}

func refWeightedLeafCost(keys []uint64, weights []float64, lo, hi uint64, tau, alpha float64) Cost {
	n := len(keys)
	if n == 0 {
		return Cost{Query: 1, Memory: 0}
	}
	base := refLeafCost(keys, lo, hi, tau, alpha)
	if weights == nil {
		return base
	}
	c := max(refCapacityFor(n, tau), 8)
	span := hi - lo
	cf := float64(c)
	invC := 1 / cf
	var scale float64
	if span > 0 {
		if alpha == 0 {
			alpha = 131
		}
		scale = alpha * cf / float64(span)
	}
	counts := make([]int32, c)
	var probeSum, wSum float64
	for i, k := range keys {
		var home int
		if span > 0 {
			x := scale * float64(k-lo)
			x -= math.Trunc(x*invC) * cf
			home = int(x)
			if home >= c {
				home = c - 1
			}
			if home < 0 {
				home = 0
			}
		}
		probeSum += weights[i] * float64(counts[home]+1) / 2
		counts[home]++
		wSum += weights[i]
	}
	if wSum == 0 {
		return base
	}
	return Cost{
		Query:  1 + probeSum/wSum + CacheFactor*math.Log2(cf),
		Memory: base.Memory,
	}
}

// weightedLeafCost is one leaf's leafModel.weightedCost under its own τ and
// α, with a caller-owned slot buffer: the form the leaf-level tests call.
func weightedLeafCost(keys []uint64, weights []float64, lo, hi uint64, tau, alpha float64, buf *[]int32) Cost {
	m := newLeafModel(tau, alpha)
	m.counts = *buf
	return m.weightedCost(keys, weights, lo, hi)
}

// refEnv, refStep and refScore are rl.Env.Step and CostPolicy's score as
// they were before the lookahead streamed its children: a Partition, a
// child slice, and a fresh slot table per child.
type refEnv struct{ tau, alpha, wt, wm float64 }

type refChild struct {
	keys   []uint64
	lo, hi uint64
	weight float64
}

func (e refEnv) step(keys []uint64, lo, hi uint64, fanout int) (reward float64, children []refChild) {
	if fanout <= 1 || len(keys) <= 1 {
		c := refLeafCost(keys, lo, hi, e.tau, e.alpha)
		return Reward(c, e.wt, e.wm), nil
	}
	n := float64(len(keys))
	reward = Reward(Cost{Query: 1, Memory: float64(fanout) / n}, e.wt, e.wm)
	parts := Partition(keys, lo, hi, fanout)
	for j, p := range parts {
		if p[1] == p[0] {
			continue
		}
		clo, chi := ChildInterval(lo, hi, fanout, j)
		children = append(children, refChild{
			keys:   keys[p[0]:p[1]],
			lo:     clo,
			hi:     chi,
			weight: float64(p[1]-p[0]) / n,
		})
	}
	return reward, children
}

func (e refEnv) score(keys []uint64, lo, hi uint64, f int) float64 {
	reward, children := e.step(keys, lo, hi, f)
	for _, c := range children {
		leaf := refLeafCost(c.keys, c.lo, c.hi, e.tau, e.alpha)
		reward += c.weight * Reward(leaf, e.wt, e.wm)
	}
	return reward
}

type lookaheadInput struct {
	name   string
	keys   []uint64
	lo, hi uint64
}

func lookaheadInputs() []lookaheadInput {
	var inputs []lookaheadInput
	for i, name := range dataset.Names {
		ks := dataset.Generate(name, 8_000, uint64(i+1))
		inputs = append(inputs, lookaheadInput{name, ks, ks[0], ks[len(ks)-1]})
	}
	ks := dataset.Generate(dataset.FACE, 4_000, 9)
	dense := make([]uint64, 3_000)
	for i := range dense {
		dense[i] = 1<<40 + uint64(i)
	}
	return append(inputs,
		lookaheadInput{"zero-span", []uint64{7, 7, 7, 7}, 7, 7},
		lookaheadInput{"one-key", []uint64{42}, 42, 42},
		lookaheadInput{"one-key-wide", []uint64{42}, 0, math.MaxUint64},
		lookaheadInput{"two-keys", []uint64{10, 20}, 10, 20},
		lookaheadInput{"extremes", []uint64{0, 1, 2, 1 << 32, 1 << 63, math.MaxUint64 - 2, math.MaxUint64 - 1, math.MaxUint64}, 0, math.MaxUint64},
		lookaheadInput{"dense-run", dense, dense[0], dense[len(dense)-1]},
		lookaheadInput{"narrow", ks, ks[len(ks)/3], ks[2*len(ks)/3]},
		lookaheadInput{"boundaries", boundaryKeys(0, math.MaxUint64, 1000), 0, math.MaxUint64},
	)
}

// TestLeafModelMatchesReference: Leaf and the weighted leaf return the
// reference's float64 bits on every generator, on the edge key sets, for
// several τ and α (defaults included) and for every prefix length up to 40
// keys, where the one-key path and the smallest capacities live.
func TestLeafModelMatchesReference(t *testing.T) {
	params := [][2]float64{{0.45, 131}, {0, 0}, {0.2, 7}, {0.9, 1000}, {1.5, 131}}
	for _, in := range lookaheadInputs() {
		ws := weightsFor(in.keys, 3)
		for _, pa := range params {
			tau, alpha := pa[0], pa[1]
			for _, n := range []int{0, 1, 2, 3, 17, 40, len(in.keys)} {
				n = min(n, len(in.keys))
				ks := in.keys[:n]
				if got, want := Leaf(ks, in.lo, in.hi, tau, alpha), refLeafCost(ks, in.lo, in.hi, tau, alpha); !sameBits(got, want) {
					t.Fatalf("%s τ %v α %v, %d keys: Leaf %+v, reference %+v", in.name, tau, alpha, n, got, want)
				}
				var buf []int32
				got := weightedLeafCost(ks, ws[:n], in.lo, in.hi, tau, alpha, &buf)
				if want := refWeightedLeafCost(ks, ws[:n], in.lo, in.hi, tau, alpha); !sameBits(got, want) {
					t.Fatalf("%s τ %v α %v, %d keys: weighted leaf %+v, reference %+v", in.name, tau, alpha, n, got, want)
				}
			}
		}
	}
}

// TestLookaheadMatchesStepScore is the bit-identity contract of the
// streaming scorer: for every fanout, environment and key set, Score
// returns the float64 bits the Step-and-Leaf scoring returned, one
// Lookahead (and one slot buffer) serving all of them. Where w_t, w_m ≥ 0,
// Bound is at least Score.
func TestLookaheadMatchesStepScore(t *testing.T) {
	envs := []refEnv{
		{0.45, 131, 0.5, 0.5},
		{0, 0, 1, 0},
		{0.2, 37, 0, 1},
		{0.45, 131, 0.9, 0.05},
		{0.45, 131, 0.5, -0.2},
	}
	fanouts := []int{0, 1, 2, 3, 7, 64, 999, 1000, 1024, 1 << 20}
	var l Lookahead
	for _, in := range lookaheadInputs() {
		for ei, e := range envs {
			l.Reset(e.tau, e.alpha, e.wt, e.wm)
			for _, f := range fanouts {
				got, want := l.Score(in.keys, in.lo, in.hi, f), e.score(in.keys, in.lo, in.hi, f)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s env %d f %d: Score %v, reference %v", in.name, ei, f, got, want)
				}
				if f <= 1 || len(in.keys) <= 1 || e.wt < 0 || e.wm < 0 {
					continue
				}
				if b := l.Bound(in.keys, in.lo, in.hi, f); got > b+1e-12*math.Abs(b) {
					t.Fatalf("%s env %d f %d: Score %v above Bound %v", in.name, ei, f, got, b)
				}
			}
		}
	}
}

// TestDeepBoundBoundsTreeCost checks that RootSplit.DeepBound is below
// both components of the cost of every tree it bounds: root fanout f over
// the keys, fanout 2^c at every level from 2 to maxLevels, on skewed and
// spread keys, with the split SplitRoot reports matching Partition's. The
// bound can be tight (every deep leaf holds one key), so it may exceed the
// walk's sums by their rounding, a relative 10⁻⁹ here; the search's
// cannotBeat leaves 10⁻⁶.
func TestDeepBoundBoundsTreeCost(t *testing.T) {
	var c Counters
	for _, gen := range []string{dataset.FACE, dataset.LOGN, dataset.UDEN} {
		keys := dataset.Generate(gen, 20_000, 5)
		lo, hi := keys[0], keys[len(keys)-1]
		for _, f := range []int{2, 16, 300, 4096, 1 << 16} {
			split := SplitRoot(keys, lo, hi, f)
			var want RootSplit
			for _, p := range Partition(keys, lo, hi, f) {
				switch m := p[1] - p[0]; {
				case m == 1:
					want.Singles++
				case m > 1:
					want.Multis++
					want.MultiKeys += m
				}
			}
			if split != want {
				t.Fatalf("%s f=%d: SplitRoot %+v, Partition %+v", gen, f, split, want)
			}
			for logG := 1; logG <= 10; logG++ {
				g := 1 << logG
				bound := split.DeepBound(f, g, 0.45, 131)
				for _, maxLevels := range []int{2, 3} {
					cost := c.TreeCost(keys, nil, lo, hi, maxLevels, f, g, 0.45, 131)
					if bound.Query > cost.Query*(1+1e-9) || bound.Memory > cost.Memory*(1+1e-9) {
						t.Fatalf("%s f=%d g=%d maxLevels=%d: bound %+v above cost %+v", gen, f, g, maxLevels, bound, cost)
					}
				}
			}
		}
	}
}
