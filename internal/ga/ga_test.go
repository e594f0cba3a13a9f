package ga

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestOptimizeQuadratic(t *testing.T) {
	// Maximize −Σ(x_i − target_i)²; optimum is the target vector.
	target := []float64{3, -2, 7, 0.5}
	bounds := make([]Bound, len(target))
	for i := range bounds {
		bounds[i] = Bound{-10, 10}
	}
	fit := func(g []float64) float64 {
		s := 0.0
		for i, v := range g {
			d := v - target[i]
			s -= d * d
		}
		return s
	}
	g, score := Optimize(Config{Seed: 1, Generations: 120, Patience: 40}, bounds, fit)
	if score < -0.5 {
		t.Fatalf("score %.4f too far from optimum 0 (genome %v)", score, g)
	}
	for i, v := range g {
		if math.Abs(v-target[i]) > 0.5 {
			t.Fatalf("gene %d = %.3f, want ≈ %.3f", i, v, target[i])
		}
	}
}

func TestRespectsBounds(t *testing.T) {
	bounds := []Bound{{0, 1}, {100, 200}, {-5, -1}}
	fit := func(g []float64) float64 { return g[0] + g[1] + g[2] } // push to Hi
	g, _ := Optimize(Config{Seed: 2}, bounds, fit)
	for i, v := range g {
		if v < bounds[i].Lo-1e-9 || v > bounds[i].Hi+1e-9 {
			t.Fatalf("gene %d = %v escaped bounds %v", i, v, bounds[i])
		}
	}
	// With a monotone fitness the optimum is the upper corner.
	if g[1] < 195 {
		t.Fatalf("gene 1 = %v, want near 200", g[1])
	}
}

func TestImprovesOverRandom(t *testing.T) {
	// Property from DESIGN.md: the returned fitness is at least the best of
	// a purely random population of the same budget (GA must not lose to
	// its own initialization).
	fit := func(g []float64) float64 {
		s := 0.0
		for _, v := range g {
			s -= math.Abs(v - 1.234)
		}
		return s
	}
	check := func(seed uint64) bool {
		bounds := []Bound{{-10, 10}, {-10, 10}}
		_, best := Optimize(Config{Seed: seed, Pop: 10, Generations: 20}, bounds, fit)
		// The first generation alone contains 10 random individuals, so the
		// result must beat a typical random draw by a wide margin.
		return best > fit([]float64{-10, 10})
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	bounds := []Bound{{-1, 1}, {-1, 1}}
	fit := func(g []float64) float64 { return -(g[0]*g[0] + g[1]*g[1]) }
	a, sa := Optimize(Config{Seed: 9}, bounds, fit)
	b, sb := Optimize(Config{Seed: 9}, bounds, fit)
	if sa != sb || a[0] != b[0] || a[1] != b[1] {
		t.Fatal("same seed produced different optimization results")
	}
}

// TestWorkersDoNotChangeTheSearch: scoring in parallel must return the same
// genome and score as the serial search, and Workers: 1 must never call the
// fitness function concurrently.
func TestWorkersDoNotChangeTheSearch(t *testing.T) {
	bounds := []Bound{{0, 20}, {0, 10}, {0, 10}, {0, 10}}
	var inFlight, peak atomic.Int32
	fit := func(g []float64) float64 {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		s := 0.0
		for i, v := range g {
			s -= math.Abs(math.Sin(v*float64(i+1)) - 0.3)
		}
		return s
	}
	serial, ss := Optimize(Config{Seed: 5, Workers: 1}, bounds, fit)
	if p := peak.Load(); p != 1 {
		t.Fatalf("Workers: 1 ran %d fitness calls at once", p)
	}
	for _, w := range []int{0, 2, 8} {
		g, s := Optimize(Config{Seed: 5, Workers: w}, bounds, fit)
		if s != ss || !slices.Equal(g, serial) {
			t.Fatalf("Workers %d: %v (%v), serial %v (%v)", w, g, s, serial, ss)
		}
	}
}

func TestEmptyGenome(t *testing.T) {
	g, score := Optimize(Config{Seed: 1}, nil, func([]float64) float64 { return 42 })
	if g != nil || score != 42 {
		t.Fatalf("empty bounds: got %v/%v", g, score)
	}
}
