// Package ga implements the genetic algorithm of Algorithm 1
// ("GetOptimizedParameters"), the actor half of the DARE agent. A genome is
// the flat parameter vector [p0, M(0,0..L−1), M(1,0..L−1), ...] — one
// chromosome per value, exactly as the paper describes ("we can intuitively
// treat each value as a chromosome"). Fitness is supplied by the caller:
// the paper's DARE uses its critic Q_D(s_D, a_D), rl.CostDARE the cost
// model the critic approximates.
//
// Each generation's newcomers are scored concurrently through the shared
// internal/par pool, so Fitness may run on several goroutines at once and
// must be safe for that. Every random draw happens before scoring starts,
// so the search, and the genome it returns, do not depend on the worker
// count.
package ga

import (
	"math/rand/v2"

	"chameleon/internal/par"
)

// Bound is the inclusive value range of one chromosome.
type Bound struct{ Lo, Hi float64 }

// Fitness scores a genome; Optimize maximizes it.
type Fitness func(genome []float64) float64

const (
	mutProb  = 0.2 // per-chromosome probability of a slight mutation
	mutScale = 0.1 // slight-mutation magnitude relative to the bound span
)

// Config controls the search. Zero fields take the defaults in Defaults.
type Config struct {
	Pop         int // X in Algorithm 1: survivors per generation
	Generations int // K in Algorithm 1: iteration budget
	Patience    int // generations without improvement before "converged"
	Seed        uint64
	Workers     int // goroutines scoring a generation: 0 = one per CPU, 1 = serial
}

// Defaults fills unset Config fields with workable values.
func (c Config) Defaults() Config {
	if c.Pop <= 0 {
		c.Pop = 24
	}
	if c.Generations <= 0 {
		c.Generations = 30
	}
	if c.Patience <= 0 {
		c.Patience = 5
	}
	return c
}

type individual struct {
	genome []float64
	score  float64
}

// Optimize runs Algorithm 1: per generation it injects X random individuals
// (the first mutation kind — "entirely new genotypes"), slight mutations of
// existing members (the second kind), multi-point and numeric crossovers,
// then evaluates, sorts, and keeps the top X. It returns the best genome
// found and its fitness.
func Optimize(cfg Config, bounds []Bound, fit Fitness) ([]float64, float64) {
	cfg = cfg.Defaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x5851f42d4c957f2d))
	dim := len(bounds)
	if dim == 0 {
		return nil, fit(nil)
	}

	random := func() []float64 {
		g := make([]float64, dim)
		for i, b := range bounds {
			g[i] = b.Lo + rng.Float64()*(b.Hi-b.Lo)
		}
		return g
	}
	clampAt := func(i int, v float64) float64 {
		if v < bounds[i].Lo {
			return bounds[i].Lo
		}
		if v > bounds[i].Hi {
			return bounds[i].Hi
		}
		return v
	}

	workers := par.Workers(cfg.Workers)
	score := func(inds []individual) {
		par.Do(len(inds), workers, func(i int) { inds[i].score = fit(inds[i].genome) })
	}

	pop := make([]individual, 0, 5*cfg.Pop)
	for i := 0; i < cfg.Pop; i++ {
		pop = append(pop, individual{genome: random()})
	}
	score(pop)
	sortPop(pop)

	best := pop[0]
	stale := 0
	for gen := 0; gen < cfg.Generations && stale < cfg.Patience; gen++ {
		next := pop[:cfg.Pop:cfg.Pop]

		// Mutation kind 1: fresh random genotypes keep exploration alive.
		for i := 0; i < cfg.Pop/2+1; i++ {
			next = append(next, individual{genome: random()})
		}
		// Mutation kind 2: slight perturbations of existing good genes.
		for i := 0; i < cfg.Pop; i++ {
			src := pop[rng.IntN(len(pop))].genome
			g := append([]float64(nil), src...)
			for j := range g {
				if rng.Float64() < mutProb {
					span := bounds[j].Hi - bounds[j].Lo
					g[j] = clampAt(j, g[j]+(rng.Float64()*2-1)*mutScale*span)
				}
			}
			next = append(next, individual{genome: g})
		}
		// Crossover kind 1: multi-point — each chromosome from either parent.
		// Crossover kind 2: numeric — blend within the same chromosome.
		for i := 0; i < cfg.Pop; i++ {
			a := pop[rng.IntN(len(pop))].genome
			b := pop[rng.IntN(len(pop))].genome
			g := make([]float64, dim)
			numeric := rng.Float64() < 0.5
			for j := range g {
				switch {
				case numeric:
					t := rng.Float64()
					g[j] = clampAt(j, t*a[j]+(1-t)*b[j])
				case rng.Float64() < 0.5:
					g[j] = a[j]
				default:
					g[j] = b[j]
				}
			}
			next = append(next, individual{genome: g})
		}

		// Evaluate the newcomers (survivors keep their cached score).
		score(next[cfg.Pop:])
		sortPop(next)
		pop = next[:cfg.Pop]

		if pop[0].score > best.score {
			best = individual{append([]float64(nil), pop[0].genome...), pop[0].score}
			stale = 0
		} else {
			stale++
		}
	}
	return best.genome, best.score
}

// sortPop orders individuals by descending score, ties in index order
// (insertion sort: the populations are tiny).
func sortPop(pop []individual) {
	for i := 1; i < len(pop); i++ {
		x := pop[i]
		j := i - 1
		for j >= 0 && pop[j].score < x.score {
			pop[j+1] = pop[j]
			j--
		}
		pop[j+1] = x
	}
}
