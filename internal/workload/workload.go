// Package workload generates the operation streams of the paper's
// evaluation (Section VI-A2): read-only point-query workloads, mixed
// workloads with a configurable write fraction and insert/delete split
// (Figs. 11–12), and the batched quarter-wise insert/delete workloads of
// Fig. 13. Streams are deterministic for a seed and are valid against any
// index: deletes always target present keys and inserts always use fresh
// keys.
package workload

import (
	"math"
	"math/rand/v2"

	zipfRand "math/rand"
)

// Kind is an operation type.
type Kind uint8

// Operation kinds.
const (
	Lookup Kind = iota
	Insert
	Delete
)

// Op is one operation in a stream.
type Op struct {
	Kind Kind
	Key  uint64
	Val  uint64
}

// ReadOnly returns n uniform point queries over the loaded keys.
func ReadOnly(keys []uint64, n int, seed uint64) []Op {
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: Lookup, Key: keys[rng.IntN(len(keys))]}
	}
	return ops
}

// FreshKeys derives keys guaranteed absent from base (midpoints of random
// gaps, falling back to past-the-end keys), used as insert payloads.
func FreshKeys(base []uint64, n int, seed uint64) []uint64 {
	rng := rand.New(rand.NewPCG(seed, seed^0xfeedface))
	used := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	var tail uint64
	if len(base) > 0 {
		tail = base[len(base)-1]
	}
	for len(out) < n {
		var k uint64
		if len(base) > 1 && rng.IntN(4) != 0 {
			i := rng.IntN(len(base) - 1)
			lo, hi := base[i], base[i+1]
			if hi-lo > 1 {
				k = lo + 1 + rng.Uint64N(hi-lo-1)
			}
		}
		if k == 0 || used[k] {
			tail += 1 + rng.Uint64N(64)
			k = tail
		}
		if used[k] {
			continue
		}
		used[k] = true
		out = append(out, k)
	}
	return out
}

// MixedConfig controls a mixed stream.
type MixedConfig struct {
	// WriteFrac is #writes / (#reads + #writes), the Fig. 11 x-axis.
	WriteFrac float64
	// InsertFrac is #insertions / (#insertions + #deletions) among the
	// writes, the Fig. 12 x-axis. 0.5 alternates like the paper's
	// "1 insertion and 1 deletion" cycles.
	InsertFrac float64
	// Ops is the stream length.
	Ops int
	// Seed makes the stream deterministic.
	Seed uint64
}

// Mixed builds a stream against an index currently holding exactly base.
// Reads and deletes target live keys; inserts use fresh keys. When deletes
// outpace inserts and the live set would drain, excess deletes degrade to
// reads (and the paper's ratios never reach that point at the evaluated
// scales).
func Mixed(base []uint64, cfg MixedConfig) []Op {
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x12345678))
	live := append([]uint64(nil), base...)
	freshNeeded := int(float64(cfg.Ops)*cfg.WriteFrac*cfg.InsertFrac) + 16
	fresh := FreshKeys(base, freshNeeded, cfg.Seed^0x55aa)
	nextFresh := 0
	ops := make([]Op, 0, cfg.Ops)
	for len(ops) < cfg.Ops {
		isWrite := rng.Float64() < cfg.WriteFrac
		switch {
		case isWrite && rng.Float64() < cfg.InsertFrac && nextFresh < len(fresh):
			k := fresh[nextFresh]
			nextFresh++
			live = append(live, k)
			ops = append(ops, Op{Kind: Insert, Key: k, Val: k})
		case isWrite && len(live) > 1:
			i := rng.IntN(len(live))
			k := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			ops = append(ops, Op{Kind: Delete, Key: k})
		default:
			ops = append(ops, Op{Kind: Lookup, Key: live[rng.IntN(len(live))]})
		}
	}
	return ops
}

// Batch is one phase of the Fig. 13 batched workload.
type Batch struct {
	Writes  []Op // the quarter's inserts or deletes
	Queries []Op // point queries executed after the batch
}

// Batched builds the Fig. 13 schedule over the full key set: per the paper,
// 1/4 of the keys are inserted, then point queries execute, repeated until
// all keys are in; then 1/4 are deleted per round with queries in between.
// parts is the number of rounds per direction (the paper uses 4).
func Batched(keys []uint64, parts, queriesPer int, seed uint64) []Batch {
	if parts < 1 {
		parts = 4
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x87654321))
	var batches []Batch
	per := (len(keys) + parts - 1) / parts
	// Shuffled insert order exercises model drift; queries target what is
	// present so far.
	order := rng.Perm(len(keys))
	present := make([]uint64, 0, len(keys))
	for p := 0; p < parts; p++ {
		start, end := p*per, (p+1)*per
		if end > len(keys) {
			end = len(keys)
		}
		var b Batch
		for _, i := range order[start:end] {
			b.Writes = append(b.Writes, Op{Kind: Insert, Key: keys[i], Val: keys[i]})
			present = append(present, keys[i])
		}
		for q := 0; q < queriesPer; q++ {
			b.Queries = append(b.Queries, Op{Kind: Lookup, Key: present[rng.IntN(len(present))]})
		}
		batches = append(batches, b)
	}
	// Deletion rounds.
	for p := 0; p < parts; p++ {
		var b Batch
		for i := 0; i < per && len(present) > 0; i++ {
			j := rng.IntN(len(present))
			k := present[j]
			present[j] = present[len(present)-1]
			present = present[:len(present)-1]
			b.Writes = append(b.Writes, Op{Kind: Delete, Key: k})
		}
		for q := 0; q < queriesPer && len(present) > 0; q++ {
			b.Queries = append(b.Queries, Op{Kind: Lookup, Key: present[rng.IntN(len(present))]})
		}
		batches = append(batches, b)
	}
	return batches
}

// ZipfReads returns n point queries whose target ranks follow a Zipf
// distribution with exponent s > 1 (hot head at the low ranks), the access
// pattern for which the query-distribution-aware reward extension
// (the weights of costmodel.Counters.TreeCost) optimizes.
func ZipfReads(keys []uint64, n int, s float64, seed uint64) []Op {
	if s <= 1 {
		s = 1.2
	}
	zr := zipfRand.New(zipfRand.NewSource(int64(seed)))
	z := zipfRand.NewZipf(zr, s, 1, uint64(len(keys)-1))
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: Lookup, Key: keys[z.Uint64()]}
	}
	return ops
}

// ZipfWeights returns per-key query weights matching ZipfReads' marginal
// distribution: weight[r] ∝ 1/(r+1)^s.
func ZipfWeights(n int, s float64) []float64 {
	if s <= 1 {
		s = 1.2
	}
	w := make([]float64, n)
	for r := range w {
		w[r] = 1 / powF(float64(r+1), s)
	}
	return w
}

func powF(x, y float64) float64 { return math.Pow(x, y) }
