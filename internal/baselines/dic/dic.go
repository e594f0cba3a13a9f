// Package dic implements the DIC baseline: dynamic index construction with
// reinforcement learning. DIC partitions the key space and uses an RL agent
// to pick, per partition, which traditional structure to instantiate —
// Table I lists "BS / Hash" for both inner and leaf nodes. Here a tabular
// Q-learning agent chooses between a binary-searched sorted array and an
// open-addressing hash table for each partition, rewarded by the measured
// probe cost, reproducing DIC's behaviour: hash nodes where the local
// distribution is dense, search nodes where it is sparse. Like RS, DIC is
// static — the paper excludes it from update experiments.
package dic

import (
	"math/rand/v2"
	"sort"

	"chameleon/internal/index"
)

// DefaultPartitions is the number of equal-width key partitions.
const DefaultPartitions = 256

// Actions.
const (
	actBinarySearch = 0
	actHash         = 1
)

// qStates buckets partition density (keys per partition relative to the
// mean) into a small tabular state space.
const qStates = 8

// partition is one built partition: either a sorted array or a hash table.
type partition struct {
	hash bool
	// Sorted-array representation.
	keys, vals []uint64
	// Hash representation (open addressing, power-of-two size).
	hk, hv []uint64
	occ    []bool
	mask   uint64
}

// Index is the DIC structure. Construct with New.
type Index struct {
	parts     []partition
	bounds    []uint64 // partition lower bounds (len = #partitions)
	count     int
	q         [qStates][2]float64
	hashParts int
}

var _ index.Index = (*Index)(nil)

// New creates an empty DIC.
func New() *Index { return &Index{} }

// Name implements index.Index.
func (t *Index) Name() string { return "DIC" }

// Len implements index.Index.
func (t *Index) Len() int { return t.count }

// Insert implements index.Index; DIC is static.
func (t *Index) Insert(k, v uint64) error { return index.ErrReadOnly }

// Delete implements index.Index; DIC is static.
func (t *Index) Delete(k uint64) error { return index.ErrReadOnly }

// BulkLoad implements index.Index: equal-width partitions, then Q-learning
// over (density state → structure choice) with the measured probe cost as
// reward, then a greedy build from the learned policy.
func (t *Index) BulkLoad(keys, vals []uint64) error {
	t.count = len(keys)
	t.parts, t.bounds = nil, nil
	t.q = [qStates][2]float64{}
	t.hashParts = 0
	if len(keys) == 0 {
		return nil
	}
	if vals == nil {
		vals = keys
	}
	P := DefaultPartitions
	if len(keys) < 4*P {
		P = len(keys)/4 + 1
	}
	lo, hi := keys[0], keys[len(keys)-1]
	span := hi - lo
	ranges := make([][2]int, P)
	t.bounds = make([]uint64, P)
	start := 0
	for p := 0; p < P; p++ {
		t.bounds[p] = lo + uint64(float64(span)/float64(P)*float64(p))
		end := start
		var upper uint64 = hi
		if p < P-1 {
			upper = lo + uint64(float64(span)/float64(P)*float64(p+1))
		}
		for end < len(keys) && (p == P-1 || keys[end] < upper) {
			end++
		}
		ranges[p] = [2]int{start, end}
		start = end
	}

	// Q-learning episodes: sample partitions, try actions ε-greedily, and
	// update Q with the measured cost reward.
	mean := float64(len(keys)) / float64(P)
	rng := rand.New(rand.NewPCG(uint64(len(keys)), 0x9e3779b97f4a7c15))
	const episodes = 512
	const alpha, epsGreedy = 0.3, 0.2
	for e := 0; e < episodes; e++ {
		p := rng.IntN(P)
		st := densityState(ranges[p], mean)
		var a int
		if rng.Float64() < epsGreedy {
			a = rng.IntN(2)
		} else {
			a = argmax2(t.q[st])
		}
		r := -measureCost(keys[ranges[p][0]:ranges[p][1]], a)
		t.q[st][a] += alpha * (r - t.q[st][a])
	}

	// Greedy build from the learned policy.
	t.parts = make([]partition, P)
	for p := 0; p < P; p++ {
		ks := keys[ranges[p][0]:ranges[p][1]]
		vs := vals[ranges[p][0]:ranges[p][1]]
		st := densityState(ranges[p], mean)
		if argmax2(t.q[st]) == actHash && len(ks) > 0 {
			t.parts[p] = buildHash(ks, vs)
			t.hashParts++
		} else {
			t.parts[p] = partition{keys: ks, vals: vs}
		}
	}
	return nil
}

func densityState(r [2]int, mean float64) int {
	ratio := float64(r[1]-r[0]) / mean
	s := int(ratio * 2)
	if s >= qStates {
		s = qStates - 1
	}
	return s
}

func argmax2(q [2]float64) int {
	if q[1] > q[0] {
		return 1
	}
	return 0
}

// measureCost estimates the expected probes for one structure choice on the
// partition: log2(n) for binary search, ~1+load for hashing (plus the hash
// table's memory surcharge folded in as a small constant).
func measureCost(ks []uint64, action int) float64 {
	n := len(ks)
	if n == 0 {
		return 0
	}
	if action == actBinarySearch {
		c := 0.0
		for x := n; x > 1; x >>= 1 {
			c++
		}
		return c
	}
	return 1.6 // ~1 probe + hash-memory surcharge at load factor 0.5
}

func buildHash(ks, vs []uint64) partition {
	size := 1
	for size < 2*len(ks) {
		size <<= 1
	}
	p := partition{
		hash: true,
		hk:   make([]uint64, size),
		hv:   make([]uint64, size),
		occ:  make([]bool, size),
		mask: uint64(size - 1),
	}
	for i, k := range ks {
		s := hashKey(k) & p.mask
		for p.occ[s] {
			s = (s + 1) & p.mask
		}
		p.hk[s], p.hv[s], p.occ[s] = k, vs[i], true
	}
	return p
}

func hashKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return k
}

// Lookup implements index.Index.
func (t *Index) Lookup(k uint64) (uint64, bool) {
	if len(t.parts) == 0 {
		return 0, false
	}
	i := sort.Search(len(t.bounds), func(i int) bool { return t.bounds[i] > k })
	if i > 0 {
		i--
	}
	p := &t.parts[i]
	if p.hash {
		s := hashKey(k) & p.mask
		for p.occ[s] {
			if p.hk[s] == k {
				return p.hv[s], true
			}
			s = (s + 1) & p.mask
		}
		return 0, false
	}
	j := sort.Search(len(p.keys), func(j int) bool { return p.keys[j] >= k })
	if j < len(p.keys) && p.keys[j] == k {
		return p.vals[j], true
	}
	return 0, false
}

// Bytes implements index.Index.
func (t *Index) Bytes() int {
	total := 64 + 8*len(t.bounds)
	for i := range t.parts {
		p := &t.parts[i]
		if p.hash {
			total += 17 * len(p.hk)
		} else {
			total += 16 * len(p.keys)
		}
	}
	return total
}
