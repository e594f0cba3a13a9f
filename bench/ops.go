package main

import (
	"fmt"

	"chameleon/internal/dataset"
)

// The op stream. Every workload draws from one stream that is a pure function
// of (seed, op index): any process — load generator, embedded worker,
// verifier, layer probe — rebuilds it from the seed alone and agrees on what
// op i is, what key it touches and what reply is correct. The program under
// test only ever sees the generated keys.
//
// Layout of the key space:
//   - loaded keys: dataset FACE (the paper's most locally skewed set), bulk
//     loaded before the run, value key^valueSalt.
//   - a reserved pool of loaded keys (every poolStride-th rank) that only the
//     first `lag` deletes touch and no GET ever reads, so a GET of a loaded
//     key is always a hit.
//   - fresh keys: insert ordinal k takes the k-th fresh key, a midpoint of a
//     loaded gap (inserts follow the data distribution). Delete ordinal
//     d >= lag removes the key insert ordinal d-lag added, so deletes always
//     target live keys and the live size stays near the loaded size when the
//     mix is balanced.
const (
	loadedKeys = 2_000_000
	valueSalt  = 0x9e3779b97f4a7c15

	// period is the length of the seed-shuffled pattern of op kinds; fixing
	// the kind by slot makes "how many inserts precede op i" an O(1) function.
	period = 100
	// deleteLag is how many inserts a fresh key survives before its delete.
	// It is far larger than the ops in flight (128), so a delete never races
	// the insert it undoes.
	deleteLag = 16384
	// minGap is the smallest loaded gap that takes fresh keys: it holds
	// maxRounds distinct points gap>>1, gap>>2, ... above its lower key.
	minGap    = 64
	maxRounds = 5
	// A RANGE asks for rangeLen pairs of [lo, hi], where hi is rangeSpan
	// loaded ranks above lo: enough that rangeLen live keys are in between
	// whatever was deleted, and bounded as a paging client's scan is (the
	// tiered engine captures its whole memtable slice of [lo, hi] per scan).
	rangeLen  = 100
	rangeSpan = 128
)

type opKind uint8

const (
	opGet opKind = iota
	opInsert
	opDelete
	opRange
	numKinds
	// opExhausted is returned once the insert ordinals outrun the fresh keys
	// (maxRounds per usable gap); the run is then reported as failed.
	opExhausted
)

func (k opKind) String() string {
	return [...]string{"get", "insert", "delete", "range", "", "exhausted"}[k]
}

// mix is the share of each op kind out of period.
type mix [numKinds]int

type op struct {
	kind opKind
	key  uint64
	// hi is a RANGE's upper bound; key is its lower one.
	hi uint64
	// present is, for a GET, whether the key must be found.
	present bool
}

// pattern fixes which kind of op each index of a stream is: a seed-shuffled
// cycle of `period` slots, so the number of ops of a kind before index i is an
// O(1) function of i.
type pattern struct {
	slots  [period]opKind
	before [period][numKinds]uint64 // ops of each kind in slots [0, slot)
	per    [numKinds]uint64         // ops of each kind per period
}

func newPattern(seed uint64, m mix) (pattern, error) {
	var p pattern
	total := 0
	for _, share := range m {
		total += share
	}
	if total != period || m[opInsert] < m[opDelete] {
		return p, fmt.Errorf("op mix %v: shares must sum to %d with inserts >= deletes", m, period)
	}
	slot := 0
	for kind, share := range m {
		for j := 0; j < share; j++ {
			p.slots[slot] = opKind(kind)
			slot++
		}
	}
	for i := period - 1; i > 0; i-- {
		j := mix64(seed^uint64(i)<<32) % uint64(i+1)
		p.slots[i], p.slots[j] = p.slots[j], p.slots[i]
	}
	var seen [numKinds]uint64
	for i, kind := range p.slots {
		p.before[i] = seen
		seen[kind]++
	}
	p.per = seen
	return p, nil
}

// count is the number of ops of kind with index < i.
func (p *pattern) count(kind opKind, i uint64) uint64 {
	return i/period*p.per[kind] + p.before[i%period][kind]
}

// writes is the number of inserts and deletes with index in [from, to).
func (p *pattern) writes(from, to uint64) uint64 {
	return p.count(opInsert, to) + p.count(opDelete, to) - p.count(opInsert, from) - p.count(opDelete, from)
}

type stream struct {
	pattern
	seed uint64
	keys []uint64 // bulk-loaded keys, ascending
	gaps []uint32 // ranks g with keys[g+1]-keys[g] >= minGap
	// step is coprime to len(gaps): consecutive insert ordinals land in gaps
	// spread over the whole key space.
	step       uint64
	lag        uint64
	margin     uint64 // ordinals either side of "now" whose fate a concurrent GET cannot know
	poolStride uint64
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// newStream generates the dataset for seed and lays out the op pattern.
func newStream(seed uint64, n int, m mix) (*stream, error) {
	p, err := newPattern(seed, m)
	if err != nil {
		return nil, err
	}
	s := &stream{pattern: p, seed: seed, keys: dataset.Generate(dataset.FACE, n, seed)}
	for g := 0; g+1 < len(s.keys); g++ {
		if s.keys[g+1]-s.keys[g] >= minGap {
			s.gaps = append(s.gaps, uint32(g))
		}
	}
	s.lag = deleteLag
	if uint64(n) < 8*deleteLag {
		s.lag = uint64(n) / 8
	}
	s.margin = s.lag / 4
	if len(s.gaps) == 0 || s.lag == 0 {
		return nil, fmt.Errorf("dataset of %d keys has no room for fresh keys", n)
	}
	s.poolStride = uint64(n) / s.lag
	g := uint64(len(s.gaps))
	s.step = mix64(seed)%g | 1
	for gcd(s.step, g) != 1 {
		s.step += 2
	}
	return s, nil
}

// values is the value bulk-loaded with each key, in key order.
func (s *stream) values() []uint64 {
	vals := make([]uint64, len(s.keys))
	for i, k := range s.keys {
		vals[i] = k ^ valueSalt
	}
	return vals
}

// fresh is the key insert ordinal k adds; ok is false once the fresh keys
// are exhausted.
func (s *stream) fresh(k uint64) (key uint64, ok bool) {
	g := uint64(len(s.gaps))
	round := k / g
	if round >= maxRounds {
		return 0, false
	}
	rank := s.gaps[k%g*s.step%g] // both factors < 2^32: no overflow
	lo, hi := s.keys[rank], s.keys[rank+1]
	return lo + (hi-lo)>>(round+1), true
}

// deleted is the key delete ordinal d removes.
func (s *stream) deleted(d uint64) uint64 {
	if d < s.lag {
		return s.keys[d*s.poolStride]
	}
	key, _ := s.fresh(d - s.lag) // an insert ordinal below the current one: never exhausted
	return key
}

// stableRank picks the rank of a loaded key no delete ever targets, with at
// least above loaded ranks over it.
func (s *stream) stableRank(h uint64, above uint64) uint64 {
	r := h % (uint64(len(s.keys)) - above - 1)
	if r%s.poolStride == 0 && r/s.poolStride < s.lag {
		r++
	}
	return r
}

// stable picks a loaded key no delete ever targets.
func (s *stream) stable(h uint64) uint64 { return s.keys[s.stableRank(h, 0)] }

// at is op i of the stream.
func (s *stream) at(i uint64) op {
	kind := s.slots[i%period]
	h := mix64(s.seed ^ mix64(i))
	switch kind {
	case opInsert:
		key, ok := s.fresh(s.count(opInsert, i))
		if !ok {
			return op{kind: opExhausted}
		}
		return op{kind: opInsert, key: key}
	case opDelete:
		return op{kind: opDelete, key: s.deleted(s.count(opDelete, i))}
	case opRange:
		r := s.stableRank(h, rangeSpan)
		return op{kind: opRange, key: s.keys[r], hi: s.keys[r+rangeSpan]}
	}
	// One GET in 32 reads a fresh key whose insert was acknowledged at least
	// margin inserts ago (it must be there), one in 32 a key whose delete was
	// (it must be gone); the rest read loaded keys uniformly.
	ins, del := s.count(opInsert, i), s.count(opDelete, i)
	switch h & 31 {
	case 0:
		var lo uint64
		if del+s.margin > s.lag {
			lo = del + s.margin - s.lag
		}
		if ins > lo+s.margin {
			key, _ := s.fresh(lo + (h>>5)%(ins-s.margin-lo))
			return op{kind: opGet, key: key, present: true}
		}
	case 1:
		if del > s.margin {
			return op{kind: opGet, key: s.deleted((h >> 5) % (del - s.margin))}
		}
	}
	return op{kind: opGet, key: s.stable(h >> 5), present: true}
}
