// Package ebh implements the Error Bounded Hashing leaf node of Section III:
// a slot array addressed by the hash function of Eq. (2), with the node's
// conflict degree (Definition 2, the maximum placement offset) recorded so a
// lookup never scans beyond [P̂−cd, P̂+cd]. Every build sizes capacity by
// Theorem 1 so the collision probability starts at a target τ, which is
// what flattens locally skewed key runs into near-uniform slot occupancy;
// inserts may fill a leaf past it, to the load growHeadroom allows, before
// it grows.
//
// Layout (cache-conscious, BLI-style): keys and values are interleaved in one
// flat slab — key at slot 2i, value at 2i+1 — so the probe that finds a key
// has its value on the same cache line, and a 64-slot occupancy word covers
// the whole probe window of a well-trained leaf. The slab costs the garbage
// collector two pointers regardless of how many keys it holds — the
// Go-specific concern called out in DESIGN.md §4.
//
// Concurrency: the geometry (interval, capacity, hash factors, slabs) lives
// in an immutable probe struct published through an atomic pointer; rebuilds
// construct a fresh probe off-line and swap it in. Readers load live slab
// words and the conflict degree atomically, and a mutator of a live probe
// stores them atomically. That makes Lookup safe to run with NO lock at all,
// provided the caller brackets it with the interval seqlock
// (ilock.ReadBegin/ReadValidate): a probe that raced a writer may return a
// stale or missing answer, but never a torn one, and the failed validation
// discards it. Mutators still require the caller to hold the interval's
// exclusive lock, so the one writer may read the slabs plainly, and a probe
// no reader can reach yet (a build, a re-scatter, a restore) is filled with
// plain stores.
package ebh

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// DefaultAlpha is the hash factor α of Eq. (2); the paper's worked example
// uses 131. It is the configured α: a leaf whose keys the configured α
// cannot spread within the conflict-degree bound climbs alphaLadder.
const DefaultAlpha = 131

// DefaultTau is the target collision probability τ for Theorem 1 capacity
// sizing; the paper's worked example uses 0.45.
const DefaultTau = 0.45

// maxConflictDegree bounds the lookup window: once probing has pushed some
// key this far from its home slot, the leaf re-scatters (see settle).
const maxConflictDegree = 128

// alphaLadder lists the multiples of the configured α a leaf may hash with.
// A larger α wraps the hash more times over the interval, which spreads a
// dense run that the configured α leaves crowded. The rungs are multiples of
// the configured α, never of each other, so α cannot compound.
var alphaLadder = [...]float64{1, 4, 16}

// CapacityFor returns the minimum slot count that keeps the collision
// probability at or below tau for n keys (Theorem 1):
//
//	c ≥ (n − 1) / (−ln(1 − τ))
func CapacityFor(n int, tau float64) int {
	return SizingFor(tau).Capacity(n)
}

// Sizing is Theorem 1 at one τ: its divisor −ln(1 − τ), computed once by a
// caller that sizes many leaves.
type Sizing float64

// SizingFor returns the Sizing of tau (of DefaultTau when tau is outside
// (0, 1)).
func SizingFor(tau float64) Sizing {
	if tau <= 0 || tau >= 1 {
		tau = DefaultTau
	}
	return Sizing(-math.Log(1 - tau))
}

// Capacity is CapacityFor(n, τ) for the τ s was made from.
func (s Sizing) Capacity(n int) int {
	if n <= 1 {
		return 1
	}
	c := int(math.Ceil(float64(n-1) / float64(s)))
	if c < n {
		// A capacity below n cannot hold the keys at all; Theorem 1 only
		// binds for τ small enough that c ≥ n.
		c = n
	}
	return c
}

// growthFor is the population a full leaf is rebuilt for: a quarter more
// than it holds, and at least 16 more, so a growing leaf rebuilds O(log n)
// times yet stays within a quarter (or 16 keys) of its Theorem 1 size. An
// appending leaf grows to twice its population instead (see grownCap).
func growthFor(n int) int { return n + max(n/4, 16) }

// growHeadroom is the hysteresis between a leaf's build and its growth: τ
// sizes every build and rebuild, but Insert grows a leaf of c slots only
// once it holds more than growHeadroom times the keys Theorem 1 sizes c
// for, c·(−ln(1 − τ)). So a bulk-built leaf, which sits exactly at its
// Theorem 1 capacity, takes its first inserts in place instead of
// re-scattering on the first one.
//
// The ratio comes from the cost model's leaf cost (internal/costmodel),
// which charges each key (prior keys in its home slot + 1)/2 probe steps.
// Eq. (2) spreads a leaf's keys near-uniformly, so the i-th of n keys finds
// i/c prior keys in its home slot on average, and the leaf's expected probe
// distance is
//
//	R(λ) = 1/2 + λ/4,  λ = (n − 1)/c.
//
// A build puts λ at −ln(1 − τ) = 0.598 for the default τ, so R = 0.649.
// The bound: a leaf grows before R rises 5 % above its build-time value,
// R ≤ 0.682, which is λ ≤ 0.728, 1.217 times the build load. growHeadroom
// is the round ratio under that. (ALEX, internal/baselines/alex, builds at
// density 0.7 and expands at 0.85: a ratio of 1.21.) A leaf grown for
// growthFor(n) keys sits at 0.8 of its build load, so it takes half its
// population again before it grows next.
const growHeadroom = 1.2

// probe is the immutable geometry of one trained leaf: interval, capacity,
// cached hash factors, and the slot slabs. A rebuild or re-scatter builds a
// new probe and publishes it through Node.p; the slab CONTENTS of a live
// probe still change in place (place/clrOcc under the interval's exclusive
// lock), which is why readers load slab words with sync/atomic and a live
// probe's mutators store them with it. fill writes a probe that is not yet
// published with plain stores.
type probe struct {
	lo, hi uint64 // key interval [lo, hi] this leaf is responsible for

	c int // capacity (number of key slots)

	alpha float64 // hash factor: a rung of alphaLadder

	// cd is the conflict degree: max offset of any stored key
	// (Definition 2). It grows in place under the writer lock and is read
	// lock-free, hence atomic.
	cd atomic.Int32

	// Cached hash factors: scale = α·c/(hi−lo), cf = float64(c),
	// invC = 1/cf. home() is the hottest path in the index; precomputing
	// these and wrapping with Trunc instead of math.Mod is ~3× faster.
	scale, cf, invC float64

	slots []uint64 // interleaved: key at [2i], value at [2i+1]
	occ   []uint64 // occupancy bitmap, 1 bit per key slot
}

// Node is one EBH leaf. The zero value is not usable; construct with New.
type Node struct {
	p    atomic.Pointer[probe]
	base float64 // the configured α the ladder multiplies
	tau  float64

	n int // stored keys; mutated and read only under the interval lock

	// The growth rule's view of the insert stream, also under the interval
	// lock: the smallest and largest key the leaf has held (deletes leave
	// them wide), and since the last growth, how many inserts there were
	// and how many of them fell outside [kmin, kmax].
	kmin, kmax       uint64
	inserts, appends int

	// saturated marks a distribution the hash cannot flatten within the
	// conflict-degree bound at any rung of the ladder, suppressing futile
	// re-scatter attempts until the next capacity growth. Written under the
	// interval lock; atomic so that Geometry can be read optimistically.
	saturated atomic.Bool
}

// newProbe allocates a probe for capacity c over [lo, hi] with hash factor
// alpha. The slabs start empty.
func newProbe(lo, hi uint64, c int, alpha float64) *probe {
	pr := &probe{
		slots: make([]uint64, 2*c),
		occ:   make([]uint64, (c+63)/64),
	}
	pr.shape(lo, hi, c, alpha)
	return pr
}

// reset empties pr's slabs, which must fit capacity c, and its conflict
// degree, and shapes it anew. Only a probe no reader can reach may be reset.
func (pr *probe) reset(lo, hi uint64, c int, alpha float64) {
	clear(pr.slots)
	clear(pr.occ)
	pr.cd.Store(0)
	pr.shape(lo, hi, c, alpha)
}

// shape gives pr the interval [lo, hi], capacity c and hash factor alpha,
// and the cached hash factors they make.
func (pr *probe) shape(lo, hi uint64, c int, alpha float64) {
	pr.lo, pr.hi, pr.c, pr.alpha = lo, hi, c, alpha
	pr.cf = float64(c)
	pr.invC = 1 / pr.cf
	pr.scale = 0
	if span := hi - lo; span > 0 {
		pr.scale = alpha * pr.cf / float64(span)
	}
}

// capFor is the slot count a leaf is built with for expected keys: the
// Theorem 1 capacity, and never fewer than 8 slots.
func (nd *Node) capFor(expected int) int { return max(CapacityFor(expected, nd.tau), 8) }

// New creates a leaf covering the key interval [lo, hi] sized for expected
// keys with collision target tau and hash factor alpha. Passing 0 for tau or
// alpha selects the defaults.
func New(lo, hi uint64, expected int, tau, alpha float64) *Node {
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	if tau <= 0 || tau >= 1 {
		tau = DefaultTau
	}
	nd := &Node{base: alpha, tau: tau, kmin: math.MaxUint64}
	nd.p.Store(newProbe(lo, hi, nd.capFor(max(expected, 1)), alpha))
	return nd
}

// NewFromSorted builds a leaf and bulk-inserts the given sorted keys. [lo,
// hi] is the routing cell the leaf serves. The hash interval is the keys'
// min/max (Table II defines N.lk/N.uk as the node's minimum and maximum
// key) widened on each side by up to one key span, as far as the cell
// reaches: the slack an insert outside [min, max] would add anyway (see
// extend), given at build time so that the cell's fresh keys land in the
// probe in place instead of re-scattering the leaf on the first one. A cell
// that does not contain the keys (e.g. 0, 0 from a caller with none) adds
// no slack, and an empty leaf takes [lo, hi]. vals may be nil, meaning
// value-equals-key. The leaf keeps its Theorem 1 capacity unless no rung of
// the α ladder meets the conflict-degree bound (see climb).
func NewFromSorted(lo, hi uint64, keys, vals []uint64, tau, alpha float64) *Node {
	if len(keys) > 0 {
		lo, hi = slack(lo, hi, keys[0], keys[len(keys)-1])
	}
	n := New(lo, hi, len(keys), tau, alpha)
	n.n = len(keys)
	if len(keys) > 0 {
		n.kmin, n.kmax = keys[0], keys[len(keys)-1]
	}
	src := entries{keys: keys, vals: vals}
	// A placement that breaks the bound is abandoned: the leaf will be
	// re-scattered from the keys anyway, and the rest of a crowded
	// placement is its slowest part.
	if !n.p.Load().fill(src, maxConflictDegree+1) {
		n.climb(src, nil)
	}
	return n
}

// slack is the build-time hash interval of keys spanning [kmin, kmax] in
// the routing cell [lo, hi]: [kmin, kmax] widened by up to kmax − kmin on
// each side, clamped to the cell, or [kmin, kmax] itself when the cell does
// not contain it.
func slack(lo, hi, kmin, kmax uint64) (uint64, uint64) {
	if lo > kmin || hi < kmax {
		return kmin, kmax
	}
	span := kmax - kmin
	return kmin - min(span, kmin-lo), kmax + min(span, hi-kmax)
}

// Len reports the number of stored keys.
func (nd *Node) Len() int { return nd.n }

// ConflictDegree reports the recorded maximum offset cd.
func (nd *Node) ConflictDegree() int { return int(nd.p.Load().cd.Load()) }

// home computes P̂ via Eq. (2): α·(c/(uk−lk)·(k−lk)) mod c, using the cached
// scale and a Trunc-based wrap (equivalent to math.Mod for the non-negative
// operands here, and much cheaper). Keys outside [lo, hi] are clamped before
// the subtraction: k−lk would otherwise wrap to a huge uint64 whose float64
// image loses the low bits, quantizing distinct keys onto the same clamped
// edge slots. Stored keys are normally inside the interval (Insert extends it
// first), but a capacity rebuild inside Insert refits the interval to the
// keys already stored and can leave the new key just outside; placement and
// search clamp it alike, so it stays reachable.
func (pr *probe) home(k uint64) int {
	if pr.scale == 0 || k <= pr.lo {
		return 0
	}
	if k > pr.hi {
		k = pr.hi
	}
	x := pr.scale * float64(k-pr.lo)
	x -= math.Trunc(x*pr.invC) * pr.cf
	i := int(x)
	if i >= pr.c {
		i = pr.c - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// occupied, key and val read slot i as a lock-free reader may.
func (pr *probe) occupied(i int) bool {
	return atomic.LoadUint64(&pr.occ[uint(i)>>6])&(1<<(uint(i)&63)) != 0
}
func (pr *probe) key(i int) uint64 { return atomic.LoadUint64(&pr.slots[uint(i)<<1]) }
func (pr *probe) val(i int) uint64 { return atomic.LoadUint64(&pr.slots[uint(i)<<1|1]) }

// taken is occupied for the probe's one writer: the holder of the
// interval's exclusive lock, or the code filling a probe not yet published.
// Nothing else stores into the slabs, so its plain load races with nothing.
func (pr *probe) taken(i int) bool {
	return pr.occ[uint(i)>>6]&(1<<(uint(i)&63)) != 0
}

// setOcc/clrOcc are load+store rather than atomic RMW: mutators hold the
// interval's exclusive lock, so no two of them race, and the store itself is
// atomic for the benefit of lock-free readers.
func (pr *probe) setOcc(i int) {
	w := &pr.occ[uint(i)>>6]
	atomic.StoreUint64(w, *w|1<<(uint(i)&63))
}
func (pr *probe) clrOcc(i int) {
	w := &pr.occ[uint(i)>>6]
	atomic.StoreUint64(w, *w&^(1<<(uint(i)&63)))
}

// hit reports whether slot i holds exactly key k, as a branch-free
// combination of the occupancy bit and the key comparison: the two loads
// land on (at most) two cache lines, and no data-dependent branch sits in
// the probe loop for the predictor to miss on.
func (pr *probe) hit(i int, k uint64) bool {
	bit := atomic.LoadUint64(&pr.occ[uint(i)>>6]) >> (uint(i) & 63) & 1
	eq := atomic.LoadUint64(&pr.slots[uint(i)<<1]) ^ k
	// z is 1 iff eq == 0, computed without a comparison branch.
	z := ((eq | -eq) >> 63) ^ 1
	return bit&z != 0
}

// search returns the slot holding key, or −1. It scans outward from the home
// slot up to the conflict degree, exactly the bounded search of Section III:
// "if the linear scanning process exceeds [P̂−cd, P̂+cd], then k is not in
// the node". The scan keeps two cursors and wraps them with a conditional
// add/subtract instead of a modulo, so the loop body is three predictable
// branches and two probe loads per direction.
func (pr *probe) search(k uint64) int {
	h := pr.home(k)
	if pr.hit(h, k) {
		return h
	}
	cd := int(pr.cd.Load())
	c := pr.c
	up, down := h, h
	for d := 0; d < cd; d++ {
		up++
		if up == c {
			up = 0
		}
		if pr.hit(up, k) {
			return up
		}
		down--
		if down < 0 {
			down = c - 1
		}
		if pr.hit(down, k) {
			return down
		}
	}
	return -1
}

// find returns the slot holding key in the current probe, or −1.
func (nd *Node) find(k uint64) (*probe, int) {
	pr := nd.p.Load()
	return pr, pr.search(k)
}

// Lookup returns the value stored for k. It is safe to call with no lock
// held when bracketed by the interval seqlock; see the package comment.
func (nd *Node) Lookup(k uint64) (uint64, bool) {
	pr := nd.p.Load()
	if i := pr.search(k); i >= 0 {
		return pr.val(i), true
	}
	return 0, false
}

// Insert stores k→v. It reports false if k is already present. Capacity
// follows the population with hysteresis: a leaf that holds growHeadroom
// times the keys Theorem 1 sizes its capacity for is rebuilt for more keys
// (see full and grownCap), so between builds its collision rate may rise
// from τ to that load. A key outside [lo, hi] widens the interval first, at
// the same capacity unless the leaf is taking an append stream. If the
// placement then pushes the conflict degree past its bound, settle
// re-scatters the leaf with another rung of the α ladder before it grows
// capacity; a distribution no rung flattens (e.g. a dense cluster plus a
// far outlier) marks the node saturated and is served with a wide probe
// window instead of unbounded growth.
func (nd *Node) Insert(k, v uint64) bool {
	pr := nd.p.Load()
	if pr.search(k) >= 0 {
		return false
	}
	grow := nd.full(pr.c)
	switch {
	case k < pr.lo || k > pr.hi:
		// Out-of-interval key (the routing cell reaches more than a key
		// span past the bulk-built [lo, hi], or a rebuild refit the
		// interval to the stored min/max):
		// extend the interval to cover it BEFORE hashing — k−lo on a key
		// below lo wraps to a huge uint64 and degenerates the hash. The
		// extension adds a full span of geometric slack on the crossed side
		// so a monotone stream of out-of-interval inserts re-scatters
		// O(log n) times, not every insert. Capacity stays as it is: α wraps
		// the hash many times over the interval, so stored keys that now
		// cover part of a wider span still spread over every slot. An
		// appending leaf grows here all the same, since its stream will
		// fill the headroom: one re-scatter instead of this one and a
		// growth soon after.
		lo, hi := extend(pr.lo, pr.hi, k)
		c := pr.c
		if grow || nd.appending() {
			c = max(c, nd.grownCap())
		}
		nd.rescatter(c, lo, hi)
	case grow:
		// Growth keeps the interval and its slack: refitting it to the keys
		// would make a monotone stream extend it again after every growth.
		// It refits only when the keys have come to cover less than a
		// quarter of the interval, the density drift rebuild guards against.
		lo, hi := pr.keyRange()
		if hi-lo >= (pr.hi-pr.lo)/4 {
			lo, hi = pr.lo, pr.hi
		}
		nd.rescatter(nd.grownCap(), lo, hi)
	}
	nd.p.Load().place(k, v)
	nd.n++
	nd.inserts++
	if k < nd.kmin || k > nd.kmax {
		nd.appends++
		nd.kmin, nd.kmax = min(nd.kmin, k), max(nd.kmax, k)
	}
	nd.settle()
	return true
}

// full reports whether a leaf of c slots must grow before it takes another
// key: it holds more than growHeadroom times the keys Theorem 1 sizes c for,
// or it has no slot to spare.
func (nd *Node) full(c int) bool {
	return nd.n >= c || float64(nd.n) > growHeadroom*float64(SizingFor(nd.tau))*float64(c)
}

// grownCap is the capacity a full leaf grows to, and starts the count of
// inserts toward its next growth. The leaf is rebuilt at the Theorem 1 size
// for growthFor(n) keys, below its growth trigger; but when most inserts
// since the last growth fell outside the key range the leaf had held — an
// append stream, which fills any headroom it is given — it grows for twice
// its population, so an append stream rebuilds the leaf once per doubling,
// not every quarter.
func (nd *Node) grownCap() int {
	expected := growthFor(nd.n)
	if nd.appending() {
		expected = max(expected, 2*nd.n)
	}
	nd.inserts, nd.appends = 0, 0
	return nd.capFor(expected)
}

// appending reports whether most inserts since the last growth fell
// outside the key range the leaf had held.
func (nd *Node) appending() bool { return 2*nd.appends > nd.inserts }

// extend widens [lo, hi] to cover k, adding at least one span of slack on
// the side k crossed.
func extend(lo, hi, k uint64) (uint64, uint64) {
	span := hi - lo
	if k < lo {
		ext := max(span, lo-k)
		if ext > lo {
			lo = 0
		} else {
			lo -= ext
		}
	}
	if k > hi {
		ext := max(span, k-hi)
		if hi+ext < hi { // overflow
			hi = ^uint64(0)
		} else {
			hi += ext
		}
	}
	return lo, hi
}

// settle restores the conflict-degree bound after a placement into the live
// probe broke it, unless the leaf is saturated (see climb).
func (nd *Node) settle() {
	pr := nd.p.Load()
	if nd.saturated.Load() || int(pr.cd.Load()) <= maxConflictDegree {
		return
	}
	nd.climb(entries{from: pr}, pr)
}

// climb tries the hash factor before the capacity: the entries of src, all
// of the leaf's keys, are re-scattered at the live probe's capacity and
// interval with each other rung of the α ladder, and whichever rung gives
// the smallest conflict degree wins — the best rung, not the first that
// meets the bound, since every absent-key search scans the whole window.
// Only if no rung meets the bound is the leaf re-scattered at twice its
// population with the best rung known, over the same interval so an
// extension's slack survives, and marked saturated if even that fails.
//
// The rungs are tried on a trial probe, which has an occupancy bitmap and
// no slots: where an entry lands depends only on which slots are taken, so
// a trial finds a rung's conflict degree without the slab, and only the
// winner is built. cur is the probe at the current rung, or nil for a leaf
// under construction (NewFromSorted) whose placement at the current rung
// was abandoned once it broke the bound. No reader has seen such a leaf,
// and src does not read its probe, so a winner at the same capacity is
// placed into that probe's slabs.
func (nd *Node) climb(src entries, cur *probe) {
	live := nd.p.Load()
	alpha, stop := live.alpha, int32(maxConflictDegree+1)
	if cur != nil {
		stop = cur.cd.Load()
	}
	won := false
	trial := &probe{occ: make([]uint64, len(live.occ))}
	for _, m := range alphaLadder {
		if a := m * nd.base; a != live.alpha {
			trial.reset(live.lo, live.hi, live.c, a)
			if trial.fill(src, stop) {
				alpha, stop, won = a, trial.cd.Load(), true
			}
		}
	}
	saturating := int(stop) > maxConflictDegree
	var np *probe
	switch {
	case saturating:
		np = newProbe(live.lo, live.hi, nd.capFor(2*nd.n), alpha)
	case !won:
		return // cur already has the smallest conflict degree
	case cur == nil:
		np = live
		np.reset(live.lo, live.hi, live.c, alpha)
	default:
		np = newProbe(live.lo, live.hi, live.c, alpha)
	}
	np.fill(src, math.MaxInt32)
	if saturating {
		nd.saturated.Store(int(np.cd.Load()) > maxConflictDegree)
	}
	nd.p.Store(np)
}

// place stores a key assumed absent into the live probe pr, for lock-free
// readers to see. It never rebuilds; Insert owns that policy.
func (pr *probe) place(k, v uint64) {
	i, d := pr.free(k)
	// Value before key before occupancy bit: an optimistic reader that races
	// this (and will fail validation anyway) can match the key only after
	// the value is in place.
	atomic.StoreUint64(&pr.slots[uint(i)<<1|1], v)
	atomic.StoreUint64(&pr.slots[uint(i)<<1], k)
	pr.setOcc(i)
	if int32(d) > pr.cd.Load() {
		pr.cd.Store(int32(d))
	}
}

// free returns the slot a key assumed absent goes in, and its distance d
// from k's home slot: the first free slot of the probe order h, h+1, h−1,
// h+2, h−2, … around its home slot h, wrapped by a conditional add or
// subtract as search wraps. Capacity always exceeds the population, so a
// free slot exists within c/2+1 steps. It reads the occupancy bitmap as the
// probe's one writer (see taken).
func (pr *probe) free(k uint64) (i, d int) {
	h := pr.home(k)
	if !pr.taken(h) {
		return h, 0
	}
	c := pr.c
	up, down := h, h
	for d := 1; d <= c/2+1; d++ {
		up++
		if up == c {
			up = 0
		}
		if !pr.taken(up) {
			return up, d
		}
		down--
		if down < 0 {
			down = c - 1
		}
		if !pr.taken(down) {
			return down, d
		}
	}
	panic("ebh: no free slot despite capacity > population")
}

// entries is what fill places: the occupied slots of from, in slot order,
// when from is set; otherwise keys with vals (nil: value-equals-key).
type entries struct {
	keys, vals []uint64
	from       *probe
}

// fill places the entries of src into pr, a fresh probe no reader can reach
// yet, with plain stores, in the slots and with the conflict degree that
// placing them one at a time with place would give. It reports whether it
// placed them all: it gives up as soon as pr's conflict degree reaches stop,
// so a trial that cannot beat a known conflict degree stops early. Into a
// trial probe (no slots, see climb) it places only the occupancy bits. A
// from probe is read as its writer reads it (see taken).
func (pr *probe) fill(src entries, stop int32) bool {
	cd := int32(0)
	if from := src.from; from != nil {
		for w, word := range from.occ {
			for ; word != 0; word &= word - 1 {
				i := uint(w)<<6 | uint(bits.TrailingZeros64(word))
				if cd = max(cd, pr.add(from.slots[i<<1], from.slots[i<<1|1])); cd >= stop {
					pr.cd.Store(cd)
					return false
				}
			}
		}
	} else {
		for i, k := range src.keys {
			v := k
			if src.vals != nil {
				v = src.vals[i]
			}
			if cd = max(cd, pr.add(k, v)); cd >= stop {
				pr.cd.Store(cd)
				return false
			}
		}
	}
	pr.cd.Store(cd)
	return true
}

// add stores a key assumed absent into pr, which no reader can reach, with
// plain stores, and returns its distance from its home slot.
func (pr *probe) add(k, v uint64) int32 {
	i, d := pr.free(k)
	if pr.slots != nil {
		pr.slots[uint(i)<<1] = k
		pr.slots[uint(i)<<1|1] = v
	}
	pr.occ[uint(i)>>6] |= 1 << (uint(i) & 63)
	return int32(d)
}

// Delete removes k, reporting whether it was present. The conflict degree is
// left as is (it remains a valid upper bound); rebuilds re-derive it.
func (nd *Node) Delete(k uint64) bool {
	pr, i := nd.find(k)
	if i < 0 {
		return false
	}
	pr.clrOcc(i)
	nd.n--
	return true
}

// rebuild re-creates the slot array sized for the given expected key count
// and re-places every key, re-deriving the conflict degree and refitting the
// hash interval to the stored min/max key (Table II's N.lk/N.uk) so density
// drift — e.g. inserts concentrated in a sliver of the old interval — never
// degenerates the hash. The paper's Fig. 14 discussion notes EBH retraining
// needs no sorting — this is that operation.
func (nd *Node) rebuild(expected int) {
	lo, hi := nd.p.Load().keyRange()
	nd.rescatter(nd.capFor(max(expected, nd.n)), lo, hi)
}

// keyRange returns the smallest and largest stored key, or the interval of
// an empty probe.
func (pr *probe) keyRange() (lo, hi uint64) {
	lo, hi = math.MaxUint64, 0
	empty := true
	for i := 0; i < pr.c; i++ {
		if pr.occupied(i) {
			lo, hi, empty = min(lo, pr.key(i)), max(hi, pr.key(i)), false
		}
	}
	if empty {
		return pr.lo, pr.hi
	}
	return lo, hi
}

// rescatter re-creates the slot array at capacity c like rebuild but keeps
// the given hash interval instead of refitting it to the stored keys — the
// Insert path uses it to extend the interval over an out-of-range key with
// slack. The new probe is filled off-line and published atomically, so a
// concurrent optimistic reader sees either the old slabs or the finished
// new ones. Only a larger capacity clears the saturation flag: at the same
// capacity a wider interval crowds the keys no less.
func (nd *Node) rescatter(c int, lo, hi uint64) {
	old := nd.p.Load()
	np := newProbe(lo, hi, c, old.alpha)
	np.fill(entries{from: old}, math.MaxInt32)
	nd.p.Store(np)
	if c > old.c {
		nd.saturated.Store(false)
	}
}

// RetrainFor rebuilds the leaf provisioned for an expected future
// population (at least the current one) — the background retrainer uses the
// observed drift rate here so upcoming inserts land without inline
// expansion spikes ("maintains a relatively stable leaf node density",
// Section VI-C5). A refit that breaks the conflict-degree bound is settled
// like an insert that does.
func (nd *Node) RetrainFor(expected int) {
	nd.rebuild(expected)
	nd.settle()
}

// AppendEntries appends every stored (key, value) pair to dst in slot order
// (unordered by key) and returns the extended slices. Like Lookup, it is
// safe to run lock-free when bracketed by the interval seqlock.
func (nd *Node) AppendEntries(dstK, dstV []uint64) ([]uint64, []uint64) {
	pr := nd.p.Load()
	for i := 0; i < pr.c; i++ {
		if pr.occupied(i) {
			dstK = append(dstK, pr.key(i))
			dstV = append(dstV, pr.val(i))
		}
	}
	return dstK, dstV
}

// Bytes estimates resident size: slot slab, bitmap, and the struct headers.
func (nd *Node) Bytes() int {
	pr := nd.p.Load()
	return 16*pr.c + 8*len(pr.occ) + 128
}

// ErrorStats recomputes the true placement errors (|P̂ − P| per key) for
// Table V: the maximum and mean offset over all stored keys.
func (nd *Node) ErrorStats() (maxErr int, sumErr float64) {
	pr := nd.p.Load()
	for i := 0; i < pr.c; i++ {
		if !pr.occupied(i) {
			continue
		}
		h := pr.home(pr.key(i))
		d := i - h
		if d < 0 {
			d = -d
		}
		// Placement wraps modulo c; take the shorter circular distance.
		if alt := pr.c - d; alt < d {
			d = alt
		}
		if d > maxErr {
			maxErr = d
		}
		sumErr += float64(d)
	}
	return maxErr, sumErr
}
