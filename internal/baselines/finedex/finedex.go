// Package finedex implements the FINEdex baseline: a flattened collection of
// independent linear-model segments (no deep tree), each paired with a
// "level bin" — a small sorted delta buffer absorbing inserts out-of-place
// (Table I: "LRM+BS+LS" leaf, non-blocking retraining). When a bin fills,
// the segment merges it and retrains its model, which is FINEdex's
// fine-grained equivalent of index retraining. The level-bin scan on every
// lookup is the "Weakness" column entry the paper cites for FINEdex.
package finedex

import (
	"sort"

	"chameleon/internal/index"
	"chameleon/internal/pla"
)

// DefaultEpsilon is the PLA error bound used to cut segments.
const DefaultEpsilon = 64

// DefaultBinCap is the level-bin capacity before a segment merge-retrain.
const DefaultBinCap = 256

// segment is one independent model: a sorted base array with a linear model
// plus its level bin.
type segment struct {
	model pla.Segment
	keys  []uint64
	vals  []uint64
	// Level bin: sorted delta entries (inserts) and a tombstone set for
	// deletes against the base array.
	binK, binV []uint64
	dead       map[uint64]bool
	merges     int
}

// Index is the FINEdex structure. Construct with New.
type Index struct {
	eps    int
	binCap int
	firsts []uint64
	segs   []*segment
	count  int
}

var _ index.Index = (*Index)(nil)

// New creates an empty FINEdex (0 arguments select defaults).
func New(eps, binCap int) *Index {
	if eps < 1 {
		eps = DefaultEpsilon
	}
	if binCap < 1 {
		binCap = DefaultBinCap
	}
	return &Index{eps: eps, binCap: binCap}
}

// Name implements index.Index.
func (t *Index) Name() string { return "FINEdex" }

// Len implements index.Index.
func (t *Index) Len() int { return t.count }

// BulkLoad implements index.Index.
func (t *Index) BulkLoad(keys, vals []uint64) error {
	t.count = len(keys)
	t.firsts, t.segs = nil, nil
	if len(keys) == 0 {
		return nil
	}
	for _, m := range pla.Build(keys, t.eps) {
		ks := append([]uint64(nil), keys[m.Start:m.Start+m.N]...)
		var vs []uint64
		if vals == nil {
			vs = append([]uint64(nil), ks...)
		} else {
			vs = append([]uint64(nil), vals[m.Start:m.Start+m.N]...)
		}
		m.Start = 0 // ranks are now segment-local
		t.firsts = append(t.firsts, m.FirstKey)
		t.segs = append(t.segs, &segment{model: m, keys: ks, vals: vs, dead: map[uint64]bool{}})
	}
	return nil
}

// segFor locates the responsible segment by binary search over first keys
// (the flattened structure has exactly one routing level).
func (t *Index) segFor(k uint64) int {
	i := sort.Search(len(t.firsts), func(i int) bool { return t.firsts[i] > k })
	if i > 0 {
		i--
	}
	return i
}

// findBase locates k in the segment's base array via the model ± ε.
func (s *segment) findBase(k uint64, eps int) (int, bool) {
	n := len(s.keys)
	if n == 0 {
		return 0, false
	}
	pred := s.model.Predict(k)
	lo, hi := pred-eps, pred+eps+1
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	f := func(i int) bool { return s.keys[i] >= k }
	var pos int
	if lo >= hi || (lo > 0 && f(lo-1)) || (hi < n && !f(hi)) {
		pos = sort.Search(n, f)
	} else {
		pos = lo + sort.Search(hi-lo, func(i int) bool { return f(lo + i) })
	}
	return pos, pos < n && s.keys[pos] == k
}

// Lookup implements index.Index: model search in the base array, then the
// level-bin scan.
func (t *Index) Lookup(k uint64) (uint64, bool) {
	if len(t.segs) == 0 {
		return 0, false
	}
	s := t.segs[t.segFor(k)]
	if pos, ok := s.findBase(k, DefaultEpsilon); ok {
		if s.dead[k] {
			return 0, false
		}
		return s.vals[pos], true
	}
	if i := sort.Search(len(s.binK), func(i int) bool { return s.binK[i] >= k }); i < len(s.binK) && s.binK[i] == k {
		return s.binV[i], true
	}
	return 0, false
}

// Insert implements index.Index: out-of-place into the level bin, merging
// (and retraining the segment model) when the bin fills.
func (t *Index) Insert(k, v uint64) error {
	if len(t.segs) == 0 {
		t.firsts = []uint64{k}
		t.segs = []*segment{{
			model: pla.Segment{FirstKey: k, N: 1},
			keys:  []uint64{k}, vals: []uint64{v},
			dead: map[uint64]bool{},
		}}
		t.count = 1
		return nil
	}
	s := t.segs[t.segFor(k)]
	if pos, ok := s.findBase(k, DefaultEpsilon); ok {
		if !s.dead[k] {
			return index.ErrDuplicateKey
		}
		// Reinsertion of a tombstoned base key: revive it in place.
		delete(s.dead, k)
		s.vals[pos] = v
		t.count++
		return nil
	}
	i := sort.Search(len(s.binK), func(i int) bool { return s.binK[i] >= k })
	if i < len(s.binK) && s.binK[i] == k {
		return index.ErrDuplicateKey
	}
	s.binK = append(s.binK, 0)
	s.binV = append(s.binV, 0)
	copy(s.binK[i+1:], s.binK[i:])
	copy(s.binV[i+1:], s.binV[i:])
	s.binK[i], s.binV[i] = k, v
	t.count++
	if len(s.binK) >= t.binCap {
		t.mergeSeg(t.segFor(k))
	}
	return nil
}

// maxSegKeys bounds a segment's base array; larger segments split on merge
// so a hot segment's merge cost stays bounded (FINEdex's flattened layout
// grows by adding models, not by growing one).
const maxSegKeys = 8192

// mergeSeg merges segment si's bin and splits the segment if it outgrew the
// bound, splicing the pieces into the flat model list.
func (t *Index) mergeSeg(si int) {
	s := t.segs[si]
	s.merge(t.eps)
	if len(s.keys) <= maxSegKeys {
		return
	}
	piece := maxSegKeys / 2
	var newSegs []*segment
	var newFirsts []uint64
	for start := 0; start < len(s.keys); start += piece {
		end := start + piece
		if end > len(s.keys) {
			end = len(s.keys)
		}
		ks := append([]uint64(nil), s.keys[start:end]...)
		vs := append([]uint64(nil), s.vals[start:end]...)
		m := pla.Build(ks, t.eps)[0]
		m.Start = 0
		newSegs = append(newSegs, &segment{
			model: m, keys: ks, vals: vs,
			dead: map[uint64]bool{}, merges: s.merges,
		})
		newFirsts = append(newFirsts, ks[0])
	}
	// The first piece keeps the original routing boundary so keys below the
	// old first key still land in it.
	newFirsts[0] = t.firsts[si]
	t.segs = append(t.segs[:si], append(newSegs, t.segs[si+1:]...)...)
	t.firsts = append(t.firsts[:si], append(newFirsts, t.firsts[si+1:]...)...)
}

// Delete implements index.Index.
func (t *Index) Delete(k uint64) error {
	if len(t.segs) == 0 {
		return index.ErrKeyNotFound
	}
	s := t.segs[t.segFor(k)]
	if _, ok := s.findBase(k, DefaultEpsilon); ok && !s.dead[k] {
		s.dead[k] = true
		t.count--
		return nil
	}
	if i := sort.Search(len(s.binK), func(i int) bool { return s.binK[i] >= k }); i < len(s.binK) && s.binK[i] == k {
		s.binK = append(s.binK[:i], s.binK[i+1:]...)
		s.binV = append(s.binV[:i], s.binV[i+1:]...)
		t.count--
		return nil
	}
	return index.ErrKeyNotFound
}

// merge folds the level bin and tombstones into the base array and retrains
// the segment's linear model — FINEdex's per-segment retraining step.
func (s *segment) merge(eps int) {
	nk := make([]uint64, 0, len(s.keys)+len(s.binK))
	nv := make([]uint64, 0, len(s.keys)+len(s.binK))
	i, j := 0, 0
	for i < len(s.keys) || j < len(s.binK) {
		switch {
		case j == len(s.binK) || (i < len(s.keys) && s.keys[i] < s.binK[j]):
			if !s.dead[s.keys[i]] {
				nk = append(nk, s.keys[i])
				nv = append(nv, s.vals[i])
			}
			i++
		default:
			nk = append(nk, s.binK[j])
			nv = append(nv, s.binV[j])
			j++
		}
	}
	s.keys, s.vals = nk, nv
	s.binK, s.binV = nil, nil
	s.dead = map[uint64]bool{}
	s.merges++
	if len(nk) > 0 {
		segs := pla.Build(nk, eps)
		// Keep the first piece as the model; the bounded search corrects the
		// tail (FINEdex retrains per-segment models the same way).
		s.model = segs[0]
	}
}

// merges reports the total number of segment merge-retrains.
func (t *Index) merges() int {
	n := 0
	for _, s := range t.segs {
		n += s.merges
	}
	return n
}

// Bytes implements index.Index.
func (t *Index) Bytes() int {
	total := 48 + 8*len(t.firsts)
	for _, s := range t.segs {
		total += 96 + 16*len(s.keys) + 16*len(s.binK) + 48*len(s.dead)
	}
	return total
}

// Range implements index.RangeIndex: per segment, the base array (minus
// tombstones) is merged with the sorted level bin on the fly.
func (t *Index) Range(lo, hi uint64, fn func(key, val uint64) bool) {
	if hi < lo || len(t.segs) == 0 {
		return
	}
	for si := t.segFor(lo); si < len(t.segs); si++ {
		if t.firsts[si] > hi {
			return
		}
		s := t.segs[si]
		i := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= lo })
		j := sort.Search(len(s.binK), func(j int) bool { return s.binK[j] >= lo })
		for i < len(s.keys) || j < len(s.binK) {
			useBase := j == len(s.binK) || (i < len(s.keys) && s.keys[i] <= s.binK[j])
			var k, v uint64
			if useBase {
				k, v = s.keys[i], s.vals[i]
				i++
				if s.dead[k] {
					continue
				}
			} else {
				k, v = s.binK[j], s.binV[j]
				j++
			}
			if k > hi {
				return
			}
			if !fn(k, v) {
				return
			}
		}
	}
}

var _ index.RangeIndex = (*Index)(nil)
