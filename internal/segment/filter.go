package segment

// A run's membership filter: a blocked Bloom filter over its keys, built in
// memory while Open streams the key section past the CRC (nothing on disk,
// no format change). A learned rank model says where a key would sit but not
// whether it is there, so without the filter every run whose [min, max]
// covers a key costs a pread to answer "absent" — which is the common answer
// for fresh-key inserts and for every run above the one that holds a key.
//
// Each key sets six bits — three in each of two words — of one 64-byte
// block, so a test touches one cache line. Which block is chosen in two
// steps. The filter is laid out in rank order: the keys of ranks
// [r·4096, (r+1)·4096) own region r, 80 consecutive blocks; inside its
// region a key's block is picked by hash. Open knows every key's rank as it
// streams past, so the build walks the filter front to back with one 5 KB
// region in L1 at a time — a purely hashed layout took a cache miss per key
// and cost four times the rest of Open on a 2 M-key run. A lookup does not
// know the rank, but the run's model bounds it: a key that is present has
// its rank within ε of the prediction, so the regions covering
// [pred−ε, pred+ε] — one, or two at a boundary — are the only places it can
// have been added.
//
// At filterBitsPerKey = 10 the measured false-positive rate is 1.2 %
// (TestFilterFalsePositiveRate). There are no false negatives, which is what
// lets compaction drop a tombstone when no run left out of the merge
// MayContain its key.
type filter []uint64

const (
	filterBitsPerKey = 10
	filterBlockWords = 8 // 512-bit blocks: one cache line
	filterBlockBits  = filterBlockWords * 64

	filterRegionKeys   = 4096
	filterRegionBlocks = filterRegionKeys * filterBitsPerKey / filterBlockBits

	// Open adds keys a read chunk at a time to the chunk's region, so a
	// chunk must never straddle two: this fails to compile unless
	// iterChunk divides filterRegionKeys.
	_ uint = -(filterRegionKeys % iterChunk)
)

// newFilter sizes a filter for n keys. Callers must have bounded n by the
// file's real length first: n comes from a header a hostile file controls.
func newFilter(n uint64) filter {
	blocks := (n*filterBitsPerKey + filterBlockBits - 1) / filterBlockBits
	return make(filter, blocks*filterBlockWords)
}

// region returns the part of the filter owned by the region rank falls in.
// The last region is short: it has whatever blocks are left, at least one.
func (f filter) region(rank uint64) filter {
	first := rank / filterRegionKeys * filterRegionBlocks * filterBlockWords
	return f[first:min(first+filterRegionBlocks*filterBlockWords, uint64(len(f)))]
}

// probe locates key inside f, which must be one region: the block it hashes
// to, the two words of that block it touches, and its three bits in each.
// The hash is the splitmix64 finalizer (keys are often arithmetic
// progressions, which a multiplicative hash alone maps to regular patterns);
// the block comes from its high half and the bits from a second
// multiplication, so the two choices are independent.
func (f filter) probe(key uint64) (block *[filterBlockWords]uint64, w1, w2, m1, m2 uint64) {
	h := key
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	b := (h >> 32) * uint64(len(f)/filterBlockWords) >> 32
	block = (*[filterBlockWords]uint64)(f[b*filterBlockWords:])
	g := h * 0x9e3779b97f4a7c15
	w1, w2 = g&7, g>>3&7
	g >>= 6
	m1 = 1<<(g&63) | 1<<(g>>6&63) | 1<<(g>>12&63)
	g >>= 18
	m2 = 1<<(g&63) | 1<<(g>>6&63) | 1<<(g>>12&63)
	return
}

// add records key in f, the region that owns key's rank.
func (f filter) add(key uint64) {
	block, w1, w2, m1, m2 := f.probe(key)
	block[w1] |= m1
	block[w2] |= m2
}

// has reports whether key may have been added at some rank in [lo, hi];
// false is exact. hi must be a valid rank.
func (f filter) has(lo, hi, key uint64) bool {
	for rank := lo / filterRegionKeys * filterRegionKeys; rank <= hi; rank += filterRegionKeys {
		block, w1, w2, m1, m2 := f.region(rank).probe(key)
		if block[w1]&m1 == m1 && block[w2]&m2 == m2 {
			return true
		}
	}
	return false
}
