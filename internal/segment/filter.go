package segment

// A run's membership filter: a blocked Bloom filter over its keys, built in
// memory while Open decodes the keys past the CRC. It is deliberately not
// persisted: at 10 bits a key it would add 1.25 B/key to the file, 12 % of a
// CHAMSEG2 run's ~10 B, to save ~22 ms of reopening a 2 M-key run — the
// rank-ordered build below is cheap. The fence keys say which block a key
// would sit in but not whether it is there, so without the filter every run
// whose [min, max] covers a key costs a pread to answer "absent" — which is
// the common answer for fresh-key inserts and for every run above the one
// that holds a key.
//
// Each key sets six bits — three in each of two words — of one 64-byte
// block, so a test touches one cache line. Which block is chosen in two
// steps. The filter is laid out in rank order: the keys of ranks
// [r·4096, (r+1)·4096) own region r, 80 consecutive blocks; inside its
// region a key's block is picked by hash. Open knows every key's rank as it
// streams past, so the build walks the filter front to back with one 5 KB
// region in L1 at a time — a purely hashed layout took a cache miss per key
// and cost four times the rest of Open on a 2 M-key run. A lookup does not
// know the rank, but the fences name its region: a region is 64 whole
// blocks, so the last region whose first key is at or below the key is the
// only place it can have been added. A lookup asks that region before it
// searches the region's fences for the block.
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

	// Open adds keys a data block at a time to its region, so a block may
	// not straddle two: this fails to compile unless blockRanks divides
	// filterRegionKeys.
	_ uint = -(filterRegionKeys % blockRanks)
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

// has reports whether key may have been added to f, which must be one
// region; false is exact.
func (f filter) has(key uint64) bool {
	block, w1, w2, m1, m2 := f.probe(key)
	return block[w1]&m1 == m1 && block[w2]&m2 == m2
}
