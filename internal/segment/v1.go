package segment

import (
	"encoding/binary"
	"sort"
)

// CHAMSEG1, the format before CHAMSEG2, read-only: a 64-byte header (the
// CHAMSEG2 header without the data-section length), then n×8 keys, n×8
// values, and the same tombstone bitmap, model section and footer. Only the
// steps that touch the key and value arrays live here; the fence, filter
// and tombstone code is shared (a v1 file's fences are every 64th key, the
// first keys of the blocks an iterator decodes). Nothing writes this format
// any more: a compaction that takes a CHAMSEG1 file writes its entries as
// CHAMSEG2.

const (
	magicV1      = "CHAMSEG1"
	versionV1    = 1
	headerSizeV1 = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 4 // 64
)

// fileSizeV1 is the length of a CHAMSEG1 file of n entries and an m-piece
// model section.
func fileSizeV1(n uint64, m int) int64 {
	return headerSizeV1 + int64(n)*16 + int64((n+7)/8) + int64(m)*pieceSize + footerSize
}

// keysV1 streams the key section — checking the keys strictly ascending
// from the header's min to its max, adding them to the filter and taking
// every blockRanks-th as a fence — and then the value section, which only
// the CRC reads. It returns the fences.
func (l *loader) keysV1(m *Meta, flt filter) ([]uint64, error) {
	buf := l.buf[:iterChunk*8]
	fences := make([]uint64, numBlocks(m.Count))
	var prev uint64
	for done := uint64(0); done < m.Count; {
		n := min(iterChunk, m.Count-done)
		b := buf[:n*8]
		if err := l.read(b, "key section"); err != nil {
			return nil, err
		}
		region := flt.region(done)
		for i := uint64(0); i < n; i++ {
			k := binary.LittleEndian.Uint64(b[i*8:])
			if done+i == 0 {
				if k != m.MinKey {
					return nil, l.corrupt("first key differs from header min")
				}
			} else if k <= prev {
				return nil, l.corrupt("keys not strictly ascending")
			}
			if r := done + i; r%blockRanks == 0 {
				fences[r/blockRanks] = k
			}
			prev = k
			region.add(k)
		}
		done += n
	}
	if m.Count > 0 && prev != m.MaxKey {
		return nil, l.corrupt("last key differs from header max")
	}
	if err := l.skip(int(m.Count)*8, "value section"); err != nil {
		return nil, err
	}
	return fences, nil
}

// findV1 looks key up in block b of a CHAMSEG1 run: one pread of the
// block's keys, a binary search, and on a live hit a second pread for the
// value.
func (r *Reader) findV1(key uint64, b int) (rank int, val uint64, ok bool, err error) {
	lo, n := b*blockRanks, r.blockLen(b)
	var keys [blockRanks * 8]byte
	buf := keys[:n*8]
	if err := r.pread(buf, headerSizeV1+int64(lo)*8); err != nil {
		return 0, 0, false, err
	}
	i := sort.Search(n, func(i int) bool {
		return binary.LittleEndian.Uint64(buf[i*8:]) >= key
	})
	if i == n || binary.LittleEndian.Uint64(buf[i*8:]) != key {
		return 0, 0, false, nil
	}
	rank = lo + i
	if r.tomb(uint64(rank)) {
		return rank, 0, true, nil
	}
	var vb [8]byte
	if err := r.pread(vb[:], r.valOffV1(rank)); err != nil {
		return 0, 0, false, err
	}
	return rank, binary.LittleEndian.Uint64(vb[:]), true, nil
}

func (r *Reader) valOffV1(rank int) int64 {
	return headerSizeV1 + int64(r.meta.Count)*8 + int64(rank)*8
}

// fetchV1 reads the keys, then the values, of the ranks blocks [first,
// last) cover into it.chunk, keys first.
func (it *Iter) fetchV1(first, last int) error {
	r := it.r
	lo, hi := first*blockRanks, min(last*blockRanks, int(r.meta.Count))
	n := (hi - lo) * 8
	if cap(it.chunk) < 2*n {
		it.chunk = make([]byte, 2*n)
	}
	it.chunk = it.chunk[:2*n]
	if err := r.pread(it.chunk[:n], headerSizeV1+int64(lo)*8); err != nil {
		return err
	}
	if err := r.pread(it.chunk[n:], r.valOffV1(lo)); err != nil {
		return err
	}
	it.first, it.last = first, last
	return nil
}

// decodeV1 copies block b's k keys and values out of the chunk.
func (it *Iter) decodeV1(b, k int) {
	keys, vals := it.chunk[:len(it.chunk)/2], it.chunk[len(it.chunk)/2:]
	off := (b - it.first) * blockRanks * 8
	for j := 0; j < k; j++ {
		it.keys[j] = binary.LittleEndian.Uint64(keys[off+8*j:])
		it.vals[j] = binary.LittleEndian.Uint64(vals[off+8*j:])
	}
}
