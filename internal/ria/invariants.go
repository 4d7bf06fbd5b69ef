package ria

import "fmt"

// CheckInvariants walks the whole structure and verifies every invariant
// the package documents; it returns a descriptive error on the first
// violation. It is the deep validator behind internal/check's randomized
// correctness harness, and deliberately re-derives everything from raw
// storage rather than going through the read paths it is checking.
//
// Checked:
//   - storage shape: len(data) == NumBlocks*BlockSize, index and cnt
//     arrays sized to the block count, block counts within [0, BlockSize],
//     and the per-block counts summing to Len,
//   - no-empty-block: every block holds at least one element while the
//     array is non-empty,
//   - ordering: elements within a block strictly ascending, packed at the
//     block front, and the last element of each block preceding the first
//     element of the next,
//   - index redundancy: index[b] equals the first element of block b,
//   - density: the array at least 1/(2α) full, so that deletes have given
//     back every block an α-amplified load of the elements would not use
//     twice over,
//   - the reserved value 2^32-1 never appearing as an element.
func (r *RIA) CheckInvariants() error {
	nb := len(r.cnt)
	if nb == 0 {
		return fmt.Errorf("ria: zero blocks")
	}
	if len(r.data) != nb*BlockSize {
		return fmt.Errorf("ria: data length %d != %d blocks * %d", len(r.data), nb, BlockSize)
	}
	if len(r.index) != nb {
		return fmt.Errorf("ria: index length %d != block count %d", len(r.index), nb)
	}
	if want := r.blocksFor(r.n); 2*want <= nb {
		return fmt.Errorf("ria: %d blocks for %d elements, a load at α=%g takes %d (missed shrink)", nb, r.n, r.alpha, want)
	}
	total := 0
	var prev uint32
	havePrev := false
	for b := 0; b < nb; b++ {
		c := int(r.cnt[b])
		if c > BlockSize {
			return fmt.Errorf("ria: block %d count %d exceeds block size %d", b, c, BlockSize)
		}
		if c == 0 && r.n > 0 {
			return fmt.Errorf("ria: block %d empty while array holds %d elements", b, r.n)
		}
		base := b * BlockSize
		for i := 0; i < c; i++ {
			v := r.data[base+i]
			if v == ^uint32(0) {
				return fmt.Errorf("ria: block %d slot %d holds the reserved value 2^32-1", b, i)
			}
			if havePrev && v <= prev {
				return fmt.Errorf("ria: block %d slot %d: element %d not above predecessor %d", b, i, v, prev)
			}
			prev, havePrev = v, true
		}
		if c > 0 && r.index[b] != r.data[base] {
			return fmt.Errorf("ria: index[%d]=%d != first element %d", b, r.index[b], r.data[base])
		}
		total += c
	}
	if total != r.n {
		return fmt.Errorf("ria: block counts sum to %d but Len is %d", total, r.n)
	}
	return nil
}
