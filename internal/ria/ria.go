// Package ria implements the Redundant Indexed Array of LSGraph §3.1: an
// ordered gapped array organized as cache-line-sized blocks plus a compact
// index array holding the first element of every block.
//
// Unlike a PMA, blocks keep no per-block density bound; elements are packed
// at the front of each block with the unused gap at the back, so a search
// touches exactly two cache lines (one index probe, one block scan) and an
// insert moves at most a block's worth of data unless its block is full.
// When a block is full the near-block move of §3.2 shifts one element per
// block across at most log2(#blocks) neighboring blocks (bounded horizontal
// movement); if that fails the whole array is rebuilt with the space
// amplification factor α.
//
// Invariants:
//   - every block is non-empty (bulk load distributes evenly; deletes pull
//     an element from an adjacent block or trigger a redistribution),
//   - the array is never less than 1/(2α) full: an α-amplified load of its
//     elements would take more than half its blocks,
//   - elements within a block are sorted and packed at the block front,
//   - index[b] == first element of block b, so index is globally sorted,
//   - the value 2^32-1 is reserved (never a valid element).
package ria

import (
	"math"
	"unsafe"
)

// BlockSize is the number of uint32 elements per block: 16 × 4 B = one
// 64-byte cache line, the paper's BKS.
const BlockSize = 16

// DefaultAlpha is the paper's default space amplification factor.
const DefaultAlpha = 1.2

// RIA is a redundant indexed gapped array of distinct uint32 keys.
// The zero value is not usable; construct with New or BulkLoad.
type RIA struct {
	data  []uint32 // len = numBlocks*BlockSize
	index []uint32 // first element of each block
	cnt   []uint16 // live elements per block (packed at block front)
	n     int      // total live elements
	alpha float64

	// Moved counts elements displaced by inserts/deletes since creation;
	// the ablation and motivation experiments read it.
	Moved uint64
}

// New returns an empty RIA with one block.
func New(alpha float64) *RIA {
	if alpha <= 1.0 {
		alpha = DefaultAlpha
	}
	return &RIA{
		data:  make([]uint32, BlockSize),
		index: make([]uint32, 1),
		cnt:   make([]uint16, 1),
		alpha: alpha,
	}
}

// BulkLoad builds an RIA from ns, which must be sorted ascending and
// duplicate-free. Capacity is ceil(len(ns)·α) rounded up to whole blocks and
// elements are distributed evenly so no block is empty (Algorithm 1,
// lines 2-5).
func BulkLoad(ns []uint32, alpha float64) *RIA {
	if alpha <= 1.0 {
		alpha = DefaultAlpha
	}
	r := &RIA{alpha: alpha}
	r.loadInto(ns)
	return r
}

// blocksFor returns the number of blocks an α-amplified load of n elements
// takes: ceil(n·α) slots rounded up to whole blocks, at least one.
func (r *RIA) blocksFor(n int) int {
	slots := max(int(math.Ceil(float64(n)*r.alpha)), n, 1)
	return (slots + BlockSize - 1) / BlockSize
}

// loadInto (re)initializes r's storage from the sorted slice ns.
func (r *RIA) loadInto(ns []uint32) {
	n, nb := len(ns), r.blocksFor(len(ns))
	r.data = make([]uint32, nb*BlockSize)
	r.index = make([]uint32, nb)
	r.cnt = make([]uint16, nb)
	r.n = n
	// Distribute evenly: block b receives elements [b*n/nb, (b+1)*n/nb).
	// Since BlockSize > α we always have n >= nb when n > 0, so every block
	// receives at least one element.
	for b := 0; b < nb; b++ {
		lo, hi := b*n/nb, (b+1)*n/nb
		copy(r.data[b*BlockSize:], ns[lo:hi])
		r.cnt[b] = uint16(hi - lo)
		if hi > lo {
			r.index[b] = ns[lo]
		}
	}
}

// Len returns the number of elements stored.
func (r *RIA) Len() int { return r.n }

// Alpha returns the space amplification factor.
func (r *RIA) Alpha() float64 { return r.alpha }

// NumBlocks returns the number of blocks in the gapped array.
func (r *RIA) NumBlocks() int { return len(r.cnt) }

// findBlock returns the block that does or should contain u: the last block
// whose index is <= u, or block 0 when u precedes everything.
func (r *RIA) findBlock(u uint32) int {
	lo, hi := 0, len(r.index)-1
	if r.n == 0 || u <= r.index[0] {
		return 0
	}
	// Invariant: index[lo] <= u; index[hi+1] > u (conceptually).
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if r.index[mid] <= u {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Has reports whether u is present.
func (r *RIA) Has(u uint32) bool {
	if r.n == 0 {
		return false
	}
	b := r.findBlock(u)
	base := b * BlockSize
	for i := 0; i < int(r.cnt[b]); i++ {
		v := r.data[base+i]
		if v == u {
			return true
		}
		if v > u {
			return false
		}
	}
	return false
}

// Insert adds u, reporting whether it was absent. The sequence is the
// paper's Algorithm 2, RIA branch: try the block, then near-block moves
// bounded by log2(#blocks), then an α-amplified redistribution.
func (r *RIA) Insert(u uint32) bool {
	if r.n == 0 {
		r.data[0] = u
		r.index[0] = u
		r.cnt[0] = 1
		r.n = 1
		return true
	}
	b := r.findBlock(u)
	base := b * BlockSize
	c := int(r.cnt[b])
	// Position of u within the block.
	pos := 0
	for pos < c {
		v := r.data[base+pos]
		if v == u {
			return false
		}
		if v > u {
			break
		}
		pos++
	}
	if c < BlockSize {
		copy(r.data[base+pos+1:base+c+1], r.data[base+pos:base+c])
		r.data[base+pos] = u
		r.cnt[b]++
		r.Moved += uint64(c - pos)
		if pos == 0 {
			r.index[b] = u
		}
		r.n++
		return true
	}
	if r.moveNearBlocks(b, u) {
		r.n++
		return true
	}
	// Expand: merge all elements with u and redistribute (lines 10-12).
	ns := insertSorted(r.AppendTo(make([]uint32, 0, r.n+1)), u)
	r.Moved += uint64(len(ns))
	r.loadInto(ns)
	return true
}

// moveNearBlocks frees one slot for u by cascading single elements through
// up to log2(#blocks) neighbors on the right, then the left (the greedy
// bounded horizontal movement of §3.2). It reports whether u was placed.
func (r *RIA) moveNearBlocks(b int, u uint32) bool {
	nb := len(r.cnt)
	bound := 1
	for 1<<bound < nb {
		bound++
	}
	// Try right side: find nearest non-full block within bound.
	for d := 1; d <= bound && b+d < nb; d++ {
		if int(r.cnt[b+d]) < BlockSize {
			r.shiftRight(b, b+d, u)
			return true
		}
	}
	for d := 1; d <= bound && b-d >= 0; d++ {
		if int(r.cnt[b-d]) < BlockSize {
			r.shiftLeft(b-d, b, u)
			return true
		}
	}
	return false
}

// shiftRight inserts u into full block b by cascading the running maximum
// rightward: the largest of block∪{u} overflows to the front of the next
// block, repeating until the non-full block dst absorbs one element.
func (r *RIA) shiftRight(b, dst int, u uint32) {
	carry := u
	for blk := b; blk < dst; blk++ {
		base := blk * BlockSize
		c := int(r.cnt[blk])
		last := r.data[base+c-1]
		if carry >= last {
			// carry is the block's new maximum; it moves on unchanged and
			// the block itself is untouched (only possible for blk == b).
			continue
		}
		// Evict the maximum, insert carry in order.
		pos := c - 1
		for pos > 0 && r.data[base+pos-1] > carry {
			r.data[base+pos] = r.data[base+pos-1]
			pos--
		}
		r.data[base+pos] = carry
		r.Moved += uint64(c - pos)
		if pos == 0 {
			r.index[blk] = carry
		}
		carry = last
	}
	// Prepend carry into dst (it precedes everything there).
	base := dst * BlockSize
	c := int(r.cnt[dst])
	copy(r.data[base+1:base+c+1], r.data[base:base+c])
	r.data[base] = carry
	r.index[dst] = carry
	r.cnt[dst]++
	r.Moved += uint64(c + 1)
}

// shiftLeft inserts u into full block b by cascading the running minimum
// leftward into the non-full block dst (dst < b).
func (r *RIA) shiftLeft(dst, b int, u uint32) {
	carry := u
	for blk := b; blk > dst; blk-- {
		base := blk * BlockSize
		c := int(r.cnt[blk])
		first := r.data[base]
		if carry <= first {
			// carry is the block's new minimum; it moves on unchanged.
			continue
		}
		// Evict the minimum, insert carry in order.
		pos := 0
		for pos < c-1 && r.data[base+pos+1] < carry {
			r.data[base+pos] = r.data[base+pos+1]
			pos++
		}
		r.data[base+pos] = carry
		r.Moved += uint64(pos + 1)
		r.index[blk] = r.data[base]
		carry = first
	}
	// Append carry at the end of dst (it follows everything there).
	base := dst * BlockSize
	c := int(r.cnt[dst])
	r.data[base+c] = carry
	r.cnt[dst]++
	r.Moved++
	if c == 0 {
		r.index[dst] = carry
	}
}

// Delete removes u, reporting whether it was present. A block emptied by
// the delete pulls one element from an adjacent block, or redistributes the
// whole array when neither neighbor can spare one, preserving the
// no-empty-block invariant; an array left less than 1/(2α) full is reloaded
// at α, so its footprint follows its size down as well as up.
func (r *RIA) Delete(u uint32) bool {
	if r.n == 0 {
		return false
	}
	b := r.findBlock(u)
	base := b * BlockSize
	c := int(r.cnt[b])
	pos := -1
	for i := 0; i < c; i++ {
		if r.data[base+i] == u {
			pos = i
			break
		}
		if r.data[base+i] > u {
			return false
		}
	}
	if pos < 0 {
		return false
	}
	copy(r.data[base+pos:base+c-1], r.data[base+pos+1:base+c])
	r.cnt[b]--
	r.n--
	r.Moved += uint64(c - 1 - pos)
	if 2*r.n < len(r.data) && 2*r.blocksFor(r.n) <= len(r.cnt) {
		// Occupancy fell below 1/(2α): reload at α, which halves the blocks
		// or better, so deletes give memory back at an amortized O(1) moves
		// each — the mirror image of insert's expand.
		r.reload()
		return true
	}
	if r.n == 0 {
		return true
	}
	if r.cnt[b] == 0 {
		r.refill(b)
	} else if pos == 0 {
		r.index[b] = r.data[base]
	}
	return true
}

// refill restores the no-empty-block invariant after block b emptied.
func (r *RIA) refill(b int) {
	nb := len(r.cnt)
	if b+1 < nb && r.cnt[b+1] >= 2 {
		// Pull the successor block's first element.
		nbase := (b + 1) * BlockSize
		v := r.data[nbase]
		c := int(r.cnt[b+1])
		copy(r.data[nbase:nbase+c-1], r.data[nbase+1:nbase+c])
		r.cnt[b+1]--
		r.index[b+1] = r.data[nbase]
		r.data[b*BlockSize] = v
		r.cnt[b] = 1
		r.index[b] = v
		r.Moved += uint64(c)
		return
	}
	if b > 0 && r.cnt[b-1] >= 2 {
		// Pull the predecessor block's last element.
		pbase := (b - 1) * BlockSize
		c := int(r.cnt[b-1])
		v := r.data[pbase+c-1]
		r.cnt[b-1]--
		r.data[b*BlockSize] = v
		r.cnt[b] = 1
		r.index[b] = v
		r.Moved++
		return
	}
	// Neighbors cannot spare an element: redistribute everything.
	r.reload()
}

// reload redistributes the elements evenly over an α-amplified array.
func (r *RIA) reload() {
	ns := r.AppendTo(make([]uint32, 0, r.n))
	r.Moved += uint64(len(ns))
	r.loadInto(ns)
}

// Min returns the smallest element; r must be non-empty.
func (r *RIA) Min() uint32 { return r.data[0] }

// Max returns the largest element; r must be non-empty.
func (r *RIA) Max() uint32 {
	b := len(r.cnt) - 1
	return r.data[b*BlockSize+int(r.cnt[b])-1]
}

// DeleteMin removes and returns the smallest element; r must be non-empty.
func (r *RIA) DeleteMin() uint32 {
	v := r.Min()
	r.Delete(v)
	return v
}

// Blocks yields the occupied run of every non-empty block as a slice
// aliasing the backing array, in ascending order, coalescing runs of
// completely full adjacent blocks into one segment (gaps live at block
// backs, so a full block is contiguous with its successor's front). It
// stops early when yield returns false and reports whether the walk ran
// to completion. Yielded slices are capacity-clamped and must not be
// mutated or retained past the yield call.
func (r *RIA) Blocks(yield func(block []uint32) bool) bool {
	nb := len(r.cnt)
	for b := 0; b < nb; {
		c := int(r.cnt[b])
		if c == 0 {
			b++
			continue
		}
		start := b * BlockSize
		end := start + c
		for c == BlockSize && b+1 < nb && r.cnt[b+1] != 0 {
			b++
			c = int(r.cnt[b])
			end = b*BlockSize + c
		}
		b++
		if !yield(r.data[start:end:end]) {
			return false
		}
	}
	return true
}

// AppendTo appends all elements in ascending order to dst and returns it.
func (r *RIA) AppendTo(dst []uint32) []uint32 {
	for b := 0; b < len(r.cnt); b++ {
		base := b * BlockSize
		dst = append(dst, r.data[base:base+int(r.cnt[b])]...)
	}
	return dst
}

// Memory returns the structure's resident bytes.
func (r *RIA) Memory() uint64 {
	return uint64(len(r.data)*4+len(r.index)*4+len(r.cnt)*2) + uint64(unsafe.Sizeof(*r))
}

// IndexMemory returns the bytes spent on the redundant index array, the
// quantity Table 3 reports as index overhead.
func (r *RIA) IndexMemory() uint64 { return uint64(len(r.index) * 4) }

// insertSorted inserts u into sorted ns, returning the extended slice.
func insertSorted(ns []uint32, u uint32) []uint32 {
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	ns = append(ns, 0)
	copy(ns[lo+1:], ns[lo:])
	ns[lo] = u
	return ns
}
