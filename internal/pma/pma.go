// Package pma implements the Packed Memory Array (§2.2): a single ordered
// gapped array with an implicit complete binary tree of density bounds.
// Inserts land in a leaf segment; when a segment's density exceeds its upper
// bound, data is redistributed over the smallest enclosing window whose
// density is acceptable, doubling the array when even the root is too dense.
//
// It is the storage engine of the Terrace baseline and of the "PMA instead
// of RIA" ablation, and it is instrumented: Stats counts binary-search
// probes and moved elements so the harness can reproduce the search-versus-
// movement breakdown of Figure 4.
package pma

import "math/bits"

// Uint constrains the stored key type: uint32 destination IDs for
// per-vertex arrays, uint64 packed (src,dst) pairs for shared arrays.
type Uint interface {
	~uint32 | ~uint64
}

// Stats instruments one PMA. All counters are cumulative.
type Stats struct {
	// SearchProbes counts elements examined by binary searches.
	SearchProbes uint64
	// Moved counts elements copied during inserts, deletes, and
	// redistributions.
	Moved uint64
	// Redistributions counts rebalance events.
	Redistributions uint64
	// Grows counts whole-array doublings.
	Grows uint64
}

// PMA is a packed memory array of distinct keys. The zero value is not
// usable; construct with New or BulkLoad.
type PMA[K Uint] struct {
	data    []K
	present []bool
	n       int
	segSize int // leaf segment size, a power of two
	levels  int // tree height: log2(len(data)/segSize) + 1

	// Density bounds at the leaf (tighter) and the root (looser). The
	// bound for an intermediate level is linearly interpolated, the
	// classic adaptive-PMA arrangement. Terrace's configuration keeps the
	// root density within (0.125, 0.25), which is why its memory footprint
	// is 4-8x the data size (Table 3).
	rootUpper, leafUpper float64
	rootLower, leafLower float64

	Stats Stats
}

// Option tunes a PMA at construction.
type Option[K Uint] func(*PMA[K])

// WithTerraceDensity applies the loose density window (0.125, 0.25) the
// paper attributes to Terrace's PMA.
func WithTerraceDensity[K Uint]() Option[K] {
	return func(p *PMA[K]) {
		p.rootLower, p.rootUpper = 0.125, 0.25
		p.leafLower, p.leafUpper = 0.0625, 0.75
	}
}

// New returns an empty PMA.
func New[K Uint](opts ...Option[K]) *PMA[K] {
	p := &PMA[K]{
		rootLower: 0.25, rootUpper: 0.5,
		leafLower: 0.125, leafUpper: 0.875,
	}
	for _, o := range opts {
		o(p)
	}
	p.init(2 * minSegSize)
	return p
}

// BulkLoad builds a PMA from ks, which must be sorted and duplicate-free.
func BulkLoad[K Uint](ks []K, opts ...Option[K]) *PMA[K] {
	p := New(opts...)
	if len(ks) == 0 {
		return p
	}
	capacity := nextPow2(int(float64(len(ks))/p.rootUpper) + 1)
	if capacity < 2*minSegSize {
		capacity = 2 * minSegSize
	}
	p.init(capacity)
	p.n = len(ks)
	p.spread(ks, 0, len(p.data))
	return p
}

const minSegSize = 8

func (p *PMA[K]) init(capacity int) {
	p.data = make([]K, capacity)
	p.present = make([]bool, capacity)
	p.n = 0
	// Segment size ~ log2(capacity), rounded up to a power of two.
	s := nextPow2(bits.Len(uint(capacity)))
	if s < minSegSize {
		s = minSegSize
	}
	if s > capacity {
		s = capacity
	}
	p.segSize = s
	p.levels = bits.Len(uint(capacity/s-1)) + 1
}

func nextPow2(v int) int {
	if v <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(v-1))
}

// Len returns the number of stored keys.
func (p *PMA[K]) Len() int { return p.n }

// Capacity returns the size of the backing array.
func (p *PMA[K]) Capacity() int { return len(p.data) }

// Memory returns estimated resident bytes.
func (p *PMA[K]) Memory() uint64 {
	var k K
	_ = k
	elem := 4
	if uint64(^K(0)) > 1<<32 {
		elem = 8
	}
	return uint64(len(p.data)*elem + len(p.present) + 96)
}

// spread distributes ks evenly over the window [lo, hi).
func (p *PMA[K]) spread(ks []K, lo, hi int) {
	w := hi - lo
	n := len(ks)
	for i := range p.data[lo:hi] {
		p.present[lo+i] = false
	}
	for i, k := range ks {
		pos := lo + i*w/n
		p.data[pos] = k
		p.present[pos] = true
	}
	p.Stats.Moved += uint64(n)
}

// findSlot binary-searches for key k, returning the index of the smallest
// present element >= k, or hi if none. Searching over the gapped array
// probes the nearest present element per midpoint, charging Stats for each
// examined element — this reproduces the "ineffective search" behavior of
// §2.3 (data-dependent probes with poor spatial locality).
func (p *PMA[K]) findSlot(k K) (pos int, found bool) {
	lo, hi := 0, len(p.data)
	for lo < hi {
		mid := (lo + hi) / 2
		// Scan right from mid to the nearest present element.
		j := mid
		for j < hi && !p.present[j] {
			j++
		}
		p.Stats.SearchProbes += uint64(j-mid) + 1
		if j == hi {
			hi = mid
			continue
		}
		switch {
		case p.data[j] == k:
			return j, true
		case p.data[j] < k:
			lo = j + 1
		default:
			hi = mid
		}
	}
	// lo is now the frontier: every present element < k is left of lo,
	// every present element >= k is at or right of lo.
	for lo < len(p.data) && !p.present[lo] {
		lo++
	}
	return lo, false
}

// Has reports whether k is present.
func (p *PMA[K]) Has(k K) bool {
	_, found := p.findSlot(k)
	return found
}

// window returns the bounds of the level-l window containing index i
// (level 0 = leaf segment).
func (p *PMA[K]) window(i, l int) (lo, hi int) {
	w := p.segSize << l
	if w > len(p.data) {
		w = len(p.data)
	}
	lo = i / w * w
	return lo, lo + w
}

// upperAt returns the upper density bound at level l.
func (p *PMA[K]) upperAt(l int) float64 {
	if p.levels <= 1 {
		return p.rootUpper
	}
	frac := float64(l) / float64(p.levels-1)
	return p.leafUpper + (p.rootUpper-p.leafUpper)*frac
}

func (p *PMA[K]) countPresent(lo, hi int) int {
	c := 0
	for i := lo; i < hi; i++ {
		if p.present[i] {
			c++
		}
	}
	return c
}

// Insert adds k, reporting whether it was absent.
func (p *PMA[K]) Insert(k K) bool {
	pos, found := p.findSlot(k)
	if found {
		return false
	}
	// Insert before pos within its leaf segment by shifting the segment's
	// elements; if the segment is at capacity, rebalance first. pos may be
	// len(data) when k exceeds every stored key; windows are computed from
	// the clamped position.
	wpos := pos
	if wpos >= len(p.data) {
		wpos = len(p.data) - 1
	}
	lo, hi := p.window(wpos, 0)
	if p.countPresent(lo, hi) >= hi-lo {
		p.rebalanceFor(wpos, k)
		return true
	}
	p.placeInSegment(pos, lo, hi, k)
	p.n++
	return true
}

// placeInSegment inserts k at logical position pos inside segment [lo,hi)
// that has at least one free slot, shifting neighbors toward the gap.
func (p *PMA[K]) placeInSegment(pos, lo, hi int, k K) {
	// Find the nearest free slot right of pos, else left.
	r := pos
	for r < hi && p.present[r] {
		r++
	}
	if r < hi {
		copy(p.data[pos+1:r+1], p.data[pos:r])
		copy(p.present[pos+1:r+1], p.present[pos:r])
		p.data[pos] = k
		p.present[pos] = true
		p.Stats.Moved += uint64(r - pos)
		return
	}
	l := pos - 1
	for l >= lo && p.present[l] {
		l--
	}
	// pos is the first present >= k; inserting left of it keeps order.
	copy(p.data[l:pos-1], p.data[l+1:pos])
	copy(p.present[l:pos-1], p.present[l+1:pos])
	p.data[pos-1] = k
	p.present[pos-1] = true
	p.Stats.Moved += uint64(pos - 1 - l)
}

// rebalanceFor makes room around pos and inserts k, walking up the implicit
// tree to the smallest window within its density bound, redistributing (or
// doubling the array at the root).
func (p *PMA[K]) rebalanceFor(pos int, k K) {
	for l := 1; l < p.levels; l++ {
		lo, hi := p.window(pos, l)
		c := p.countPresent(lo, hi)
		if float64(c+1) <= p.upperAt(l)*float64(hi-lo) {
			ks := p.collect(lo, hi, k)
			p.spread(ks, lo, hi)
			p.Stats.Redistributions++
			p.n++
			return
		}
	}
	// Root too dense: double the array.
	ks := p.collect(0, len(p.data), k)
	p.Stats.Grows++
	p.Stats.Redistributions++
	p.init(2 * len(p.data))
	for len(ks) > int(p.rootUpper*float64(len(p.data))) {
		p.init(2 * len(p.data))
	}
	p.n = len(ks)
	p.spread(ks, 0, len(p.data))
}

// collect gathers the present elements of [lo,hi) merged with extra.
func (p *PMA[K]) collect(lo, hi int, extra K) []K {
	out := make([]K, 0, p.countPresent(lo, hi)+1)
	placed := false
	for i := lo; i < hi; i++ {
		if !p.present[i] {
			continue
		}
		if !placed && p.data[i] > extra {
			out = append(out, extra)
			placed = true
		}
		out = append(out, p.data[i])
	}
	if !placed {
		out = append(out, extra)
	}
	return out
}

// Delete removes k, reporting whether it was present. Underflowing windows
// are not compacted (deletes simply vacate the slot); the engines built on
// PMA shrink by rebuilding, as Terrace does.
func (p *PMA[K]) Delete(k K) bool {
	pos, found := p.findSlot(k)
	if !found {
		return false
	}
	p.present[pos] = false
	p.n--
	return true
}

// Blocks yields maximal runs of adjacent present slots as slices aliasing
// the backing array, in ascending order, stopping early when yield returns
// false; it reports whether the walk ran to completion. Runs are valid
// only until yield returns and must not be mutated.
func (p *PMA[K]) Blocks(yield func(block []K) bool) bool {
	n := len(p.present)
	for i := 0; i < n; {
		if !p.present[i] {
			i++
			continue
		}
		j := i + 1
		for j < n && p.present[j] {
			j++
		}
		if !yield(p.data[i:j:j]) {
			return false
		}
		i = j
	}
	return true
}

// TraverseRange applies f to every key in [from, to) in ascending order;
// the Terrace engine uses it to walk one vertex's edge range inside the
// shared array.
func (p *PMA[K]) TraverseRange(from, to K, f func(k K)) {
	pos, _ := p.findSlot(from)
	for i := pos; i < len(p.data); i++ {
		if !p.present[i] {
			continue
		}
		if p.data[i] >= to {
			return
		}
		f(p.data[i])
	}
}

// IterateFrom applies f to every present key starting at backing-array
// index start, in ascending order, until f returns false. It exposes
// positions so callers can build offset indexes over the gapped array, as
// Terrace's offset array does over its PMA.
func (p *PMA[K]) IterateFrom(start int, f func(pos int, k K) bool) {
	for i := start; i < len(p.data); i++ {
		if p.present[i] && !f(i, p.data[i]) {
			return
		}
	}
}

// ReadRange copies into dst, in ascending order, the present keys below to
// found from backing-array index start on, until dst is full. It returns
// how many it copied and the index to resume from; n < len(dst) means the
// keys below to are exhausted.
func (p *PMA[K]) ReadRange(start int, to K, dst []K) (n, next int) {
	i := start
	for ; i < len(p.data) && n < len(dst); i++ {
		if !p.present[i] {
			continue
		}
		if p.data[i] >= to {
			break
		}
		dst[n] = p.data[i]
		n++
	}
	return n, i
}

// RangeMin returns the smallest key in [from, to), if any; the Terrace
// engine uses it to pull a vertex's overflow minimum back into its vertex
// block after an inline delete.
func (p *PMA[K]) RangeMin(from, to K) (K, bool) {
	pos, _ := p.findSlot(from)
	for i := pos; i < len(p.data); i++ {
		if !p.present[i] {
			continue
		}
		if p.data[i] >= to {
			break
		}
		return p.data[i], true
	}
	var zero K
	return zero, false
}

// CountRange returns the number of keys in [from, to).
func (p *PMA[K]) CountRange(from, to K) int {
	pos, _ := p.findSlot(from)
	c := 0
	for i := pos; i < len(p.data); i++ {
		if !p.present[i] {
			continue
		}
		if p.data[i] >= to {
			break
		}
		c++
	}
	return c
}

// AppendTo appends every key in ascending order to dst.
func (p *PMA[K]) AppendTo(dst []K) []K {
	for i, ok := range p.present {
		if ok {
			dst = append(dst, p.data[i])
		}
	}
	return dst
}

// Min returns the smallest key; p must be non-empty.
func (p *PMA[K]) Min() K {
	for i, ok := range p.present {
		if ok {
			return p.data[i]
		}
	}
	panic("pma: Min of empty PMA")
}

// DeleteMin removes and returns the smallest key; p must be non-empty.
func (p *PMA[K]) DeleteMin() K {
	for i, ok := range p.present {
		if ok {
			p.present[i] = false
			p.n--
			return p.data[i]
		}
	}
	panic("pma: DeleteMin of empty PMA")
}
