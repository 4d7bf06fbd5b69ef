package parallel

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Size thresholds of the three sort regimes. Below seqSortMin the stdlib
// comparison sort wins (the input is cache-resident and counting passes
// don't amortize); between seqSortMin and parSortMin the sequential LSD
// radix wins (the passes are bandwidth-bound and fork-join overhead would
// dominate); at parSortMin and above the parallel MSD partition pays off
// whenever more than one worker is available.
const (
	seqSortMin = 1 << 12
	parSortMin = 1 << 15
	// parSortChunkMin bounds parallelism so every worker keeps at least
	// this many keys per pass; smaller shares make per-worker histogram
	// zeroing and fork-join latency visible.
	parSortChunkMin = 1 << 14
)

// msdBits is the width of the most-significant digit the parallel sort
// partitions on: 2^11 digits spread even heavily skewed key distributions
// (rMat vertex IDs cluster toward zero) while the per-worker histograms
// stay L1-resident (2048 ints = 16 KiB).
const (
	msdBits    = 11
	msdBuckets = 1 << msdBits
)

// sortScratch is SortUint64's reusable memory: the scatter target, which is
// also the sequential radix's swap space, and the per-worker digit
// histograms. It is pooled, not global, because several engines' update
// paths may sort concurrently, and pooled rather than allocated per call
// because a fresh scatter target per sort costs more than the sort's own
// passes on cache-cold memory.
type sortScratch struct {
	buf  []uint64
	hist []int
}

var sortScratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

// SortUint64 sorts ks ascending using up to p workers (p <= 0 means
// parallel.Procs). Every engine's batch updater sorts packed (src,dst)
// keys, so this is on the critical path of every update figure. Small
// inputs use the stdlib comparison sort. Otherwise one or/and pass finds
// the bits in which keys differ; with one worker, or a mid-size input,
// SortSeq sorts on those bits alone; with more, ScatterByDigit partitions
// the keys on their top varying bits and the workers SortSeq the digits,
// which are independent, contiguous and already ordered relative to each
// other, claiming them largest first so a skewed digit starts at once
// rather than landing late on a busy worker.
func SortUint64(ks []uint64, p int) {
	n := len(ks)
	if n < seqSortMin {
		slices.Sort(ks)
		return
	}
	if p <= 0 {
		p = Procs
	}
	p = max(min(p, n/parSortChunkMin), 1)
	s := sortScratchPool.Get().(*sortScratch)
	defer sortScratchPool.Put(s)
	if cap(s.buf) < n {
		s.buf = make([]uint64, n)
	}
	buf := s.buf[:n]

	// The or/and reduction over static spans. buf is free until the
	// scatter, so each worker parks its two partial masks in it.
	Workers(p, func(w int) {
		or, and := uint64(0), ^uint64(0)
		for _, k := range ks[w*n/p : (w+1)*n/p] {
			or |= k
			and &= k
		}
		buf[2*w], buf[2*w+1] = or, and
	})
	or, and := uint64(0), ^uint64(0)
	for w := 0; w < p; w++ {
		or |= buf[2*w]
		and &= buf[2*w+1]
	}
	varying := or ^ and
	if p == 1 || n < parSortMin {
		SortSeq(ks, buf, varying)
		return
	}

	// The digit sits just below the highest varying bit, so the 2^11
	// digits always cover the actual key range (vertex spaces far smaller
	// than 2^64 still spread across all of them).
	shift := uint(max(bits.Len64(varying)-msdBits, 0))
	if cap(s.hist) < p*msdBuckets {
		s.hist = make([]int, p*msdBuckets)
	}
	hist := s.hist[:p*msdBuckets]
	ScatterByDigit(ks, buf, shift, msdBuckets, p, hist)
	ends := hist[(p-1)*msdBuckets:]
	// The scatter is done with the other workers' rows, so they hold the
	// non-empty digits, packed size<<msdBits | digit and sorted ascending
	// for the largest-first claim from the end.
	ord := hist[:0]
	start := 0
	for d, end := range ends {
		if end > start {
			ord = append(ord, (end-start)<<msdBits|d)
		}
		start = end
	}
	slices.Sort(ord)
	below := varying & (1<<shift - 1)
	var next atomic.Int64
	Workers(p, func(int) {
		for i := int(next.Add(1)); i <= len(ord); i = int(next.Add(1)) {
			d := ord[len(ord)-i] & (msdBuckets - 1)
			lo, hi := 0, ends[d]
			if d > 0 {
				lo = ends[d-1]
			}
			// The digit's span of ks is free, so it is the swap space.
			SortSeq(buf[lo:hi], ks[lo:hi], below)
			copy(ks[lo:hi], buf[lo:hi])
		}
	})
}

// Length bounds of SortSeq's three regimes, measured on packed edge keys
// with three or four varying bytes: insertion sort wins up to 32 keys, the
// stdlib pattern-defeating quicksort up to about 128, and from there the
// byte radix restricted to the varying bytes (256 keys: 1.8 us against 3.2).
const (
	insertionSortMax = 32
	seqRadixMin      = 128
)

// SortSeq sorts ks on the calling goroutine, for callers that sort many
// short, cache-resident runs themselves — the batch updater's per-range
// sorts, SortUint64's digits. varying must have a bit set wherever two keys may differ (all ones
// when unknown): the radix regime skips every byte without one, which on
// packed (src,dst) keys of a small vertex space is half the passes. buf is
// the radix swap space, at least len(ks) long.
func SortSeq(ks, buf []uint64, varying uint64) {
	switch n := len(ks); {
	case n <= insertionSortMax:
		insertionSortUint64(ks)
	case n < seqRadixMin:
		slices.Sort(ks)
	default:
		radixSortMasked(ks, buf[:n], varying)
	}
}

// insertionSortUint64 handles tiny runs, where an LSD pass's histograms
// would cost more than the sort itself.
func insertionSortUint64(ks []uint64) {
	for i := 1; i < len(ks); i++ {
		k := ks[i]
		j := i - 1
		for j >= 0 && ks[j] > k {
			ks[j+1] = ks[j]
			j--
		}
		ks[j+1] = k
	}
}

// radixSortMasked is the LSD radix over the bytes of ks that hold a bit of
// varying. Bytes outside the mask cost nothing; a byte inside it that is
// constant across the input anyway (common: high source-ID bytes are zero)
// costs its counting pass and skips the scatter. The sorted result always
// ends up back in ks.
func radixSortMasked(ks, buf []uint64, varying uint64) {
	src, dst := ks, buf
	for shift := uint(0); shift < 64; shift += 8 {
		if varying>>shift&0xff == 0 {
			continue
		}
		var counts [256]int
		for _, k := range src {
			counts[k>>shift&0xff]++
		}
		if counts[src[0]>>shift&0xff] == len(src) {
			continue // every key shares this byte
		}
		pos := 0
		for i := range counts {
			c := counts[i]
			counts[i] = pos
			pos += c
		}
		for _, k := range src {
			d := k >> shift & 0xff
			dst[counts[d]] = k
			counts[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ks[0] {
		copy(ks, src)
	}
}

// ScatterByDigit moves the keys of from into to (same length) grouped by
// the digit k>>shift&(R-1), R a power of two, keeping input order within a
// digit. p workers count and then scatter static spans of from through
// per-worker histograms in hist (p*R entries), so both passes are
// embarrassingly parallel and no two workers touch the same slot of to. On
// return hist[(p-1)*R+d] is the end offset of digit d's keys in to; digit
// d's keys start where digit d-1's end.
func ScatterByDigit(from, to []uint64, shift uint, R, p int, hist []int) {
	n, mask := len(from), uint64(R-1)
	Workers(p, func(w int) {
		c := hist[w*R : (w+1)*R]
		clear(c)
		for _, k := range from[w*n/p : (w+1)*n/p] {
			c[k>>shift&mask]++
		}
	})
	// Exclusive prefix over (digit, worker) turns the histograms into each
	// worker's private write offsets.
	pos := 0
	for d := 0; d < R; d++ {
		for w := 0; w < p; w++ {
			c := &hist[w*R+d]
			pos, *c = pos+*c, pos
		}
	}
	Workers(p, func(w int) {
		off := hist[w*R : (w+1)*R]
		for _, k := range from[w*n/p : (w+1)*n/p] {
			d := k >> shift & mask
			to[off[d]] = k
			off[d]++
		}
	})
}
