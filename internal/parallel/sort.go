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
// partitions on: 2^11 buckets spread even heavily skewed key distributions
// (rMat vertex IDs cluster toward zero) while the per-worker histograms
// stay L1-resident (2048 ints = 16 KiB).
const (
	msdBits    = 11
	msdBuckets = 1 << msdBits
)

// sortArena bundles every buffer the radix sorts need so that one pool Get
// amortizes them all and steady-state sorts allocate nothing. Arenas are
// pooled rather than global because SortUint64 may be called from several
// engines' update paths concurrently.
type sortArena struct {
	buf    []uint64   // scatter target / LSD swap space, len >= n
	cnt    []int      // p x msdBuckets per-worker histograms -> write offsets
	bstart []int      // per-bucket global start offset in buf
	red    []uint64   // 2 slots per worker for the or/and bit reduction
	ord    []uint64   // nonempty buckets packed size<<msdBits | bucket
	lsd    [][]uint64 // per-worker swap space for the per-bucket LSD passes
}

var sortArenas = sync.Pool{New: func() any { return new(sortArena) }}

func getSortArena(n int) *sortArena {
	a := sortArenas.Get().(*sortArena)
	if cap(a.buf) < n {
		a.buf = make([]uint64, n)
	}
	return a
}

func putSortArena(a *sortArena) { sortArenas.Put(a) }

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// SortUint64 sorts ks ascending using up to p workers (p <= 0 means
// parallel.Procs). Every engine's batch updater sorts packed (src,dst)
// keys, so this is on the critical path of every update figure. Small
// inputs use the stdlib comparison sort; mid-size inputs a sequential LSD
// radix; large inputs with p > 1 a parallel MSD partition into buckets that
// are then radix-sorted independently, largest bucket first.
func SortUint64(ks []uint64, p int) {
	n := len(ks)
	if n < seqSortMin {
		slices.Sort(ks)
		return
	}
	if p <= 0 {
		p = Procs
	}
	if p > n/parSortChunkMin {
		p = n / parSortChunkMin
	}
	a := getSortArena(n)
	defer putSortArena(a)
	if p <= 1 || n < parSortMin {
		radixSortBytes(ks, a.buf[:n], 8)
		return
	}
	parallelRadixSort(ks, p, a)
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
// sorts. varying must have a bit set wherever two keys may differ (all ones
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

// radixSortBytes sorts ks by its low byteTop bytes with an 8-bit LSD radix,
// using buf (same length) as swap space.
func radixSortBytes(ks, buf []uint64, byteTop int) {
	radixSortMasked(ks, buf, ^uint64(0)>>uint(64-8*byteTop))
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

// parallelRadixSort sorts ks with p >= 2 workers: an MSD partition on the
// top varying bits scatters keys into 2^11 buckets (per-worker histograms
// plus a stable per-worker scatter, so both passes are embarrassingly
// parallel), then the buckets — which are independent, contiguous, and
// already ordered relative to each other — are radix-sorted in parallel,
// claimed dynamically largest-first so a skewed bucket starts immediately
// rather than landing late on a busy worker.
func parallelRadixSort(ks []uint64, p int, a *sortArena) {
	n := len(ks)
	buf := a.buf[:n]
	a.red = growU64(a.red, 2*p)
	red := a.red

	// Pass 1: which bits vary at all? (or/and reduction over static spans)
	Workers(p, func(w int) {
		or, and := uint64(0), ^uint64(0)
		for _, k := range ks[w*n/p : (w+1)*n/p] {
			or |= k
			and &= k
		}
		red[2*w], red[2*w+1] = or, and
	})
	or, and := uint64(0), ^uint64(0)
	for w := 0; w < p; w++ {
		or |= red[2*w]
		and &= red[2*w+1]
	}
	varying := or ^ and
	if varying == 0 {
		return // all keys equal
	}
	// The MSD digit sits just below the highest varying bit, so the 2^11
	// buckets always cover the actual key range (vertex spaces far smaller
	// than 2^64 still spread across all buckets).
	shift := 0
	if l := bits.Len64(varying); l > msdBits {
		shift = l - msdBits
	}

	// Passes 2 and 3: scatter into buf by the MSD digit; collect the nonempty
	// buckets packed as size<<msdBits|bucket for the largest-first schedule.
	a.cnt = growInt(a.cnt, p*msdBuckets)
	ScatterByDigit(ks, buf, uint(shift), msdBuckets, p, a.cnt)
	a.bstart = growInt(a.bstart, msdBuckets)
	bstart := a.bstart
	ord := a.ord[:0]
	start := 0
	for b, end := range a.cnt[(p-1)*msdBuckets:] {
		bstart[b] = start
		if sz := end - start; sz > 0 {
			ord = append(ord, uint64(sz)<<msdBits|uint64(b))
		}
		start = end
	}
	a.ord = ord

	// Pass 4: sort each bucket by the bytes below the MSD digit and copy it
	// back to its final place in ks. Buckets are claimed dynamically from a
	// shared counter over the descending-size order.
	slices.Sort(ord)
	byteTop := (shift + 7) / 8
	if cap(a.lsd) < p {
		a.lsd = make([][]uint64, p)
	}
	a.lsd = a.lsd[:p]
	nb := len(ord)
	var next atomic.Int64
	Workers(p, func(w int) {
		scratch := a.lsd[w]
		for {
			i := int(next.Add(1)) - 1
			if i >= nb {
				break
			}
			e := ord[nb-1-i]
			b := int(e & (msdBuckets - 1))
			sz := int(e >> msdBits)
			lo := bstart[b]
			seg := buf[lo : lo+sz]
			if sz > 1 && byteTop > 0 {
				if sz <= insertionSortMax {
					insertionSortUint64(seg)
				} else {
					if cap(scratch) < sz {
						scratch = make([]uint64, sz)
					}
					radixSortBytes(seg, scratch[:sz], byteTop)
				}
			}
			copy(ks[lo:lo+sz], seg)
		}
		a.lsd[w] = scratch
	})
}
