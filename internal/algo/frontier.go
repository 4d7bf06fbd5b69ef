package algo

import (
	"slices"

	"lsgraph/internal/parallel"
)

// workers returns an upper bound on the worker indexes parallel.ForChunkW
// can pass to its body for a requested parallelism p,
// for sizing per-worker state.
func workers(p int) int {
	if p <= 0 {
		return parallel.Procs
	}
	return p
}

// collectSeqThreshold is the flag-array size below which collectFrontier
// scans sequentially; tiny graphs don't repay the fork-join.
const collectSeqThreshold = 4096

// frontierBuf is one worker's share of the next frontier: the vertices it
// queued and their degree total, padded to a cache line so neighbouring
// workers' totals never share one. BFS and BC fill it in the step that
// claims a vertex, CC in its collectFrontier range.
type frontierBuf struct {
	ids []uint32
	deg uint64
	_   [32]byte
}

// frontierBufs is a kernel run's per-worker scratch, one buffer for every
// worker index parallel.ForChunkW can pass, allocated once
// per run so the per-level rebuild allocates nothing in steady state.
func frontierBufs(p int) []frontierBuf {
	return make([]frontierBuf, workers(p))
}

// joinFrontier appends every buffer's vertices to dst, in worker order,
// and returns it with their degree total; the buffers are left empty for
// the next level. dst must not share storage with a buffer.
func joinFrontier(dst []uint32, bufs []frontierBuf) ([]uint32, uint64) {
	k := 0
	for b := range bufs {
		k += len(bufs[b].ids)
	}
	dst = slices.Grow(dst, k)
	var total uint64
	for b := range bufs {
		dst = append(dst, bufs[b].ids...)
		total += bufs[b].deg
		bufs[b].ids, bufs[b].deg = bufs[b].ids[:0], 0
	}
	return dst, total
}

// collectFrontier rebuilds CC's frontier from its changed flags: it
// appends to dst (reset to length 0) every index whose flag is non-zero,
// in ascending order. Several workers may lower one label in a round, so
// the flags are uint32 stored atomically and a vertex cannot be queued by
// the write that sets its flag. The flag array is cut into one contiguous
// range per worker, each scanned into its own buffer from bufs, and the
// buffers are concatenated in range order — so the result is identical to
// the sequential scan but the rebuild no longer serializes high-diameter
// graphs. When deg is non-nil it also returns the degree total of the new
// frontier, the kernel's traversed-edge estimate, each worker summing the
// vertices it appends; otherwise the total is 0.
func collectFrontier(dst, next []uint32, bufs []frontierBuf, p int, deg func(uint32) uint32) ([]uint32, uint64) {
	n := len(next)
	k := len(bufs)
	if k > n/collectSeqThreshold {
		k = n / collectSeqThreshold
	}
	if k <= 1 || p == 1 {
		return collectRange(dst, next, 0, n, deg)
	}
	parallel.Workers(k, func(b int) {
		bufs[b].ids, bufs[b].deg = collectRange(bufs[b].ids, next, b*n/k, (b+1)*n/k, deg)
	})
	dst = dst[:0]
	var total uint64
	for b := range bufs[:k] {
		dst = append(dst, bufs[b].ids...)
		total += bufs[b].deg
	}
	return dst, total
}

// collectRange is one worker's part of collectFrontier: it refills dst
// with the set indexes of next[lo:hi] and, when deg is non-nil, sums their
// degrees.
func collectRange(dst, next []uint32, lo, hi int, deg func(uint32) uint32) ([]uint32, uint64) {
	dst = dst[:0]
	var sum uint64
	for v := lo; v < hi; v++ {
		if next[v] != 0 {
			dst = append(dst, uint32(v))
			if deg != nil {
				sum += uint64(deg(uint32(v)))
			}
		}
	}
	return dst, sum
}
