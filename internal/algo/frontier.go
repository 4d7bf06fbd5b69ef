package algo

import (
	"lsgraph/internal/parallel"
)

// workers returns an upper bound on the worker indexes parallel.ForChunkW
// and ForBlockedW can pass to their bodies for a requested parallelism p,
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

// frontierBuf is one worker's share of a collectFrontier pass: the
// vertices its range holds and their degree total, padded to a cache line
// so neighbouring workers' totals never share one.
type frontierBuf struct {
	ids []uint32
	deg uint64
	_   [32]byte
}

// frontierBufs is the per-worker scratch of collectFrontier, allocated
// once per kernel run so the per-level rebuild allocates nothing in
// steady state.
func frontierBufs(p int) []frontierBuf {
	return make([]frontierBuf, workers(p))
}

// collectFrontier rebuilds a frontier from the next-flag array: it
// appends to dst (reset to length 0) every index whose flag is set
// (non-zero), in ascending order. Flags are bool where one worker sets each
// (BFS claims a vertex by CAS first) and uint32 where several may and so
// must store atomically (CC). The flag array is cut into one contiguous
// range per worker, each scanned into its own buffer from bufs, and the
// buffers are concatenated in range order — so the result is identical to
// the sequential scan but the per-level rebuild no longer serializes
// high-diameter graphs. When deg is non-nil it also returns the degree
// total of the new frontier — BFS's direction heuristic and the kernels'
// traversed-edge estimate — each worker summing the vertices it appends;
// otherwise the total is 0.
func collectFrontier[F bool | uint32](dst []uint32, next []F, bufs []frontierBuf, p int, deg func(uint32) uint32) ([]uint32, uint64) {
	n := len(next)
	k := len(bufs)
	if k > n/collectSeqThreshold {
		k = n / collectSeqThreshold
	}
	if k <= 1 || p == 1 {
		return collectRange(dst, next, 0, n, deg)
	}
	parallel.ForBlockedW(k, k, func(_, b int) {
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
func collectRange[F bool | uint32](dst []uint32, next []F, lo, hi int, deg func(uint32) uint32) ([]uint32, uint64) {
	var unset F
	dst = dst[:0]
	var sum uint64
	for v := lo; v < hi; v++ {
		if next[v] != unset {
			dst = append(dst, uint32(v))
			if deg != nil {
				sum += uint64(deg(uint32(v)))
			}
		}
	}
	return dst, sum
}
