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

// frontierBufs is the per-worker scratch of collectFrontier, allocated
// once per kernel run so the per-level rebuild allocates nothing in
// steady state.
func frontierBufs(p int) [][]uint32 {
	return make([][]uint32, workers(p))
}

// collectFrontier rebuilds a frontier from the next-flag array: it
// appends to dst (reset to length 0) every index whose flag is set
// (non-zero), in ascending order. Flags are bool where one worker sets each
// (BFS claims a vertex by CAS first) and uint32 where several may and so
// must store atomically (CC). The flag array is cut into one contiguous
// range per worker, each scanned into its own buffer from bufs, and the
// buffers are concatenated in range order — so the result is identical to
// the sequential scan but the per-level rebuild no longer serializes
// high-diameter graphs (the satellite fix to BFS's `for v, ok := range
// next` loop).
func collectFrontier[F bool | uint32](dst []uint32, next []F, bufs [][]uint32, p int) []uint32 {
	var unset F
	n := len(next)
	dst = dst[:0]
	k := len(bufs)
	if k > n/collectSeqThreshold {
		k = n / collectSeqThreshold
	}
	if k <= 1 || p == 1 {
		for v, f := range next {
			if f != unset {
				dst = append(dst, uint32(v))
			}
		}
		return dst
	}
	parallel.ForBlockedW(k, k, func(_, b int) {
		lo, hi := b*n/k, (b+1)*n/k
		buf := bufs[b][:0]
		for v := lo; v < hi; v++ {
			if next[v] != unset {
				buf = append(buf, uint32(v))
			}
		}
		bufs[b] = buf
	})
	for b := 0; b < k; b++ {
		dst = append(dst, bufs[b]...)
	}
	return dst
}
