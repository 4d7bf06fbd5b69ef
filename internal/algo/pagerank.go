package algo

import (
	"lsgraph/internal/engine"
	"lsgraph/internal/parallel"
)

// PageRankDamping is the standard damping factor.
const PageRankDamping = 0.85

// padF64 is a float64 padded out to a 64-byte cache line, so per-worker
// accumulator slots in a slice never share a line (no false sharing).
type padF64 struct {
	v float64
	_ [56]byte
}

// PageRank runs iters synchronous pull-style iterations (Ligra-style, as
// in the paper's evaluation; iters <= 0 means 10) with p workers and
// returns the rank vector. Pull over neighbors reads each vertex's
// in-contributions without atomics; dangling mass is redistributed evenly
// each iteration so ranks stay a probability distribution. The gather is a
// sweep: one NeighborRange per chunk, and out-degrees are read once per
// run, since the graph does not change under a kernel. A vertex's
// contributions are summed in neighbor order across its blocks, so the
// ranks do not depend on how an engine cuts adjacency into blocks.
func PageRank(g engine.Graph, iters, p int) []float64 {
	if iters <= 0 {
		iters = 10
	}
	t := obsPR.begin()
	n := int(g.NumVertices())
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	contrib := make([]float64, n) // rank[u] / degree(u), precomputed per iter
	next := make([]float64, n)
	deg := make([]uint32, n)
	inv := 1.0 / float64(n)
	parallel.ForChunkW(n, p, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			rank[v] = inv
			deg[v] = g.Degree(uint32(v))
		}
	})
	// One cache-line-padded accumulator slot per worker: ForChunkW runs one
	// goroutine per worker index, so each slot is written by exactly one
	// goroutine — no atomics, no false sharing, and (unlike the old
	// hash-by-chunk-index scheme) no collisions between workers.
	danglingParts := make([]padF64, workers(p))
	for it := 0; it < iters; it++ {
		for i := range danglingParts {
			danglingParts[i].v = 0
		}
		parallel.ForChunkW(n, p, func(w, lo, hi int) {
			var dangling float64
			for v := lo; v < hi; v++ {
				d := deg[v]
				if d == 0 {
					dangling += rank[v]
					contrib[v] = 0
					continue
				}
				contrib[v] = rank[v] / float64(d)
			}
			danglingParts[w].v += dangling
		})
		var dangling float64
		for i := range danglingParts {
			dangling += danglingParts[i].v
		}
		base := (1-PageRankDamping)*inv + PageRankDamping*dangling*inv
		parallel.ForChunkW(n, p, func(_, lo, hi int) {
			// One range read per chunk: the yield sees each vertex's blocks
			// in turn (an empty one for a vertex without edges) and writes
			// the finished vertex's rank when the next one starts. The
			// captured sum lives on the heap, so each block sums into a
			// register-local and spills once.
			cur, acc := uint32(lo), 0.0
			g.NeighborRange(uint32(lo), uint32(hi), func(v uint32, bs []uint32) bool {
				if v != cur {
					next[cur] = base + PageRankDamping*acc
					cur, acc = v, 0
				}
				s := acc
				for _, u := range bs {
					s += contrib[u]
				}
				acc = s
				return true
			})
			next[cur] = base + PageRankDamping*acc
		})
		rank, next = next, rank
	}
	// Pull-style iterations read every edge exactly once per iteration.
	obsPR.done(t, uint64(iters)*g.NumEdges())
	return rank
}
