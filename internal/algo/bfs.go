// Package algo implements the five analytics kernels of the evaluation —
// BFS, single-source betweenness centrality, PageRank, connected
// components, and triangle counting — against the engine-neutral Graph
// interface, so LSGraph and the three baselines run identical code above
// the storage layer (the paper layers Ligra-style EdgeMap over each
// system the same way).
//
// The kernels assume the input is symmetrized (every edge stored in both
// directions), as in the paper's evaluation; direction-optimizing BFS and
// pull-style PageRank read neighbor lists as in-edges under that
// assumption.
package algo

import (
	"sync/atomic"

	"lsgraph/internal/engine"
	"lsgraph/internal/parallel"
)

// NoParent marks unreached vertices in BFS/BC parent and depth arrays.
const NoParent = int32(-1)

// BFS runs a direction-optimizing (push/pull hybrid) parallel breadth-first
// search from src using p workers (p <= 0 means GOMAXPROCS) and returns the
// parent array, NoParent for unreached vertices (src is its own parent). A
// src outside the graph reaches nothing.
func BFS(g engine.Graph, src uint32, p int) []int32 {
	return bfs(g, src, p, false, obsBFS)
}

// BFSLevels runs the same search as BFS and returns each vertex's depth
// from src, NoParent if unreached.
func BFSLevels(g engine.Graph, src uint32, p int) []int32 {
	return bfs(g, src, p, true, obsBFSLvl)
}

// bfs is the one traversal body behind BFS and BFSLevels. A vertex is
// reached once, by whichever direction the level runs, and out records
// either the frontier vertex that reached it or, when levels is set, the
// level.
func bfs(g engine.Graph, src uint32, p int, levels bool, ob kernelObs) []int32 {
	t := ob.begin()
	var traversed uint64
	n := g.NumVertices()
	out := make([]int32, n)
	for i := range out {
		out[i] = NoParent
	}
	if src >= n {
		ob.done(t, 0)
		return out
	}
	out[src] = 0
	if !levels {
		out[src] = int32(src)
	}

	frontier := []uint32{src}
	var inFrontier []uint64 // bottom-up levels' frontier bitmap, made on first use
	bufs := frontierBufs(p)
	totalEdges := g.NumEdges()
	// The frontier's degree total steers the direction heuristic; the step
	// that claims a vertex adds its degree to the claiming worker's buffer.
	frontierEdges := uint64(g.Degree(src))
	for level := int32(1); len(frontier) > 0; level++ {
		traversed += frontierEdges
		// Direction heuristic (Beamer): go bottom-up when the frontier
		// touches a large fraction of the graph's edges.
		if totalEdges > 0 && frontierEdges > totalEdges/20 {
			if inFrontier == nil {
				inFrontier = make([]uint64, (n+63)/64)
			} else {
				clear(inFrontier)
			}
			for _, v := range frontier {
				inFrontier[v>>6] |= 1 << (v & 63)
			}
			bfsBottomUp(g, out, inFrontier, bufs, p, levels, level)
		} else {
			bfsTopDown(g, frontier, out, bufs, p, levels, level)
		}
		frontier, frontierEdges = joinFrontier(frontier[:0], bufs)
	}
	ob.done(t, traversed)
	return out
}

// bfsTopDown lets each frontier vertex claim its unreached neighbours, and
// the worker whose claim wins queues the neighbour in its buffer of bufs. A
// claim reads before it CASes, as Ligra's cond does, so a neighbour that is
// already reached costs a load rather than a locked read-modify-write.
func bfsTopDown(g engine.Graph, frontier []uint32, out []int32, bufs []frontierBuf, p int, levels bool, level int32) {
	parallel.ForChunkW(len(frontier), p, func(w, lo, hi int) {
		b := &bufs[w]
		claim := level
		scan := func(bs []uint32) bool {
			c := claim // hoist the heap-captured claim off the loop
			for _, u := range bs {
				if atomic.LoadInt32(&out[u]) == NoParent && atomic.CompareAndSwapInt32(&out[u], NoParent, c) {
					b.ids = append(b.ids, u)
					b.deg += uint64(g.Degree(u))
				}
			}
			return true
		}
		for i := lo; i < hi; i++ {
			if !levels {
				claim = int32(frontier[i])
			}
			g.NeighborBlocks(frontier[i], scan)
		}
	})
}

// bfsBottomUp lets each unreached vertex look for a neighbour in the
// frontier bitmap inFrontier; each vertex is written, and queued, only by
// the worker whose range holds it.
func bfsBottomUp(g engine.Graph, out []int32, inFrontier []uint64, bufs []frontierBuf, p int, levels bool, level int32) {
	parallel.ForChunkW(len(out), p, func(w, lo, hi int) {
		b := &bufs[w]
		// Returning false from the yield ends the walk once a frontier
		// neighbour is found.
		var v int
		scan := func(bs []uint32) bool {
			for _, u := range bs {
				if inFrontier[u>>6]&(1<<(u&63)) != 0 {
					if levels {
						out[v] = level
					} else {
						out[v] = int32(u)
					}
					return false
				}
			}
			return true
		}
		for v = lo; v < hi; v++ {
			if out[v] == NoParent {
				g.NeighborBlocks(uint32(v), scan)
				if out[v] != NoParent {
					b.ids = append(b.ids, uint32(v))
					b.deg += uint64(g.Degree(uint32(v)))
				}
			}
		}
	})
}
