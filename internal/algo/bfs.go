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
	inFrontier := make([]bool, n)
	next := make([]bool, n)
	bufs := frontierBufs(p)
	totalEdges := g.NumEdges()
	// The frontier's degree total steers the direction heuristic; each
	// rebuild sums it in parallel as it collects the next frontier.
	degree := g.Degree
	frontierEdges := uint64(degree(src))
	for level := int32(1); len(frontier) > 0; level++ {
		traversed += frontierEdges
		clear(next)
		// Direction heuristic (Beamer): go bottom-up when the frontier
		// touches a large fraction of the graph's edges.
		if totalEdges > 0 && frontierEdges > totalEdges/20 {
			clear(inFrontier)
			for _, v := range frontier {
				inFrontier[v] = true
			}
			bfsBottomUp(g, out, inFrontier, next, p, levels, level)
		} else {
			bfsTopDown(g, frontier, out, next, p, levels, level)
		}
		frontier, frontierEdges = collectFrontier(frontier, next, bufs, p, degree)
	}
	ob.done(t, traversed)
	return out
}

// bfsTopDown lets each frontier vertex claim its unreached neighbours. A
// claim reads before it CASes, as Ligra's cond does, so a neighbour that is
// already reached costs a load rather than a locked read-modify-write.
func bfsTopDown(g engine.Graph, frontier []uint32, out []int32, next []bool, p int, levels bool, level int32) {
	parallel.ForChunk(len(frontier), p, func(lo, hi int) {
		claim := level
		scan := func(bs []uint32) bool {
			c := claim // hoist the heap-captured claim off the loop
			for _, u := range bs {
				if atomic.LoadInt32(&out[u]) == NoParent && atomic.CompareAndSwapInt32(&out[u], NoParent, c) {
					next[u] = true
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

// bfsBottomUp lets each unreached vertex look for a frontier neighbour;
// each vertex is written only by the worker whose range holds it.
func bfsBottomUp(g engine.Graph, out []int32, inFrontier, next []bool, p int, levels bool, level int32) {
	parallel.ForChunk(len(out), p, func(lo, hi int) {
		// Returning false from the yield ends the walk once a frontier
		// neighbour is found.
		var v int
		scan := func(bs []uint32) bool {
			for _, u := range bs {
				if inFrontier[u] {
					if levels {
						out[v] = level
					} else {
						out[v] = int32(u)
					}
					next[v] = true
					return false
				}
			}
			return true
		}
		for v = lo; v < hi; v++ {
			if out[v] == NoParent {
				g.NeighborBlocks(uint32(v), scan)
			}
		}
	})
}
