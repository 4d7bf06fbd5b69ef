package lsgraph

import (
	"time"

	"lsgraph/internal/algo"
)

// The kernels below accept any Reader: a *Graph between update batches, a
// *Store or *StoreView during concurrent ingestion, or the immutable view
// returned by Graph.Snapshot. For a consistent result while a Store is
// ingesting, run the kernel on a pinned StoreView rather than the Store
// itself. Parallelism follows GOMAXPROCS.

// BFS runs a parallel direction-optimizing breadth-first search from src
// and returns the parent of every vertex: its own ID for src, the BFS
// parent for reached vertices, and -1 for unreached ones. The graph
// should be symmetrized, as in the paper's evaluation, for the bottom-up
// direction to be valid. A src at or beyond NumVertices reaches nothing.
func BFS(g Reader, src uint32) []int32 { return algo.BFS(g, src, 0) }

// BFSLevels runs the same search as BFS but returns each vertex's hop
// depth from src, -1 if unreached. The graph should be symmetrized, as for
// BFS, for the bottom-up direction to be valid.
func BFSLevels(g Reader, src uint32) []int32 { return algo.BFSLevels(g, src, 0) }

// BC computes single-source betweenness-centrality dependency scores from
// src with Brandes' algorithm (forward BFS phases, then a backward
// dependency-accumulation sweep). A src at or beyond NumVertices scores
// every vertex 0.
func BC(g Reader, src uint32) []float64 { return algo.BC(g, src, 0) }

// PageRank runs iters synchronous PageRank iterations (iters <= 0 means
// 10) with damping 0.85 and returns the rank vector, which sums to 1.
func PageRank(g Reader, iters int) []float64 { return algo.PageRank(g, iters, 0) }

// ConnectedComponents labels every vertex with the smallest vertex ID in
// its component, for symmetrized graphs.
func ConnectedComponents(g Reader) []uint32 { return algo.CC(g, 0) }

// TriangleCount counts triangles on a symmetrized simple graph and
// reports the share of time spent flattening adjacency into arrays (the
// "Traversal" column of the paper's Table 2) alongside the total runtime.
func TriangleCount(g Reader) (triangles uint64, traversal, total time.Duration) {
	r := algo.TriangleCount(g, 0)
	return r.Triangles, r.Traversal, r.Total
}

// KCore returns every vertex's core number via peeling decomposition on a
// symmetrized graph.
func KCore(g Reader) []uint32 { return algo.KCore(g, 0) }
