// Package refgraph is a deliberately simple adjacency-set graph used as the
// correctness oracle for every engine and data structure in this repository.
// It favors obviousness over speed: sorted []uint32 per vertex, binary
// search membership, O(d) insert/delete.
package refgraph

import "sort"

// Graph is the oracle. It is not safe for concurrent mutation.
type Graph struct {
	adj [][]uint32
	m   uint64
}

// New returns an oracle with n vertex slots.
func New(n uint32) *Graph {
	return &Graph{adj: make([][]uint32, n)}
}

// NumVertices returns the number of vertex slots.
func (g *Graph) NumVertices() uint32 { return uint32(len(g.adj)) }

// EnsureVertices grows the vertex space to at least n slots.
func (g *Graph) EnsureVertices(n uint32) {
	for uint32(len(g.adj)) < n {
		g.adj = append(g.adj, nil)
	}
}

// NumEdges returns the number of directed edges currently stored.
func (g *Graph) NumEdges() uint64 { return g.m }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v uint32) uint32 { return uint32(len(g.adj[v])) }

// Has reports whether edge (v,u) is present.
func (g *Graph) Has(v, u uint32) bool {
	a := g.adj[v]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= u })
	return i < len(a) && a[i] == u
}

// Insert adds edge (v,u); it reports whether the edge was new.
func (g *Graph) Insert(v, u uint32) bool {
	a := g.adj[v]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= u })
	if i < len(a) && a[i] == u {
		return false
	}
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = u
	g.adj[v] = a
	g.m++
	return true
}

// Delete removes edge (v,u); it reports whether the edge existed.
func (g *Graph) Delete(v, u uint32) bool {
	a := g.adj[v]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= u })
	if i >= len(a) || a[i] != u {
		return false
	}
	g.adj[v] = append(a[:i], a[i+1:]...)
	g.m--
	return true
}

// Neighbors returns the sorted neighbor slice of v. The returned slice
// aliases internal storage; callers must not mutate it.
func (g *Graph) Neighbors(v uint32) []uint32 { return g.adj[v] }

// NeighborBlocks yields v's sorted neighbor slice as one block
// (engine.Graph); the block aliases internal storage.
func (g *Graph) NeighborBlocks(v uint32, yield func(block []uint32) bool) {
	if a := g.adj[v]; len(a) > 0 {
		yield(a[:len(a):len(a)])
	}
}

// NeighborRange yields each vertex of [lo, min(hi, NumVertices())) with its
// sorted neighbor slice as one block, empty for a vertex without edges
// (engine.Graph).
func (g *Graph) NeighborRange(lo, hi uint32, yield func(v uint32, block []uint32) bool) {
	for v := lo; v < min(hi, g.NumVertices()); v++ {
		a := g.adj[v]
		if !yield(v, a[:len(a):len(a)]) {
			return
		}
	}
}
