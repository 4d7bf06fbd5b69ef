package lsgraph

import (
	"sync/atomic"

	"lsgraph/internal/parallel"
)

// VertexSubset is a set of active vertices, the frontier abstraction of the
// Ligra-style interface LSGraph exposes to analytics (§5 "Interface"). A
// subset is built sparse (an explicit vertex list) and materializes a dense
// membership bitmap lazily on the first Contains call.
type VertexSubset struct {
	n      uint32
	sparse []uint32 // sorted when built from dense form
	dense  []bool   // nil until materialized
}

// NewVertexSubset returns a subset of the universe [0, n) containing the
// vertices vs.
func NewVertexSubset(n uint32, vs ...uint32) *VertexSubset {
	s := &VertexSubset{n: n, sparse: append([]uint32(nil), vs...)}
	return s
}

// Len returns the number of active vertices.
func (s *VertexSubset) Len() int { return len(s.sparse) }

// IsEmpty reports whether no vertices are active — the usual termination
// test of a frontier loop.
func (s *VertexSubset) IsEmpty() bool { return len(s.sparse) == 0 }

// Vertices returns the active vertices. Callers must not mutate the slice.
func (s *VertexSubset) Vertices() []uint32 { return s.sparse }

// Contains reports whether v is active. The first call materializes the
// dense bitmap; Contains is not safe to call concurrently with itself
// until that has happened.
func (s *VertexSubset) Contains(v uint32) bool {
	if s.dense == nil {
		s.materialize()
	}
	return s.dense[v]
}

func (s *VertexSubset) materialize() {
	s.dense = make([]bool, s.n)
	for _, v := range s.sparse {
		s.dense[v] = true
	}
}

// EdgeMap applies update to every edge (v, u) with v in the frontier,
// collecting into the returned subset each target u for which update
// returned true and cond(u) held before the update (cond may be nil for
// always-true). update may be called concurrently and must be atomic with
// respect to its own state; a target is added to the output at most once.
// This is the primitive the paper extends from Ligra and implements over
// HITree's in-order walk. Any Reader works as the graph: a *Graph between
// batches, or a pinned *StoreView while a Store is ingesting.
func EdgeMap(g Reader, frontier *VertexSubset, cond func(u uint32) bool, update func(v, u uint32) bool) *VertexSubset {
	n := g.NumVertices()
	added := make([]int32, n)
	fs := frontier.Vertices()
	parallel.For(len(fs), 0, func(i int) {
		v := fs[i]
		g.NeighborBlocks(v, func(bs []uint32) bool {
			for _, u := range bs {
				if cond != nil && !cond(u) {
					continue
				}
				if update(v, u) {
					atomic.StoreInt32(&added[u], 1)
				}
			}
			return true
		})
	})
	next := &VertexSubset{n: n}
	for u := range added {
		if added[u] == 1 {
			next.sparse = append(next.sparse, uint32(u))
		}
	}
	return next
}

// VertexMap applies f to every vertex in the subset in parallel and
// returns the subset of vertices for which f returned true. f may be
// called concurrently and must be atomic with respect to its own state.
func VertexMap(s *VertexSubset, f func(v uint32) bool) *VertexSubset {
	keep := make([]int32, len(s.sparse))
	parallel.For(len(s.sparse), 0, func(i int) {
		if f(s.sparse[i]) {
			keep[i] = 1
		}
	})
	next := &VertexSubset{n: s.n}
	for i, k := range keep {
		if k == 1 {
			next.sparse = append(next.sparse, s.sparse[i])
		}
	}
	return next
}
