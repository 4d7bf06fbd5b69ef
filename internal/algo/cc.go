package algo

import (
	"sync/atomic"

	"lsgraph/internal/engine"
	"lsgraph/internal/parallel"
)

// atomicMinUint32 lowers *addr to v if v is smaller, reporting whether it
// changed the value.
func atomicMinUint32(addr *uint32, v uint32) bool {
	for {
		old := atomic.LoadUint32(addr)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapUint32(addr, old, v) {
			return true
		}
	}
}

// CC computes connected components by parallel frontier-driven label
// propagation (the Ligra formulation the paper's evaluation uses): every
// vertex starts labeled with its own ID and frontier vertices push their
// label to neighbors via atomic min until no label changes. It returns the
// component label of each vertex (the minimum vertex ID in the component,
// for symmetrized inputs).
func CC(g engine.Graph, p int) []uint32 {
	t := obsCC.begin()
	var traversed uint64
	n := int(g.NumVertices())
	comp := make([]uint32, n)
	frontier := make([]uint32, n)
	for i := range comp {
		comp[i] = uint32(i)
		frontier[i] = uint32(i)
	}
	// Several workers can lower the same vertex's label in one round, so
	// the changed flags are stored atomically (a bool cannot be).
	changed := make([]uint32, n)
	bufs := frontierBufs(p)
	degree, frontierEdges := frontierDegrees(t, g, frontier)
	for len(frontier) > 0 {
		traversed += frontierEdges
		clear(changed)
		parallel.ForChunkW(len(frontier), p, func(_, lo, hi int) {
			var cv uint32
			scan := func(bs []uint32) bool {
				c := cv // hoist the heap-captured label off the loop
				for _, u := range bs {
					if atomicMinUint32(&comp[u], c) {
						atomic.StoreUint32(&changed[u], 1)
					}
				}
				return true
			}
			for i := lo; i < hi; i++ {
				v := frontier[i]
				cv = atomic.LoadUint32(&comp[v])
				g.NeighborBlocks(v, scan)
			}
		})
		frontier, frontierEdges = collectFrontier(frontier, changed, bufs, p, degree)
	}
	obsCC.done(t, traversed)
	return comp
}
