package aspen

import (
	"sync/atomic"

	"lsgraph/internal/engine"
)

// Graph is the Aspen-style engine: an array of per-vertex persistent
// chunked-tree roots. Updates produce new roots (path copying); readers of
// a previous snapshot are unaffected, matching Aspen's functional-snapshot
// model. Batch updates follow the same sort/group/per-vertex-worker
// discipline as the other engines; a vertex whose group is large is
// rebuilt by a flat merge, Aspen's union-style bulk path.
type Graph struct {
	roots   []*cnode
	degs    []uint32
	m       atomic.Uint64
	workers int
}

// New returns an empty Aspen engine with n vertex slots.
func New(n uint32, workers int) *Graph {
	return &Graph{roots: make([]*cnode, n), degs: make([]uint32, n), workers: workers}
}

// Name identifies the engine in benchmark output.
func (g *Graph) Name() string { return "Aspen" }

// NumVertices returns the number of vertex slots.
func (g *Graph) NumVertices() uint32 { return uint32(len(g.roots)) }

// NumEdges returns the number of directed edges stored.
func (g *Graph) NumEdges() uint64 { return g.m.Load() }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v uint32) uint32 { return g.degs[v] }

// Has reports whether edge (v,u) is present.
func (g *Graph) Has(v, u uint32) bool { return contains(g.roots[v], u) }

// NeighborBlocks yields v's neighbors chunk by chunk in ascending order
// (engine.Graph); each block is one tree node's sorted chunk.
func (g *Graph) NeighborBlocks(v uint32, yield func(block []uint32) bool) {
	blocksUntil(g.roots[v], yield)
}

// NeighborRange yields each vertex of [lo, min(hi, NumVertices())) chunk
// by chunk as NeighborBlocks would, an empty block for a vertex without
// edges (engine.Graph).
func (g *Graph) NeighborRange(lo, hi uint32, yield func(v uint32, block []uint32) bool) {
	v := lo
	each := func(b []uint32) bool { return yield(v, b) }
	for ; v < min(hi, g.NumVertices()); v++ {
		if g.degs[v] == 0 {
			if !yield(v, nil) {
				return
			}
		} else if !blocksUntil(g.roots[v], each) {
			return
		}
	}
}

// InsertBatch adds the directed edges (src[i] -> dst[i]).
func (g *Graph) InsertBatch(src, dst []uint32) { g.applyBatch(src, dst, true) }

// DeleteBatch removes the directed edges.
func (g *Graph) DeleteBatch(src, dst []uint32) { g.applyBatch(src, dst, false) }

func (g *Graph) applyBatch(src, dst []uint32, ins bool) {
	ks := engine.SortedKeys(src, dst, g.workers)
	g.m.Add(uint64(engine.ForEachSourceGroup(ks, g.workers, func(v uint32, group []uint64) int64 {
		if len(group) >= 32 && len(group)*4 >= int(g.degs[v]) {
			return g.applyGroupBulk(v, group, ins)
		}
		root := g.roots[v]
		var d int64
		for _, k := range group {
			var ok bool
			if ins {
				root, ok = insert(root, uint32(k))
				if ok {
					d++
				}
			} else {
				root, ok = remove(root, uint32(k))
				if ok {
					d--
				}
			}
		}
		g.roots[v] = root
		g.degs[v] = uint32(size(root))
		return d
	})))
}

// applyGroupBulk merges (or subtracts) a sorted group into vertex v's set
// with a flat merge and rebuilds the tree, Aspen's bulk-union analogue.
func (g *Graph) applyGroupBulk(v uint32, group []uint64, ins bool) int64 {
	old := make([]uint32, 0, g.degs[v])
	blocksUntil(g.roots[v], func(b []uint32) bool { old = append(old, b...); return true })
	var merged []uint32
	if ins {
		merged = engine.MergeGroup(nil, old, group)
	} else {
		merged = engine.SubtractGroup(nil, old, group)
	}
	g.roots[v] = build(merged)
	g.degs[v] = uint32(len(merged))
	return int64(len(merged)) - int64(len(old))
}

// MemoryUsage returns estimated resident bytes across all vertex trees.
func (g *Graph) MemoryUsage() uint64 {
	total := uint64(len(g.roots)) * 12 // root pointer + degree
	for _, r := range g.roots {
		total += memoryOf(r)
	}
	return total
}
