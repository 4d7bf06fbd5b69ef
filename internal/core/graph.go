package core

import (
	"math"
	"sync/atomic"
	"unsafe"

	"lsgraph/internal/hitree"
	"lsgraph/internal/ria"
)

// Stats exposes engine-internal counters used by the evaluation.
type Stats struct {
	// RIAToHITree counts promotions of a vertex's overflow from RIA to
	// HITree (§6.2 reports 29-1599 such changes when inserting 10^8 edges).
	RIAToHITree atomic.Uint64
}

// Graph is the LSGraph engine: a directed graph over dense vertex IDs
// [0, n) storing each vertex's out-neighbors in the differentiated
// hierarchical indexed representation, updated in place. Reads (Degree,
// NeighborBlocks, analytics) may run concurrently with each other but not
// with updates; the streaming model alternates update and analytics phases
// (§1). A Store serves a Paged graph instead (paged.go).
//
// The engine is one vertex range, as the paper describes: one array of
// vertex blocks, one update pipeline over [0, 2³²) and one edge counter.
// Config.Shards > 1 stores nothing elsewhere; it only cuts the ranges the
// Shard handles (shard.go) flatten, for the benchmark's per-layer timings.
type Graph struct {
	space
	pc    pipe          // the batch pipeline: range [0, 2³²), the edge counter
	verts []vertex      // one block per vertex, materialized up to len(verts)
	pmap  *PartitionMap // the Shard handles' ranges; its boundaries never move

	cfg     Config
	treeCfg hitree.Config
	stats   Stats
}

// New returns an empty engine with n vertex slots.
func New(n uint32, cfg Config) *Graph {
	cfg.sanitize()
	g := &Graph{cfg: cfg, verts: make([]vertex, n)}
	g.treeCfg = hitree.Config{
		Alpha:        cfg.Alpha,
		M:            cfg.M,
		LeafArrayMax: cfg.ArrayMax,
		DisableModel: cfg.DisableModel,
	}
	g.pmap = &PartitionMap{Starts: g.init(n, cfg.Shards, cfg.Workers)}
	g.pc.end = openEnd
	return g
}

// NewFromEdges builds an engine preloaded with es (directed, deduplicated
// internally) using the bulk-load path. The pipeline scratch the load sized
// — some 20 bytes an edge — is released before returning: no later batch
// will resemble it.
func NewFromEdges(n uint32, src, dst []uint32, cfg Config) *Graph {
	g := New(n, cfg)
	g.InsertBatch(src, dst)
	g.ReleaseScratch()
	return g
}

// Name identifies the engine in benchmark output.
func (g *Graph) Name() string { return "LSGraph" }

// Config returns the engine's effective configuration.
func (g *Graph) Config() Config { return g.cfg }

// Stats returns the engine's counters.
func (g *Graph) Stats() *Stats { return &g.stats }

// EnsureVertices grows the vertex space to at least n slots and
// materializes their blocks. Like updates, it must not run concurrently
// with reads or other updates.
func (g *Graph) EnsureVertices(n uint32) { g.ensure(g.grow(n, &g.pc)) }

// ensure grows the vertex blocks to at least n. Capacity grows
// geometrically, so a stream that raises the vertex bound a little with
// every batch copies the blocks O(log n) times, not once per batch.
// Re-slicing within the capacity exposes only zero blocks: make zeroed the
// tail, and the blocks never shrink.
func (g *Graph) ensure(n int) {
	if n <= len(g.verts) {
		return
	}
	if c := cap(g.verts); n > c {
		nv := make([]vertex, n, max(n, c+c/2))
		copy(nv, g.verts)
		g.verts = nv
		return
	}
	g.verts = g.verts[:n]
}

// PartitionMap returns the map New cut the Shard handles' ranges by.
func (g *Graph) PartitionMap() *PartitionMap { return g.pmap }

// ScatterBatch routes a mixed batch to the Shard handles' ranges by source
// vertex (Scatter, on the graph's workers). It panics on an edge naming
// vertex 2³²−1, whose bound no uint32 holds and no vertex space contains.
func (g *Graph) ScatterBatch(src, dst []uint32) (parts []SubBatch, bound uint32) {
	parts, b := Scatter(g.pmap.Starts, src, dst, g.Workers())
	if b > math.MaxUint32 {
		panic("core: ScatterBatch: an edge names vertex 2^32-1, outside every vertex space")
	}
	return parts, uint32(b)
}

// vb returns v's vertex block, or nil when v's slot is not materialized: a
// vertex reserved (ReserveVertices) but not grown into has no out-edges.
func (g *Graph) vb(v uint32) *vertex {
	if int(v) >= len(g.verts) {
		return nil
	}
	return &g.verts[v]
}

// NumEdges returns the number of directed edges stored.
func (g *Graph) NumEdges() uint64 { return g.pc.NumEdges() }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v uint32) uint32 {
	if vb := g.vb(v); vb != nil {
		return vb.degree()
	}
	return 0
}

// Has reports whether the directed edge (v,u) is present.
func (g *Graph) Has(v, u uint32) bool {
	vb := g.vb(v)
	if vb == nil {
		return false
	}
	n := vb.inlineLen()
	if n > 0 && u <= vb.inline[n-1] {
		_, found := vb.inlineFind(u)
		return found
	}
	return vb.ovHas(u)
}

// NeighborBlocks yields v's neighbors as ascending contiguous segments
// aliasing the engine's storage — the inline prefix first, then the
// overflow structure's occupied runs (engine.Graph). Blocks are
// valid only until yield returns and must not be mutated or retained.
func (g *Graph) NeighborBlocks(v uint32, yield func(block []uint32) bool) {
	if vb := g.vb(v); vb != nil {
		neighborBlocksVB(vb, yield)
	}
}

// NeighborRange yields each vertex of [lo, min(hi, NumVertices())) with
// the blocks NeighborBlocks would, an empty block for a vertex without
// edges (engine.Graph): a walk of the vertex blocks in order. Slots past
// the materialized blocks have no edges.
func (g *Graph) NeighborRange(lo, hi uint32, yield func(v uint32, block []uint32) bool) {
	hi = min(hi, g.NumVertices())
	// The overflow walks leak their yield, so this adapter is a heap
	// closure: one per call, reading the vertex from cur.
	var cur uint32
	each := func(b []uint32) bool { return yield(cur, b) }
	v, ok := lo, true
	for end := min(hi, uint32(len(g.verts))); v < end && ok; v++ {
		vb := &g.verts[v]
		n := vb.inlineLen()
		if ok = yield(v, vb.inline[:n:n]); ok && vb.ov != nil {
			cur = v
			ok = vb.ovBlocks(each)
		}
	}
	for ; v < hi && ok; v++ {
		ok = yield(v, nil)
	}
}

// neighborBlocksVB is NeighborBlocks on a resolved vertex block.
func neighborBlocksVB(vb *vertex, yield func(block []uint32) bool) {
	n := vb.inlineLen()
	if n > 0 && !yield(vb.inline[:n:n]) {
		return
	}
	if vb.ov != nil {
		vb.ovBlocks(yield)
	}
}

// appendNeighborsVB appends vb's neighbors in ascending order to dst.
func appendNeighborsVB(vb *vertex, dst []uint32) []uint32 {
	n := vb.inlineLen()
	dst = append(dst, vb.inline[:n]...)
	return vb.ovAppendTo(dst)
}

// AppendNeighbors appends v's neighbors in ascending order to dst.
func (g *Graph) AppendNeighbors(v uint32, dst []uint32) []uint32 {
	if vb := g.vb(v); vb != nil {
		return appendNeighborsVB(vb, dst)
	}
	return dst
}

// insertOne adds edge (v,u) into vb (v's block), preserving the
// inline-holds-smallest invariant; it reports whether the edge was new.
// Callers must own vertex v exclusively.
func (g *Graph) insertOne(vb *vertex, u uint32) bool {
	n := vb.inlineLen()
	if n == inlineCap && u > vb.inline[n-1] {
		if !g.ovInsert(vb, u) {
			return false
		}
	} else {
		i, found := vb.inlineFind(u)
		if found {
			return false
		}
		if n == inlineCap {
			// u belongs in a full inline area: its maximum, below everything
			// in the overflow, moves out to make room.
			n--
			g.ovInsert(vb, vb.inline[n])
		}
		copy(vb.inline[i+1:n+1], vb.inline[i:n])
		vb.inline[i] = u
	}
	vb.deg++
	return true
}

// DeleteVertex removes every edge incident to v on a symmetrized graph:
// v's own adjacency plus, for each neighbor u, the reverse edge (u,v).
// Like all updates it must not run concurrently with reads.
func (g *Graph) DeleteVertex(v uint32) {
	ns := g.AppendNeighbors(v, nil)
	if len(ns) == 0 {
		return
	}
	src := make([]uint32, 0, 2*len(ns))
	dst := make([]uint32, 0, 2*len(ns))
	for _, u := range ns {
		src = append(src, v, u)
		dst = append(dst, u, v)
	}
	g.DeleteBatch(src, dst)
}

// deleteOne removes edge (v,u) from vb (v's block); it reports whether the
// edge existed. Callers must own vertex v exclusively.
func (g *Graph) deleteOne(vb *vertex, u uint32) bool {
	n := vb.inlineLen()
	if n == inlineCap && u > vb.inline[n-1] {
		if !g.ovDelete(vb, u) {
			return false
		}
	} else {
		i, found := vb.inlineFind(u)
		if !found {
			return false
		}
		copy(vb.inline[i:n-1], vb.inline[i+1:n])
		if vb.ov != nil {
			// Refill the inline area from the overflow minimum.
			vb.inline[n-1] = g.ovDeleteMin(vb)
		}
	}
	vb.deg--
	return true
}

// rebuildVertex replaces vb's storage from the full sorted neighbor set
// ns. The batch updater uses it for large per-vertex groups.
func (g *Graph) rebuildVertex(vb *vertex, ns []uint32) {
	n := min(len(ns), inlineCap)
	copy(vb.inline[:n], ns[:n])
	vb.deg = vb.deg&^degMask | uint32(len(ns))
	g.setOverflow(vb, ns[n:])
}

// MemoryBreakdown is the engine's resident bytes by what holds them, each
// term the size of the allocations themselves (unsafe.Sizeof and slice
// capacities, no per-structure constants). Snapshots belong to whoever holds
// them and are not counted.
type MemoryBreakdown struct {
	VertexBlocks uint64 // the block array, unused capacity included
	ArrayPayload uint64 // array overflows: four bytes per neighbor held
	ArraySlack   uint64 // the unused rest of their size classes
	RIAPayload   uint64 // RIA overflows: four bytes per neighbor held
	RIAGaps      uint64 // the empty slots of their blocks
	RIAIndex     uint64 // their redundant index arrays
	RIAHeaders   uint64 // their headers and per-block counts
	Trees        uint64 // HITree overflows, LIA nodes and leaves alike (PMAs under KindPMA)
	Scratch      uint64 // the update pipeline's retained buffers
	// Index, part of the above and not a term of the sum, is what went to
	// redundant index arrays and learned models: RIAIndex plus the HITrees'.
	Index uint64
}

// Total sums the breakdown; it is Graph.MemoryUsage.
func (b MemoryBreakdown) Total() uint64 {
	return b.VertexBlocks + b.ArrayPayload + b.ArraySlack + b.RIAPayload + b.RIAGaps +
		b.RIAIndex + b.RIAHeaders + b.Trees + b.Scratch
}

// MemoryBreakdown walks the vertex blocks and accounts for the graph's
// resident bytes. Like reads, it must not run concurrently with updates.
func (g *Graph) MemoryBreakdown() (b MemoryBreakdown) {
	b.VertexBlocks = uint64(cap(g.verts)) * uint64(unsafe.Sizeof(vertex{}))
	b.Scratch = g.pc.scratchBytes()
	for i := range g.verts {
		vb := &g.verts[i]
		n := uint64(vb.ovLen())
		switch vb.kind() {
		case kindArr:
			b.ArrayPayload += 4 * n
			b.ArraySlack += 4 * (uint64(arrCap(int(n))) - n)
		case kindRIA:
			r := vb.ria()
			data, index := 4*ria.BlockSize*uint64(r.NumBlocks()), r.IndexMemory()
			b.RIAPayload += 4 * n
			b.RIAGaps += data - 4*n
			b.RIAIndex += index
			b.RIAHeaders += r.Memory() - data - index
		case kindTree:
			b.Trees += vb.tree().Memory()
			b.Index += vb.tree().IndexMemory()
		case kindPMA:
			b.Trees += vb.pma().Memory()
		}
	}
	b.Index += b.RIAIndex
	return b
}

// MemoryUsage returns the engine's resident bytes (Table 3): the sum of
// MemoryBreakdown.
func (g *Graph) MemoryUsage() uint64 { return g.MemoryBreakdown().Total() }

// IndexMemory returns the bytes spent on redundant indexes and learned
// models, Table 3's index-overhead numerator.
func (g *Graph) IndexMemory() uint64 { return g.MemoryBreakdown().Index }
