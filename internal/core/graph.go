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
// The engine is one vertex range, as the paper describes. Config.Shards > 1
// splits it into ranges with their own vertex blocks, edge counter and
// pipeline scratch, for the benchmark's per-layer timings only (see
// Config.Shards); the Shard handle (shard.go) is their update and snapshot
// surface.
type Graph struct {
	space
	shards []shardState
	pmap   *PartitionMap // routes to shards; its boundaries never move

	cfg     Config
	treeCfg hitree.Config
	stats   Stats
}

// New returns an empty engine with n vertex slots.
func New(n uint32, cfg Config) *Graph {
	cfg.sanitize()
	g := &Graph{cfg: cfg}
	g.treeCfg = hitree.Config{
		Alpha:        cfg.Alpha,
		M:            cfg.M,
		LeafArrayMax: cfg.ArrayMax,
		DisableModel: cfg.DisableModel,
	}
	g.pmap = g.init(n, cfg.Shards, cfg.Workers)
	g.shards = make([]shardState, len(g.pmap.Starts))
	for i := range g.shards {
		sh := &g.shards[i]
		sh.own(g.pmap, i)
		sh.verts = make([]vertex, sh.span(n))
	}
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

// EnsureVertices grows the vertex space to at least n slots, materializing
// every shard's slice of the new range. Like updates, it must not run
// concurrently with reads or other updates (per-shard growth goes through
// Shard.EnsureVertices instead).
func (g *Graph) EnsureVertices(n uint32) {
	for i := range g.shards {
		sh := &g.shards[i]
		sh.ensure(g.grow(n, &sh.pipe))
	}
}

// NumShards returns the number of vertex-range partitions.
func (g *Graph) NumShards() int { return len(g.shards) }

// ShardOf returns the index of the shard owning vertex v. The last shard's
// range is open-ended, so IDs beyond the initial vertex space still belong
// to the last shard.
func (g *Graph) ShardOf(v uint32) int { return g.pmap.ShardOf(v) }

// PartitionMap returns the graph's routing map, the one New built.
func (g *Graph) PartitionMap() *PartitionMap { return g.pmap }

// ScatterBatch routes a mixed batch to the graph's shards by source vertex
// (Scatter, on the graph's workers). It panics on an edge naming vertex
// 2³²−1, whose bound no uint32 holds and no vertex space contains.
func (g *Graph) ScatterBatch(src, dst []uint32) (parts []SubBatch, bound uint32) {
	parts, b := Scatter(g.pmap, src, dst, g.Workers())
	if b > math.MaxUint32 {
		panic("core: ScatterBatch: an edge names vertex 2^32-1, outside every vertex space")
	}
	return parts, uint32(b)
}

// locate returns the shard owning v and v's index within it. Every ID has
// an owning shard (the last shard's range is open-ended), but the local
// index may lie beyond the shard's materialized storage; read paths treat
// that as degree 0 while update paths materialize storage first.
func (g *Graph) locate(v uint32) (*shardState, uint32) {
	if len(g.shards) == 1 {
		return &g.shards[0], v
	}
	sh := &g.shards[g.pmap.ShardOf(v)]
	return sh, v - sh.base
}

// vb returns v's vertex block, or nil when v's slot is not materialized:
// vertex-space growth has not reached v's shard yet, so v has no out-edges.
func (g *Graph) vb(v uint32) *vertex {
	sh, lv := g.locate(v)
	if int(lv) >= len(sh.verts) {
		return nil
	}
	return &sh.verts[lv]
}

// NumEdges returns the number of directed edges stored, summed over
// shards.
func (g *Graph) NumEdges() uint64 {
	var m uint64
	for i := range g.shards {
		m += g.shards[i].m.Load()
	}
	return m
}

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
// edges (engine.Graph): it routes once per shard and walks the shard's
// vertex blocks in order.
func (g *Graph) NeighborRange(lo, hi uint32, yield func(v uint32, block []uint32) bool) {
	hi = min(hi, g.NumVertices())
	if lo >= hi {
		return
	}
	for i := g.pmap.ShardOf(lo); lo < hi; i++ {
		end := uint32(min(uint64(hi), g.shards[i].end))
		if !g.shards[i].neighborRange(lo, end, yield) {
			return
		}
		lo = end
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
	VertexBlocks uint64 // the shards' block arrays, unused capacity included
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

// MemoryBreakdown walks every shard and accounts for its resident bytes.
// Like reads, it must not run concurrently with updates.
func (g *Graph) MemoryBreakdown() (b MemoryBreakdown) {
	for i := range g.shards {
		sh := &g.shards[i]
		b.VertexBlocks += uint64(cap(sh.verts)) * uint64(unsafe.Sizeof(vertex{}))
		b.Scratch += sh.scratchBytes()
		for j := range sh.verts {
			vb := &sh.verts[j]
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
