// Package lsgraph is a locality-centric streaming graph engine, a Go
// implementation of the system described in "LSGraph: A Locality-centric
// High-performance Streaming Graph Engine" (EuroSys '24).
//
// A Graph stores a directed graph over dense vertex IDs and supports
// alternating phases of batched edge updates and parallel analytics. Each
// vertex's neighbors live in a structure chosen by degree — a cache-line
// vertex block inline, then a sorted array, then a Redundant Indexed Array
// (blocked gapped array with a first-element index), then a Hybrid Indexed
// Tree mixing learned-index internal nodes with RIA leaves — which keeps
// neighbor sets ordered and contiguous for analytics while bounding the
// data movement updates pay.
//
// Quick start:
//
//	g := lsgraph.New(numVertices)
//	g.InsertEdges(edges)                  // batched, parallel
//	dist := lsgraph.BFS(g, source)        // analytics on the new snapshot
//	g.DeleteEdges(stale)
//
// # Concurrency
//
// The package offers two usage models:
//
//   - Graph is the phase-alternating engine of the paper: updates must
//     not run concurrently with reads or other updates, while reads are
//     freely concurrent with each other. Graph.Snapshot carves out an
//     immutable CSR view for analytics that must survive later updates.
//   - Store is the concurrent serving layer: updates enqueue to one writer
//     goroutine per shard and readers pin epoch-numbered snapshots with
//     Store.View, so ingestion and analytics overlap freely. Use it
//     whenever update and read traffic cannot be phase-separated.
//
// All analytics entry points accept the Reader interface, which Graph,
// Store, StoreView, and Graph.Snapshot's view all satisfy.
package lsgraph

import (
	"lsgraph/internal/core"
	"lsgraph/internal/engine"
)

// Edge is a directed edge from Src to Dst. Store both directions for an
// undirected graph, as the paper does with symmetrized inputs.
type Edge struct {
	Src, Dst uint32
}

// Reader is the read-only graph interface every analytics entry point in
// this package accepts. It is satisfied by *Graph (between update
// batches), *Store and *StoreView (concurrently with ingestion), and the
// *core.Snapshot returned by Graph.Snapshot.
type Reader interface {
	// NumVertices returns the number of vertex slots; IDs are dense
	// [0, NumVertices).
	NumVertices() uint32
	// NumEdges returns the number of directed edges currently stored.
	NumEdges() uint64
	// Degree returns the out-degree of v.
	Degree(v uint32) uint32
	// NeighborBlocks is the point read: it yields v's out-neighbors as
	// non-empty []uint32 blocks, strictly ascending within and across
	// blocks (ordered-set kernels, notably triangle counting, rely on the
	// order). Every engine here keeps adjacency in contiguous runs, so a
	// reader that ranges over blocks pays one call per run instead of one
	// per edge. Blocks alias engine storage: they are valid only until
	// yield returns and must not be mutated or retained. Returning false
	// stops the iteration. Loops driven by a frontier or any other vertex
	// list use it.
	NeighborBlocks(v uint32, yield func(block []uint32) bool)
	// NeighborRange is the sweep read: it walks the vertices [lo, min(hi,
	// NumVertices())) in ascending order, yielding (v, block) for each
	// block NeighborBlocks(v) would yield, in the same order, and a vertex
	// without edges exactly once with an empty block. Blocks follow
	// NeighborBlocks' rules; returning false stops the whole walk. A loop
	// over every vertex in ID order uses it, one call per parallel chunk,
	// so the reader's per-vertex routing is paid once per range.
	NeighborRange(lo, hi uint32, yield func(v uint32, block []uint32) bool)
}

// BlockReader is another name for Reader, for callers that spell out that
// they read blocks.
type BlockReader = Reader

// Compile-time checks: the types documented as Readers are.
var (
	_ Reader = (*Graph)(nil)
	_ Reader = (*Store)(nil)
	_ Reader = (*StoreView)(nil)
	_ Reader = (*core.Snapshot)(nil)
)

// settings collects everything the constructors configure: the engine's
// core.Config, of which a Store's paged graph takes only Workers, plus the
// shard count, queue bounds and rebalancing policy a Store needs. Graph
// constructors ignore the Store's fields.
type settings struct {
	cfg           core.Config
	shards        int
	maxQueue      int
	autoRebalance float64
	durDir        string
	dur           DurabilityOptions
}

// Option configures a Graph or Store at construction; see WithAlpha,
// WithM, WithWorkers, WithShards, WithMaxQueue, WithAutoRebalance, and
// WithDurability.
type Option func(*settings)

// WithAlpha sets the space amplification factor α (default 1.2): gapped
// structures reserve α× their element count, trading memory and scan cost
// for cheaper inserts (§6.5, Figures 14-15). A Store ignores it: its shards
// keep plain runs, no gapped structure.
func WithAlpha(alpha float64) Option {
	return func(s *settings) { s.cfg.Alpha = alpha }
}

// WithM sets the RIA→HITree degree threshold M (default 4096; §6.5):
// vertices whose overflow exceeds M neighbors are promoted from the
// Redundant Indexed Array to the Hybrid Indexed Tree. A Store ignores it:
// its shards hold no RIA or HITree.
func WithM(m int) Option {
	return func(s *settings) { s.cfg.M = m }
}

// WithWorkers bounds the parallelism of batch updates and snapshot
// flattening (default GOMAXPROCS).
func WithWorkers(w int) Option {
	return func(s *settings) { s.cfg.Workers = w }
}

// WithShards partitions a Store's vertex space into s contiguous shards
// (default 1), each with its own table, page arena and published
// snapshot. The store's one writer applies a batch's shard parts side by
// side, each on its share of the worker budget, and publishes them as one
// epoch. Ignored by Graph constructors: the paper's engine is one vertex
// range, updated per vertex in parallel.
func WithShards(s int) Option {
	return func(st *settings) { st.shards = s }
}

// WithMaxQueue sets a Store's update-queue bound in batches (default 64).
// Once the queue holds this many pending batches, further same-op
// enqueues merge into the newest queued batch instead of growing the
// queue — callers are never blocked — and Store.Saturated reports true so
// front-ends can shed ingest load. Smaller values bound
// memory and visibility lag more tightly at the cost of earlier
// backpressure. Ignored by Graph constructors, which have no queue.
func WithMaxQueue(n int) Option {
	return func(s *settings) { s.maxQueue = n }
}

// WithAutoRebalance enables a Store's background skew watcher: when the
// hottest shard's routed-edge rate exceeds threshold times its fair share
// (threshold > 1; 1.5 means "50% over fair"), the store rebalances its
// shard boundaries toward equal edge mass, moving contiguous vertex ranges
// between adjacent shards without stopping reads.
// Zero (the default) disables the watcher; Store.Rebalance remains
// available for explicit control. Ignored by Graph constructors and by
// single-shard stores, which have nothing to rebalance.
func WithAutoRebalance(threshold float64) Option {
	return func(s *settings) { s.autoRebalance = threshold }
}

// Graph is the LSGraph engine in the paper's phase-alternating streaming
// model: updates must not run concurrently with reads or other updates;
// reads are freely concurrent with each other. For concurrent ingest and
// analytics without phase separation, wrap the same configuration in a
// Store instead.
type Graph struct {
	g *core.Graph
}

// New returns an empty graph with n vertex slots.
func New(n uint32, opts ...Option) *Graph {
	var s settings
	for _, o := range opts {
		o(&s)
	}
	return &Graph{g: core.New(n, s.cfg)}
}

// NewFromEdges returns a graph with n vertex slots preloaded with es via
// the batch-insert path.
func NewFromEdges(n uint32, es []Edge, opts ...Option) *Graph {
	g := New(n, opts...)
	g.InsertEdges(es)
	return g
}

// NumVertices returns the number of vertex slots.
func (g *Graph) NumVertices() uint32 { return g.g.NumVertices() }

// EnsureVertices grows the vertex space to at least n slots, for streams
// whose vertex set grows over time. Like updates, it must not run
// concurrently with reads.
func (g *Graph) EnsureVertices(n uint32) { g.g.EnsureVertices(n) }

// NumEdges returns the number of directed edges stored.
func (g *Graph) NumEdges() uint64 { return g.g.NumEdges() }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v uint32) uint32 { return g.g.Degree(v) }

// Has reports whether edge (v, u) is present.
func (g *Graph) Has(v, u uint32) bool { return g.g.Has(v, u) }

// InsertEdges applies a batch of edge insertions in parallel. Duplicates
// within the batch and edges already present are ignored (set semantics).
func (g *Graph) InsertEdges(es []Edge) {
	src, dst := split(es)
	g.g.InsertBatch(src, dst)
}

// DeleteEdges applies a batch of edge deletions in parallel. Edges not
// present are ignored (set semantics).
func (g *Graph) DeleteEdges(es []Edge) {
	src, dst := split(es)
	g.g.DeleteBatch(src, dst)
}

// InsertBatch is the columnar variant of InsertEdges: it inserts the
// directed edges (src[i] -> dst[i]).
func (g *Graph) InsertBatch(src, dst []uint32) { g.g.InsertBatch(src, dst) }

// DeleteBatch is the columnar variant of DeleteEdges: it removes the
// directed edges (src[i] -> dst[i]).
func (g *Graph) DeleteBatch(src, dst []uint32) { g.g.DeleteBatch(src, dst) }

// ForEachNeighbor applies f to v's out-neighbors in ascending ID order.
// It is safe to call concurrently with other reads.
func (g *Graph) ForEachNeighbor(v uint32, f func(u uint32)) {
	engine.ForEachNeighbor(g.g, v, f)
}

// NeighborBlocks yields v's out-neighbors as ascending contiguous slices
// straight out of the engine's storage: the inline vertex-block prefix
// first, then the overflow structure's occupied runs (RIA blocks, LIA
// runs, or whole sorted arrays), skipping gaps without copying. Blocks are
// valid only until yield returns and must not be mutated. See Reader.
func (g *Graph) NeighborBlocks(v uint32, yield func(block []uint32) bool) {
	g.g.NeighborBlocks(v, yield)
}

// NeighborRange yields each vertex of [lo, min(hi, NumVertices())) with
// the blocks NeighborBlocks would yield for it, an empty block for a
// vertex without edges, walking the vertex blocks in order instead of
// looking each vertex up. See Reader.
func (g *Graph) NeighborRange(lo, hi uint32, yield func(v uint32, block []uint32) bool) {
	g.g.NeighborRange(lo, hi, yield)
}

// Neighbors returns v's out-neighbors in ascending order as a new slice.
func (g *Graph) Neighbors(v uint32) []uint32 {
	return g.g.AppendNeighbors(v, make([]uint32, 0, g.g.Degree(v)))
}

// DeleteVertex removes every edge incident to v on a symmetrized graph
// (v's adjacency plus the reverse edges held by its neighbors).
func (g *Graph) DeleteVertex(v uint32) { g.g.DeleteVertex(v) }

// Snapshot returns an immutable CSR view of the current graph. The call
// itself counts as a read — take it between update batches — but the
// returned view is then fully independent: analytics may run on it
// concurrently with further updates to g, and it satisfies Reader, so it
// can be handed to any kernel in this package.
func (g *Graph) Snapshot() *core.Snapshot { return g.g.Snapshot() }

// MemoryUsage returns the engine's estimated resident bytes: the vertex
// block array plus every overflow structure (Table 3).
func (g *Graph) MemoryUsage() uint64 { return g.g.MemoryUsage() }

// IndexMemory returns the bytes spent on RIA index arrays and LIA learned
// models, Table 3's index-overhead numerator.
func (g *Graph) IndexMemory() uint64 { return g.g.IndexMemory() }

// Engine exposes the graph through the engine-neutral interface shared
// with the baseline systems, for code written against engine.Engine.
func (g *Graph) Engine() engine.Engine { return g.g }

// split converts an Edge slice into the columnar src/dst form the engine
// ingests.
func split(es []Edge) (src, dst []uint32) {
	src = make([]uint32, len(es))
	dst = make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	return src, dst
}
