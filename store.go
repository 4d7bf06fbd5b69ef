package lsgraph

import (
	"lsgraph/internal/engine"
	"lsgraph/internal/serve"
)

// Store is the concurrent serving layer: a single-writer / multi-reader
// graph that lets batch updates and analytics run at the same time, the
// capability the bare Graph's alternating-phase contract rules out.
//
// The vertex space is split into WithShards contiguous shards (default
// 1). Updates are copied and enqueue, as one entry, into the store's
// bounded queue; one writer goroutine scatters each batch by source vertex
// to the shards, applies its shard parts side by side and publishes every
// touched shard's snapshot as one new epoch, so a reader sees a batch whole or not at all. Under
// backpressure the queue merges same-op batches instead of blocking
// callers. Readers pin the current epoch with View — two atomic
// operations — and run any analytics on it while further batches apply; a
// shard snapshot's buffers are recycled once no reader pins an epoch that
// holds it. Vertex space grows automatically: an update referencing an ID
// beyond the current bound reserves it at enqueue time and the owning
// shard materializes storage before applying, so unbounded ID streams need
// no explicit sizing.
//
// Store itself implements Reader by delegating each call to the current
// snapshot, so the built-in kernels run directly on a live Store. Each
// such call is individually consistent, but two successive calls may see
// different epochs; pin a View when a whole kernel must observe one
// coherent graph (the kernels themselves receive one Reader value, so
// passing a View gives a fully consistent run).
type Store struct {
	st *serve.Store
}

// NewStore returns a Store over an empty graph with n vertex slots and
// starts its writer goroutine. It accepts the same options as New, but
// ignores WithAlpha and WithM: a Store's shards keep each vertex's
// neighbors as one plain run in pages its snapshots share, not in the
// engine's vertex blocks, RIAs and HITrees. The store's epoch 0 (the empty
// graph) is readable immediately. With
// WithDurability among the options, construction touches disk and may
// recover prior state; NewStore panics on any such error — durable
// callers should prefer OpenStore, which returns it instead.
func NewStore(n uint32, opts ...Option) *Store {
	st, err := OpenStore(n, opts...)
	if err != nil {
		panic("lsgraph: NewStore: " + err.Error())
	}
	return st
}

// InsertEdges enqueues a batch of edge insertions and returns immediately;
// the batch becomes visible to readers when the writer applies it and
// publishes the next epoch. Duplicates and already-present edges are
// ignored, as in Graph.InsertEdges.
func (s *Store) InsertEdges(es []Edge) {
	src, dst := split(es)
	s.st.InsertBatch(src, dst)
}

// DeleteEdges enqueues a batch of edge deletions with the same
// asynchronous contract as InsertEdges. Enqueue order is preserved, so an
// insert followed by a delete of the same edge leaves it absent.
func (s *Store) DeleteEdges(es []Edge) {
	src, dst := split(es)
	s.st.DeleteBatch(src, dst)
}

// InsertBatch is the columnar variant of InsertEdges. The slices are
// copied; the caller may reuse them immediately.
func (s *Store) InsertBatch(src, dst []uint32) { s.st.InsertBatch(src, dst) }

// DeleteBatch is the columnar variant of DeleteEdges. The slices are
// copied; the caller may reuse them immediately.
func (s *Store) DeleteBatch(src, dst []uint32) { s.st.DeleteBatch(src, dst) }

// Enqueue is InsertBatch or, with del, DeleteBatch for callers that may race
// with Close: on a closed store it returns serve.ErrClosed and enqueues
// nothing, where those two panic. They panic, and it returns an error, on a
// batch it cannot apply too: src and dst of different lengths, or an edge
// naming vertex 2³²−1.
func (s *Store) Enqueue(del bool, src, dst []uint32) error { return s.st.Enqueue(del, src, dst) }

// Flush blocks until every update enqueued before the call has been
// applied and published, and on a durable store fsynced: the fsync runs
// while the writer applies, so a durable Flush costs the longer of the two.
func (s *Store) Flush() {
	s.st.Flush()
}

// Close applies and publishes any remaining queued batches, then stops
// the writer goroutine and waits for it to exit. Updates after
// Close panic; Views acquired before Close remain readable.
func (s *Store) Close() {
	s.st.Close()
}

// View pins the most recently published snapshot and returns it. Views
// are always available — acquiring never waits for the writer, even
// mid-batch — and stay immutable while the store keeps ingesting. Release
// every view when done; an unreleased view pins its snapshot's memory.
// Pinning allocates only the returned StoreView.
func (s *Store) View() *StoreView {
	v := new(StoreView)
	s.st.Pin(&v.v)
	return v
}

// Epoch returns the store's current epoch: the number of update batches
// applied and published since construction, one per batch however many
// shards it touched.
func (s *Store) Epoch() uint64 { return s.st.Epoch() }

// Shards returns the number of vertex-range shards (1 unless the store
// was built with WithShards).
func (s *Store) Shards() int { return s.st.Shards() }

// NumVertices returns the vertex count of the current snapshot.
func (s *Store) NumVertices() uint32 { return s.st.NumVertices() }

// NumEdges returns the directed edge count of the current snapshot.
func (s *Store) NumEdges() uint64 { return s.st.NumEdges() }

// Degree returns v's out-degree in the current snapshot.
func (s *Store) Degree(v uint32) uint32 { return s.st.Degree(v) }

// ForEachNeighbor applies f to v's out-neighbors in ascending order on
// the snapshot current at call time; the snapshot stays pinned for the
// whole iteration, concurrently with ongoing ingestion.
func (s *Store) ForEachNeighbor(v uint32, f func(u uint32)) {
	engine.ForEachNeighbor(s.st, v, f)
}

// NeighborBlocks yields v's adjacency as one contiguous slice out of the
// owning shard's snapshot current at call time (see Reader). The
// snapshot stays pinned only for the duration of the call; the block must
// not be retained past yield.
func (s *Store) NeighborBlocks(v uint32, yield func(block []uint32) bool) {
	s.st.NeighborBlocks(v, yield)
}

// NeighborRange yields each vertex of [lo, min(hi, NumVertices())) with its
// adjacency, an empty block for a vertex without edges, out of one view of
// every shard pinned for the call (see Reader).
func (s *Store) NeighborRange(lo, hi uint32, yield func(v uint32, block []uint32) bool) {
	s.st.NeighborRange(lo, hi, yield)
}

// Saturated reports whether the store's update queue has reached the
// WithMaxQueue bound, the point where further same-op updates coalesce into
// already-queued batches instead of queueing independently. Front-ends use
// it as the admission-control shed signal (respond 429 instead of
// enqueueing). Safe from any goroutine; it briefly takes the queue lock,
// so call it per request, not per edge. It is the store's one
// admission signal; StoreStats.QueueDepth says how many batches wait.
func (s *Store) Saturated() bool { return s.st.Saturated() }

// StoreStats is a point-in-time copy of a Store's counters; see the field
// docs in internal/serve. The metrics registry's lsgraph_store_* and
// lsgraph_wal_* series read the same counters, summed over every open Store,
// whether or not collection is on.
type StoreStats = serve.Stats

// Stats returns a copy of the store's counters: queue depth, batches
// applied, edges enqueued, coalesced batches, snapshots published and
// reclaimed, arena bytes, rebalance and WAL activity.
func (s *Store) Stats() StoreStats { return s.st.Stats() }

// RebalanceResult summarizes one Store.Rebalance call; see the field docs
// in internal/serve.
type RebalanceResult = serve.RebalanceResult

// PartitionInfo is a point-in-time description of a Store's partition
// layout and per-shard load; see the field docs in internal/serve.
type PartitionInfo = serve.PartitionInfo

// Rebalance re-partitions the vertex space toward equal per-shard edge
// mass: the writer re-cuts the shards' ranges to the equal-mass starts
// between two batches, copying each vertex whose shard changes once, and
// publishes the result as one epoch, so ingest waits for the re-cut. Reads
// proceed throughout. Views pinned before the call keep reading their
// pre-rebalance state until released.
// On a single-shard store it returns an empty result. Concurrent calls
// run in turn; each sees the previous call's layout.
func (s *Store) Rebalance() (RebalanceResult, error) { return s.st.Rebalance() }

// Partition returns the store's current partition layout and per-shard
// load, read from one pinned epoch: the partition epoch (boundaries
// changed so far), range starts, stored edge mass, routed-edge counters,
// and the stored-mass skew gauge.
func (s *Store) Partition() PartitionInfo { return s.st.Partition() }

// StoreView is an epoch-pinned, immutable view of a Store: one epoch — a
// snapshot of every shard at one point of the batch sequence — behind the
// Reader interface. It implements Reader, so every built-in kernel (BFS,
// PageRank, ConnectedComponents, TriangleCount, KCore, BC) and the EdgeMap
// primitive run on it while the store keeps ingesting. A view holds a
// prefix of the enqueued batches: each batch wholly or not at all, across
// every shard, and nothing changes while it is pinned.
//
// A StoreView holds the internal view it pins by value: pinning allocates
// the StoreView and nothing else, and nothing is recycled, so a released
// StoreView never becomes another caller's.
type StoreView struct {
	v serve.View
}

// Epoch returns the epoch this view pinned: 0 for the store's initial
// empty graph, incremented by one per applied batch. Valid after Release.
func (v *StoreView) Epoch() uint64 { return v.v.Epoch() }

// Release unpins the view, allowing its snapshot's buffers to be
// recycled. The view must not be read afterwards. Only the first Release
// unpins: releasing twice, even from two goroutines at once, is a no-op.
func (v *StoreView) Release() { v.v.Release() }

// NumVertices returns the view's vertex count.
func (v *StoreView) NumVertices() uint32 { return v.v.NumVertices() }

// NumEdges returns the view's directed edge count.
func (v *StoreView) NumEdges() uint64 { return v.v.NumEdges() }

// Degree returns u's out-degree at the view's epoch.
func (v *StoreView) Degree(u uint32) uint32 { return v.v.Degree(u) }

// Neighbors returns u's out-neighbors in ascending order as a new slice.
func (v *StoreView) Neighbors(u uint32) []uint32 {
	ns := v.v.Neighbors(u)
	return append(make([]uint32, 0, len(ns)), ns...)
}

// ForEachNeighbor applies f to u's out-neighbors in ascending ID order.
func (v *StoreView) ForEachNeighbor(u uint32, f func(w uint32)) {
	for _, w := range v.v.Neighbors(u) {
		f(w)
	}
}

// NeighborBlocks yields u's adjacency as one contiguous slice aliasing the
// view's pinned snapshot (see Reader). Unlike Neighbors, the block is
// not a copy: it must not be mutated or used after Release.
func (v *StoreView) NeighborBlocks(u uint32, yield func(block []uint32) bool) {
	v.v.NeighborBlocks(u, yield)
}

// NeighborRange yields each vertex of [lo, min(hi, NumVertices())) with
// its run in the view's pinned snapshots, an empty block for a vertex
// without edges (see Reader). Blocks must not be mutated or used after
// Release.
func (v *StoreView) NeighborRange(lo, hi uint32, yield func(u uint32, block []uint32) bool) {
	v.v.NeighborRange(lo, hi, yield)
}
