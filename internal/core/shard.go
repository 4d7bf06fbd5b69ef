package core

// Shard is a view of range k of a Graph's partition map: the per-range
// update and snapshot surface the benchmark's layer timings drive (see
// Config.Shards). Its batches run the graph's one pipeline, on the share of
// the workers a shard of the map would get, and count into the graph's one
// edge counter.
//
// No handle call may run beside any other update or handle call on the
// graph: they share the one pipeline and the one vertex array. The
// benchmark drives the handles one after another.
type Shard struct {
	g *Graph
	k int
}

// Shard returns the handle on range k (0 <= k < len(PartitionMap().Starts)).
func (g *Graph) Shard(k int) Shard { return Shard{g, k} }

// Base returns the first vertex ID of the handle's range.
func (s Shard) Base() uint32 { return s.g.pmap.Starts[s.k] }

// EnsureVertices is Graph.EnsureVertices: it grows the graph's one vertex array.
func (s Shard) EnsureVertices(n uint32) { s.g.EnsureVertices(n) }

// InsertBatch adds the directed edges (src[i] -> dst[i]), all of whose
// sources must lie in the handle's range (route with ScatterBatch).
// Duplicate and already-present edges are ignored.
func (s Shard) InsertBatch(src, dst []uint32) {
	validateBatch("InsertBatch", src, dst)
	s.g.apply(src, dst, s.workers(), false)
}

// DeleteBatch removes the directed edges (src[i] -> dst[i]), all of whose
// sources must lie in the handle's range. Absent edges are ignored.
func (s Shard) DeleteBatch(src, dst []uint32) {
	validateBatch("DeleteBatch", src, dst)
	s.g.apply(src, dst, s.workers(), true)
}

// SnapshotInto flattens the range's materialized blocks into a local CSR
// view — table indexed by vertex minus Base, adjacency holding global IDs —
// reusing snap's buffers when capacity allows (see Graph.SnapshotInto for
// the reuse contract).
func (s Shard) SnapshotInto(snap *Snapshot) *Snapshot {
	starts, n := s.g.pmap.Starts, uint64(len(s.g.verts))
	hi := n
	if s.k+1 < len(starts) {
		hi = min(uint64(starts[s.k+1]), n)
	}
	verts := s.g.verts[min(uint64(starts[s.k]), n):hi]
	return rebuildInto(snap, verts, len(verts), s.workers())
}

// workers is the handle's share of the graph's workers.
func (s Shard) workers() int { return s.g.shardWorkers(len(s.g.pmap.Starts)) }
