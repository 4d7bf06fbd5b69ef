package core

// Shard is a handle on range k of a Graph's partition map: the per-range
// update and snapshot surface the benchmark's layer timings drive (see
// Config.Shards). The range has its own pipeline — its scratch, Base and
// End — over the graph's one vertex array, and its batches count into the
// graph's one edge counter.
//
// Different handles' InsertBatch, DeleteBatch and SnapshotInto may run side
// by side, each handle's serialized on one goroutine: they touch only their
// own range's blocks. EnsureVertices grows the one array, so it must not
// run beside anything. The benchmark drives the handles one after another.
type Shard struct {
	pc *pipe
	g  *Graph
}

// Shard returns the handle on range k (0 <= k < len(PartitionMap().Starts)).
func (g *Graph) Shard(k int) Shard { return Shard{&g.ranges[k], g} }

// Base returns the first vertex ID of the handle's range.
func (s Shard) Base() uint32 { return s.pc.base }

// EnsureVertices is Graph.EnsureVertices: it grows the graph's one vertex
// array, so no other call on the graph or its handles may run beside it.
func (s Shard) EnsureVertices(n uint32) { s.g.EnsureVertices(n) }

// InsertBatch adds the directed edges (src[i] -> dst[i]), all of whose
// sources must lie in the handle's range (route with ScatterBatch).
// Duplicate and already-present edges are ignored.
func (s Shard) InsertBatch(src, dst []uint32) {
	validateBatch("InsertBatch", src, dst)
	s.g.apply(s.pc, src, dst, s.g.shardWorkers(len(s.g.ranges)), false)
}

// DeleteBatch removes the directed edges (src[i] -> dst[i]), all of whose
// sources must lie in the handle's range. Absent edges are ignored.
func (s Shard) DeleteBatch(src, dst []uint32) {
	validateBatch("DeleteBatch", src, dst)
	s.g.apply(s.pc, src, dst, s.g.shardWorkers(len(s.g.ranges)), true)
}

// SnapshotInto flattens the range's materialized blocks into a local CSR
// view — table indexed by vertex minus Base, adjacency holding global IDs —
// reusing snap's buffers when capacity allows (see Graph.SnapshotInto for
// the reuse contract).
func (s Shard) SnapshotInto(snap *Snapshot) *Snapshot {
	n := uint64(len(s.g.verts))
	verts := s.g.verts[min(uint64(s.pc.base), n):min(s.pc.end, n)]
	return rebuildInto(snap, verts, len(verts), s.g.shardWorkers(len(s.g.ranges)))
}
