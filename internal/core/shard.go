package core

// shardState is one contiguous vertex-range partition of a Graph: the
// range's vertex blocks — a 64-byte block per vertex with its overflow
// structure, updated in place — plus the update pipeline the shard runs
// privately. Two shardStates share no mutable memory, so the shards of a
// batch scattered by source apply concurrently without locks: the
// one-vertex-one-worker invariant of §5 holds across shards because a
// vertex lives in exactly one of them.
type shardState struct {
	pipe
	verts []vertex
}

// neighborRange is Graph.NeighborRange over the shard's global vertices
// [lo, hi); slots past the materialized storage have no edges. It reports
// whether the walk reached hi.
func (sh *shardState) neighborRange(lo, hi uint32, yield func(v uint32, block []uint32) bool) bool {
	// The overflow walks leak their yield, so this adapter is a heap
	// closure: one per call, reading the vertex from cur.
	var cur uint32
	each := func(b []uint32) bool { return yield(cur, b) }
	v, ok := lo, true
	for end := min(hi, sh.base+uint32(len(sh.verts))); v < end && ok; v++ {
		vb := &sh.verts[v-sh.base]
		n := vb.inlineLen()
		if ok = yield(v, vb.inline[:n:n]); ok && vb.ov != nil {
			cur = v
			ok = vb.ovBlocks(each)
		}
	}
	for ; v < hi && ok; v++ {
		ok = yield(v, nil)
	}
	return ok
}

// ensure grows the shard's vertex blocks to at least n. Capacity grows
// geometrically, so a stream that raises the vertex bound a little with
// every batch copies the shard's blocks O(log n) times, not once per batch.
// Re-slicing within the capacity exposes only zero blocks: make zeroed the
// tail, and a shard's blocks never shrink.
func (sh *shardState) ensure(n int) {
	if n <= len(sh.verts) {
		return
	}
	if c := cap(sh.verts); n > c {
		nv := make([]vertex, n, max(n, c+c/2))
		copy(nv, sh.verts)
		sh.verts = nv
		return
	}
	sh.verts = sh.verts[:n]
}

// Shard is a handle on one vertex-range partition of a Graph: the per-shard
// update and snapshot surface the benchmark's layer timings drive (see
// Config.Shards). Methods that mutate (EnsureVertices, InsertBatch,
// DeleteBatch, SnapshotInto) must be serialized per shard — one owner
// goroutine per shard — but different shards' owners may run them
// concurrently.
type Shard struct {
	*shardState
	g *Graph
}

// Shard returns the handle for shard i (0 <= i < NumShards).
func (g *Graph) Shard(i int) Shard { return Shard{&g.shards[i], g} }

// NumVertices returns the shard's materialized slot count; the shard owns
// global IDs [Base, Base+NumVertices) plus, for the last shard, any
// not-yet-materialized tail of the logical vertex space.
func (s Shard) NumVertices() uint32 { return uint32(len(s.verts)) }

// EnsureVertices raises the graph's logical vertex bound to at least n
// (atomic max, safe against other shards doing the same) and materializes
// this shard's blocks for its slice of the new range.
func (s Shard) EnsureVertices(n uint32) { s.ensure(s.g.grow(n, s.idx)) }

// InsertBatch adds the directed edges (src[i] -> dst[i]), all of whose
// sources must belong to this shard (route with ScatterBatch). Duplicate
// and already-present edges are ignored.
func (s Shard) InsertBatch(src, dst []uint32) {
	validateBatch("InsertBatch", src, dst)
	s.g.batchShard(s.shardState, src, dst, s.g.shardWorkers(), false)
}

// DeleteBatch removes the directed edges (src[i] -> dst[i]), all of whose
// sources must belong to this shard. Absent edges are ignored.
func (s Shard) DeleteBatch(src, dst []uint32) {
	validateBatch("DeleteBatch", src, dst)
	s.g.batchShard(s.shardState, src, dst, s.g.shardWorkers(), true)
}

// SnapshotInto flattens the shard into a local CSR view — table indexed
// by local slot, adjacency holding global IDs — reusing snap's buffers
// when capacity allows (see Graph.SnapshotInto for the reuse contract).
// The call must be serialized with this shard's updates only; other
// shards may keep updating concurrently.
func (s Shard) SnapshotInto(snap *Snapshot) *Snapshot {
	return rebuildInto(snap, s.g.shards[s.idx:s.idx+1], s.base, len(s.verts), s.g.shardWorkers())
}
