package core

import (
	"slices"
	"sync/atomic"
	"unsafe"

	"lsgraph/internal/parallel"
)

// shardState is one contiguous vertex-range partition of a Graph: the
// range's vertex blocks plus everything one concurrent update pipeline
// needs privately — an edge counter and the pipeline's scratch arenas.
// Two shardStates share no mutable memory, which is what lets
// internal/serve drive one writer goroutine per shard without locks: the
// one-vertex-one-worker invariant of §5 holds across shards because a
// vertex lives in exactly one of them.
//
// A shard stores its adjacency in one of two forms, fixed when its graph is
// built. Live (New), the paper's: verts, a 64-byte block per vertex with its
// overflow structure, updated in place. Paged (NewPaged), the serving
// layer's: tab, a (page‖offset, degree) entry per vertex over the runs in
// pub, the same table and pages its published snapshots read; verts is nil
// and a batch merges into new runs (merge.go).
type shardState struct {
	base  uint32
	idx   int32 // position in Graph.shards, for flight-recorder attribution
	verts []vertex
	m     atomic.Uint64
	prep  prepScratch
	apply []applyScratch

	// tab is the paged shard's table. While shared, the latest published
	// snapshot reads it too, and the first change since copies it (table).
	// pub is the arena its runs, and the published snapshots', lie in. spare
	// and spareDir are a recycled snapshot's table and directory, kept for
	// the next table copy and publish to overwrite instead of allocating;
	// tabEntries sums the capacities of tab, spare and every unrecycled
	// snapshot's table.
	paged      bool
	shared     bool
	tab        []vref
	pub        pageArena
	spare      []vref
	spareDir   [][]uint32
	tabEntries int

	// traceBatch is the flight-recorder batch ID the shard's current update
	// is attributed to (see internal/trace). It is owned by whichever
	// goroutine owns the shard's update pipeline — the serve shard writer
	// sets it via Shard.BeginTrace before applying — so a plain field
	// suffices under the per-shard exclusivity contract.
	traceBatch uint64
}

// slots is the shard's materialized vertex count in either form.
func (sh *shardState) slots() int { return len(sh.verts) + len(sh.tab) }

// degree returns the degree of slot lv in either form.
func (sh *shardState) degree(lv int) uint32 {
	if sh.paged {
		return sh.tab[lv].deg
	}
	return sh.verts[lv].degree()
}

// appendNeighbors appends slot lv's neighbors, ascending, in either form.
func (sh *shardState) appendNeighbors(lv int, dst []uint32) []uint32 {
	if sh.paged {
		return append(dst, sh.pub.read(sh.tab[lv])...)
	}
	return appendNeighborsVB(&sh.verts[lv], dst)
}

// neighborRange is Graph.NeighborRange over the shard's global vertices
// [lo, hi), its range starting at base; slots past the materialized
// storage have no edges. It reports whether the walk reached hi.
func (sh *shardState) neighborRange(base, lo, hi uint32, yield func(v uint32, block []uint32) bool) bool {
	// The overflow walks leak their yield, so this adapter is a heap
	// closure: one per call, reading the vertex from cur.
	var cur uint32
	each := func(b []uint32) bool { return yield(cur, b) }
	v, ok := lo, true
	for end := min(hi, base+uint32(sh.slots())); v < end && ok; v++ {
		lv := v - base
		if sh.paged {
			ns := sh.pub.read(sh.tab[lv])
			ok = yield(v, ns[:len(ns):len(ns)])
			continue
		}
		vb := &sh.verts[lv]
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

// table returns the paged shard's table for writing: its own copy, made
// now if the latest snapshot still shares it.
func (sh *shardState) table() []vref {
	if sh.shared {
		tab := growTab(sh.spare, len(sh.tab))
		sh.tabEntries += cap(tab) - cap(sh.spare)
		copy(tab, sh.tab)
		sh.tab, sh.spare, sh.shared = tab, nil, false
	}
	return sh.tab
}

// ensure grows the shard's materialized storage to at least n slots.
// Capacity grows geometrically, so a stream that raises the vertex bound a
// little with every batch copies the shard's 64-byte blocks (or 8-byte table
// entries) O(log n) times, not once per batch. Re-slicing within the capacity
// exposes only zero blocks: make zeroed the tail, and both boundary splices
// zero the blocks they move out; a table's spare capacity may hold a recycled
// snapshot's entries and is cleared.
func (sh *shardState) ensure(n int) {
	if n <= sh.slots() {
		return
	}
	if sh.paged {
		tab := sh.table()
		if c := cap(tab); n > c {
			sh.tab = make([]vref, n, max(n, c+c/2))
			sh.tabEntries += cap(sh.tab) - c
			copy(sh.tab, tab)
			return
		}
		sh.tab = tab[:n]
		clear(sh.tab[len(tab):])
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

// subEdges subtracts removed from the shard's edge counter (two's-
// complement add, since atomic.Uint64 has no Sub).
func (sh *shardState) subEdges(removed uint64) {
	sh.m.Add(^removed + 1)
}

// NumShards returns the number of vertex-range partitions (Config.Shards).
func (g *Graph) NumShards() int { return len(g.shards) }

// ShardOf returns the index of the shard owning vertex v under the
// current partition map. The last shard's range is open-ended, so IDs
// beyond the initial vertex space still belong to the last shard.
func (g *Graph) ShardOf(v uint32) int {
	return g.pmap.Load().ShardOf(v)
}

// shardWorkers returns the per-shard update parallelism: the graph's
// worker budget split evenly across shards, at least one. Shard pipelines
// run concurrently, so giving each the full budget would oversubscribe.
func (g *Graph) shardWorkers() int {
	p := g.workers() / len(g.shards)
	if p < 1 {
		p = 1
	}
	return p
}

// Shard is a handle on one vertex-range partition, exposing the per-shard
// update/snapshot surface that internal/serve builds its shard writers on.
// Methods that mutate (EnsureVertices, InsertBatch, DeleteBatch,
// SnapshotInto) must be serialized per shard — one owner goroutine per
// shard — but different shards' owners may run them concurrently.
type Shard struct {
	g  *Graph
	sh *shardState
}

// Shard returns the handle for shard i (0 <= i < NumShards).
func (g *Graph) Shard(i int) Shard { return Shard{g: g, sh: &g.shards[i]} }

// Base returns the first vertex ID of the shard's range.
func (s Shard) Base() uint32 { return s.sh.base }

// BeginTrace attributes the shard's subsequent updates to the given
// flight-recorder batch ID (internal/trace): the pack, partition and apply
// spans the pipeline records will carry it. Callers must own the shard
// exclusively, like every mutating method.
func (s Shard) BeginTrace(batch uint64) { s.sh.traceBatch = batch }

// NumVertices returns the shard's materialized slot count; the shard owns
// global IDs [Base, Base+NumVertices) plus, for the last shard, any
// not-yet-materialized tail of the logical vertex space.
func (s Shard) NumVertices() uint32 { return uint32(s.sh.slots()) }

// NumEdges returns the number of directed edges stored in the shard.
func (s Shard) NumEdges() uint64 { return s.sh.m.Load() }

// EnsureVertices raises the graph's logical vertex bound to at least n
// (atomic max, safe against other shards doing the same) and materializes
// this shard's storage for its slice of the new range. The serving layer
// calls it before every apply so batches may reference vertices beyond
// the initial space.
func (s Shard) EnsureVertices(n uint32) {
	g := s.g
	g.raiseBound(n)
	n = g.n.Load()
	s.sh.ensure(g.pmap.Load().RangeLen(int(s.sh.idx), n))
}

// InsertBatch adds the directed edges (src[i] -> dst[i]), all of whose
// sources must belong to this shard (route with ScatterBatch). Duplicate
// and already-present edges are ignored.
func (s Shard) InsertBatch(src, dst []uint32) {
	validateBatch("InsertBatch", src, dst)
	s.g.insertBatchShard(s.sh, src, dst, s.g.shardWorkers())
}

// DeleteBatch removes the directed edges (src[i] -> dst[i]), all of whose
// sources must belong to this shard. Absent edges are ignored.
func (s Shard) DeleteBatch(src, dst []uint32) {
	validateBatch("DeleteBatch", src, dst)
	s.g.deleteBatchShard(s.sh, src, dst, s.g.shardWorkers())
}

// SnapshotInto flattens the shard into a local CSR view — table indexed
// by local slot, adjacency holding global IDs — reusing snap's buffers
// when capacity allows (see Graph.SnapshotInto for the reuse contract).
// The call must be serialized with this shard's updates only; other
// shards may keep updating concurrently.
func (s Shard) SnapshotInto(snap *Snapshot) *Snapshot {
	sh := s.sh
	return rebuildInto(snap, s.g.shards[sh.idx:sh.idx+1], sh.base, sh.slots(), s.g.shardWorkers())
}

// Publish returns the paged shard's current state (NewPaged) as a new
// immutable snapshot; it panics on a live one. It finds the batches since the
// last Publish already applied — their vertices' new runs written at the
// arena's tail (merge.go), the table patched, the runs they superseded
// uncounted — and seals the table: the next change copies it. When pages in
// use exceed the live entries by more than half, it also copies the live runs
// of the emptiest pages forward and retires those pages (pageArena has the
// lifetime rules). Its cost follows what the batches changed, not the shard.
// Every earlier snapshot stays valid and unchanged: nothing it can reach is
// written. Serialized with this shard's updates, like SnapshotInto.
func (s Shard) Publish() *Snapshot {
	if !s.sh.paged {
		panic("core: Publish on a live shard; a Store's graph is built by NewPaged")
	}
	return s.g.publishShard(s.sh)
}

// Recycle hands a snapshot Publish returned, and that no reader holds
// anymore, back to the shard, in any order relative to other snapshots: its
// table and directory become the next table copy's and Publish's, and the
// pages retired before every snapshot still out was published become
// reusable. snap must not be the shard's latest snapshot and must not be used
// afterwards. Serialized with Publish.
func (s Shard) Recycle(snap *Snapshot) {
	sh, a := s.sh, &s.sh.pub
	sh.tabEntries -= cap(sh.spare)
	clear(snap.pages)
	sh.spare, sh.spareDir = snap.tab, snap.pages
	if i, ok := slices.BinarySearch(a.out, snap.seq); ok {
		a.out = slices.Delete(a.out, i, i+1)
	}
	a.drain()
	*snap = Snapshot{}
}

// PublishedStats is what a shard's published snapshots hold, in bytes
// unless named otherwise.
type PublishedStats struct {
	Tables  uint64 // tables of the unrecycled snapshots, and the spare
	InUse   uint64 // pages the latest snapshot reads
	Free    uint64 // drained pages awaiting reuse
	Retired uint64 // pages only older, unrecycled snapshots read
	Bound   uint64 // what InUse+Free may reach at the latest snapshot's size, its tails and free list counted as full-size pages
	Cleaned uint64 // entries the cleaner has copied forward, ever
	Placed  uint64 // entries of all runs written, ever: batches', loads', moves' and the cleaner's
}

// Total is the bytes resident on the published side.
func (p PublishedStats) Total() uint64 { return p.Tables + p.InUse + p.Free + p.Retired }

// Published reports the shard's published-side footprint. Serialized with
// Publish.
func (s Shard) Published() PublishedStats {
	a := &s.sh.pub
	p := PublishedStats{
		Tables:  uint64(s.sh.tabEntries) * uint64(unsafe.Sizeof(vref{})),
		InUse:   4 * a.inUse,
		Free:    4 * pageSize * uint64(len(a.free)),
		Bound:   4 * (arenaBound(a.m) + uint64(len(a.tails)+arenaFreeMax)*pageSize),
		Cleaned: a.cleaned,
		Placed:  a.placed,
	}
	for _, r := range a.retired {
		p.Retired += 4 * uint64(len(r.page))
	}
	return p
}

// SubBatch is one shard's routed slice of a mixed batch; indexes align
// with the shard order of ScatterBatch's result.
type SubBatch struct {
	Src, Dst []uint32
}

// ScatterBatch routes a mixed batch to shards by source vertex: parts[i]
// holds exactly the edges whose source ShardOf maps to shard i, in their
// original relative order. bound is 1 + the largest vertex ID referenced
// by either endpoint (0 for an empty batch) — the vertex-space size the
// batch requires, which the serving layer feeds to Shard.EnsureVertices.
// The returned sub-batches are freshly allocated and do not alias
// src/dst, so callers may retain them after the input buffers are reused.
// Parts share one backing array, but each part's capacity is pinned to its
// length, so appending to a retained part reallocates rather than writing
// into a sibling part.
// ScatterBatch does not validate IDs against the current vertex space.
func (g *Graph) ScatterBatch(src, dst []uint32) (parts []SubBatch, bound uint32) {
	return g.ScatterBatchWith(g.pmap.Load(), src, dst)
}

// ScatterBatchWith is ScatterBatch routing by an explicit partition map
// instead of the graph's current one. The serving layer uses it to pin a
// whole batch's routing to the map that was current when the batch
// entered the queue, so a concurrent boundary move cannot split one
// batch's routing across two maps.
func (g *Graph) ScatterBatchWith(pm *PartitionMap, src, dst []uint32) (parts []SubBatch, bound uint32) {
	validateBatch("ScatterBatch", src, dst)
	S := len(g.shards)
	parts = make([]SubBatch, S)
	n := len(src)
	if n == 0 {
		return parts, 0
	}
	if S == 1 {
		return scatterOne(src, dst, parts)
	}
	p := g.workers()
	if n < parPrepMin || p <= 1 {
		return g.scatterSeq(pm, src, dst, parts)
	}

	// Pass 1: per-worker, per-shard counts over static ranges (cuts must
	// be deterministic across passes, so no dynamic chunk claiming here).
	counts := make([]int, p*S)
	maxes := make([]uint32, p)
	parallel.ForBlockedW(p, p, func(_, w int) {
		lo, hi := w*n/p, (w+1)*n/p
		c := counts[w*S : w*S+S]
		max := uint32(0)
		for i := lo; i < hi; i++ {
			s, d := src[i], dst[i]
			c[pm.ShardOf(s)]++
			if s > max {
				max = s
			}
			if d > max {
				max = d
			}
		}
		maxes[w] = max
	})

	// Exclusive prefix sums, shard-major then worker: worker w's output
	// for shard s starts where worker w-1's ends, preserving input order.
	total := 0
	sizes := make([]int, S)
	for s := 0; s < S; s++ {
		for w := 0; w < p; w++ {
			c := counts[w*S+s]
			counts[w*S+s] = total
			total += c
			sizes[s] += c
		}
	}
	srcOut := make([]uint32, n)
	dstOut := make([]uint32, n)

	// Pass 2: write each edge at its final offset.
	parallel.ForBlockedW(p, p, func(_, w int) {
		lo, hi := w*n/p, (w+1)*n/p
		c := counts[w*S : w*S+S]
		for i := lo; i < hi; i++ {
			s := src[i]
			sh := pm.ShardOf(s)
			j := c[sh]
			c[sh] = j + 1
			srcOut[j] = s
			dstOut[j] = dst[i]
		}
	})

	off := 0
	for s := 0; s < S; s++ {
		// Full slice expressions pin each part's capacity: a retained part
		// that is appended to (serve's backpressure merge) reallocates
		// instead of overwriting the next shard's slice of the backing array.
		end := off + sizes[s]
		parts[s] = SubBatch{Src: srcOut[off:end:end], Dst: dstOut[off:end:end]}
		off = end
	}
	for _, m := range maxes {
		if m+1 > bound {
			bound = m + 1
		}
	}
	return parts, bound
}

// scatterOne is the scatter of a one-range map: there is nothing to route,
// so one pass copies the batch and finds its bound.
func scatterOne(src, dst []uint32, parts []SubBatch) ([]SubBatch, uint32) {
	max := uint32(0)
	cs, cd := make([]uint32, len(src)), make([]uint32, len(src))
	for i, s := range src {
		d := dst[i]
		cs[i], cd[i] = s, d
		if s > max {
			max = s
		}
		if d > max {
			max = d
		}
	}
	parts[0] = SubBatch{Src: cs, Dst: cd}
	return parts, max + 1
}

// scatterSeq is the one-worker scatter for small batches.
func (g *Graph) scatterSeq(pm *PartitionMap, src, dst []uint32, parts []SubBatch) ([]SubBatch, uint32) {
	S := len(g.shards)
	sizes := make([]int, S)
	max := uint32(0)
	for i, s := range src {
		sizes[pm.ShardOf(s)]++
		if s > max {
			max = s
		}
		if d := dst[i]; d > max {
			max = d
		}
	}
	srcOut := make([]uint32, len(src))
	dstOut := make([]uint32, len(src))
	off := 0
	offs := make([]int, S)
	for s := 0; s < S; s++ {
		offs[s] = off
		off += sizes[s]
	}
	for i, s := range src {
		sh := pm.ShardOf(s)
		j := offs[sh]
		offs[sh] = j + 1
		srcOut[j] = s
		dstOut[j] = dst[i]
	}
	off = 0
	for s := 0; s < S; s++ {
		end := off + sizes[s]
		parts[s] = SubBatch{Src: srcOut[off:end:end], Dst: dstOut[off:end:end]}
		off = end
	}
	return parts, max + 1
}
