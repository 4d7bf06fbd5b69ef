package core

import (
	"fmt"
	"math"
	"slices"

	"lsgraph/internal/parallel"
)

// vref locates one vertex's adjacency run: off is page‖offset — the page's
// slot in the snapshot's directory in the bits above pageBits, the run's
// first entry within the page below them.
type vref struct{ off, deg uint32 }

// Snapshot is an immutable view of a graph (or of one shard) at the
// moment it was taken: a per-vertex table of (page‖offset, degree) over a
// directory of adjacency pages. It implements the read side of
// engine.Graph, so analytics can run on a frozen snapshot while the graph
// keeps ingesting updates — the capability Aspen gets from functional
// trees.
//
// Graph.SnapshotInto builds a plain CSR: one array of exactly the graph's
// size, runs in vertex order, back to back, off the run's index in it; its
// directory's entry p is the array from p·pageSize on, so the same two
// loads find a run there. PagedShard.Publish seals a Paged shard's own table
// over its arena of fixed-size pages (see pageArena), at a cost that follows
// the batch, not the graph; successive snapshots of one shard share every
// page and run the batches between them did not change.
type Snapshot struct {
	tab []vref
	// pages is this snapshot's own directory. Each entry's length is what had
	// been written of the page when the snapshot was published, so the words a
	// later publish appends to a shared page are beyond every slice an earlier
	// snapshot holds.
	pages [][]uint32
	adj   []uint32 // a plain CSR's array; nil for a published snapshot
	m     uint64   // live entries: the sum of tab's degrees
	seq   uint64   // position in the shard's publish order; 0 for a plain CSR
}

// Page geometry and bounds of a shard's published arena; EXPERIMENTS.md
// ("The published arena cleans itself") has the table they were chosen from.
const (
	// 16 Ki entries: 64 KiB, a Go large object, so a page costs exactly its
	// size — no size-class rounding — and a G15 shard's directory is ~40
	// slice headers, an L1 hit.
	pageBits = 14
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
	maxPages = 1 << (32 - pageBits)
	// A shard whose live entries would not half fill a page opens pages of
	// twice its live entries (at least pageMin), so that what a small graph
	// holds published follows its edges, not the page size (EXPERIMENTS.md,
	// "Small shards", has what each rule costs and why it is twice).
	pageMin = 256
	// Pages in use may exceed the live entries by half (at least two pages)
	// before a publish cleans: the bound on what a shard's published state
	// costs, 1.5x its edges.
	arenaSlackDiv = 2
	// Drained pages kept for reuse; a steady stream opens and retires two or
	// three a publish, so more would only sit idle.
	arenaFreeMax = 4
)

// pageArena is a Paged shard's adjacency storage, which its published
// snapshots share: pages of pageLen entries (a run longer than that gets a
// page of exactly its size), written strictly append-only. Only the shard's
// owner writes — a batch's merge, a load, a boundary move, the cleaner — and
// only words no snapshot can reach: the unwritten rest of a tail page or a
// page off the free list. A page retires when the shard's table stops
// naming it — its last run was superseded, or the cleaner copied its live
// runs forward — and rejoins the free list once every snapshot published
// before that has been Recycled, so a reader never sees a page reused. All
// of it runs on the shard's owner; nothing here is atomic.
type pageArena struct {
	pages   [][]uint32  // by directory slot; nil: slot unused
	live    []uint32    // per slot, entries the shard's table names
	tails   [2]tailPage // where runs go: tailBatch, tailKept
	inUse   uint64      // entries of capacity in pages
	free    [][]uint32  // drained pages of pageSize entries
	retired []retiredPage
	out     []uint64 // seq of every snapshot published and not recycled, ascending
	seq     uint64   // of the snapshot the next Publish seals
	m       uint64   // the shard's live entries, set before runs are placed
	cleaned uint64   // entries the cleaner has copied, ever
	placed  uint64   // entries of every run placed, ever
}

// tailPage is a page being filled: its slot, valid while room — the
// unwritten entries at its end — is not zero.
type tailPage struct {
	id   int
	room uint32
}

// The arena fills two pages at a time. A batch's runs go to one: they are
// mostly those of the vertices batches name again and again, and die within
// a few publishes. What the cleaner finds alive goes to the other: it has
// outlived a page already and mostly keeps living. Kept apart, the first
// kind of page empties almost whole — cheap to clean — and the second stays
// dense and in the vertex order the cleaner wrote it in, which is what a
// kernel sweeping the snapshot reads; filling one page with both cost
// PageRank five points more at G15 (EXPERIMENTS.md).
const (
	tailBatch = iota
	tailKept
)

// retiredPage is a page no snapshot from seq on reads.
type retiredPage struct {
	seq  uint64
	page []uint32
}

// pageLen is the size of the pages a shard of the given live entries opens.
func pageLen(live uint64) uint32 {
	return uint32(min(max(2*live, pageMin), pageSize))
}

// arenaBound is the capacity, in entries, a shard's pages in use may reach
// for the given live entries before a publish cleans.
func arenaBound(live uint64) uint64 {
	return live + max(live/arenaSlackDiv, 2*uint64(pageLen(live)))
}

// place reserves a run of deg entries at one of the arena's tails and counts
// it live. Runs never straddle pages: one that does not fit what is left of
// the tail page opens the next, off the free list when it can.
func (a *pageArena) place(deg uint32, which int) vref {
	if deg == 0 {
		return vref{}
	}
	a.placed += uint64(deg)
	if deg > pageLen(a.m) {
		id := a.open(make([]uint32, deg))
		a.live[id] = deg
		return vref{uint32(id) << pageBits, deg}
	}
	t := &a.tails[which]
	if t.room < deg {
		var pg []uint32
		if n := len(a.free); n > 0 {
			pg, a.free = a.free[n-1], a.free[:n-1]
		} else {
			pg = make([]uint32, pageLen(a.m))
		}
		t.id, t.room = a.open(pg), uint32(len(pg))
	}
	r := vref{uint32(t.id)<<pageBits | (uint32(len(a.pages[t.id])) - t.room), deg}
	t.room -= deg
	a.live[t.id] += deg
	return r
}

// cutTail ends the batch tail at what has been placed in it, its page
// replaced by one of exactly that length: a load leaves its shard no room it
// did not fill. The next run placed opens a new page. A snapshot that read
// the old page keeps it in its own directory.
func (a *pageArena) cutTail() {
	t := &a.tails[tailBatch]
	if t.room == 0 {
		return
	}
	pg := a.pages[t.id]
	a.pages[t.id] = slices.Clone(pg[:len(pg)-int(t.room)])
	a.inUse -= uint64(t.room)
	t.room = 0
}

// open gives pg a directory slot. Slots are reused: a snapshot that still
// reads the slot's previous page holds that page in its own directory.
func (a *pageArena) open(pg []uint32) int {
	id := slices.IndexFunc(a.pages, func(p []uint32) bool { return p == nil })
	if id < 0 {
		if id = len(a.pages); id == maxPages {
			panic(fmt.Sprintf("core: published shard exceeds %d adjacency pages; give the graph more shards (NewPaged's shards, lsgraph.WithShards)", maxPages))
		}
		a.pages, a.live = append(a.pages, nil), append(a.live, 0)
	}
	a.pages[id] = pg
	a.inUse += uint64(len(pg))
	return id
}

// run is the storage r reserves. The full-slice expression pins capacity so
// a degree mismatch fails loudly instead of clobbering the next run.
func (a *pageArena) run(r vref) []uint32 {
	lo := r.off & pageMask
	return a.pages[r.off>>pageBits][lo : lo : lo+r.deg]
}

// read is the run r names, all of it: what the table's owner reads of a run
// already written and where it writes one just placed.
func (a *pageArena) read(r vref) []uint32 {
	if r.deg == 0 {
		return nil
	}
	return a.run(r)[:r.deg]
}

// drop uncounts a run the shard's table no longer names, and retires its
// page when that was the last one — unless the page is still being filled.
func (a *pageArena) drop(r vref) {
	if r.deg == 0 {
		return
	}
	id := int(r.off >> pageBits)
	if a.live[id] -= r.deg; a.live[id] == 0 && !a.filling(id) {
		a.retire(id)
	}
}

// retire takes slot id's page out of the arena: the snapshot the next
// Publish seals (a.seq) and every later one cannot reach it, earlier ones
// may.
func (a *pageArena) retire(id int) {
	pg := a.pages[id]
	a.retired = append(a.retired, retiredPage{a.seq, pg})
	a.pages[id], a.live[id] = nil, 0
	a.inUse -= uint64(len(pg))
	for i := range a.tails {
		if a.tails[i].id == id {
			a.tails[i].room = 0
		}
	}
}

// filling reports whether slot id's page is one being filled.
func (a *pageArena) filling(id int) bool {
	for _, t := range a.tails {
		if t.id == id && t.room > 0 {
			return true
		}
	}
	return false
}

// drain frees the retired pages no unrecycled snapshot can read anymore:
// those retired at or before the oldest one's publish. Whole pages go back
// on the free list up to arenaFreeMax; the rest are the GC's.
func (a *pageArena) drain() {
	i := 0
	for ; i < len(a.retired) && (len(a.out) == 0 || a.retired[i].seq <= a.out[0]); i++ {
		if pg := a.retired[i].page; len(pg) == pageSize && len(a.free) < arenaFreeMax {
			a.free = append(a.free, pg)
		}
	}
	a.retired = append(a.retired[:0], a.retired[i:]...)
	clear(a.retired[len(a.retired):cap(a.retired)])
}

// clean brings the pages in use down to bound once tab's runs were placed:
// while they exceed it, the emptiest pages become victims, and one ascending
// scan of tab copies their live runs to the kept tail — so survivors land in
// vertex order — before they retire. What it moves is what the victims still
// held, never the shard. A publish cleans to arenaBound.
func (a *pageArena) clean(tab []vref, bound uint64) {
	excess := int64(a.inUse) - int64(bound)
	if excess <= 0 {
		return
	}
	// Entries of tab name slots that exist now, so victim covers them.
	victim := make([]bool, len(a.pages))
	for excess > 0 {
		best := -1
		for id, pg := range a.pages {
			// A page being filled or with nothing to give back is no victim.
			if pg == nil || victim[id] || int(a.live[id]) == len(pg) || a.filling(id) {
				continue
			}
			if best < 0 || a.live[id] < a.live[best] {
				best = id
			}
		}
		if best < 0 {
			break
		}
		victim[best] = true
		excess -= int64(len(a.pages[best])) - int64(a.live[best])
	}
	for lv, r := range tab {
		if id := r.off >> pageBits; victim[id] && r.deg > 0 {
			src := a.pages[id][r.off&pageMask:][:r.deg]
			tab[lv] = a.place(r.deg, tailKept)
			copy(a.read(tab[lv]), src)
			a.cleaned += uint64(r.deg)
		}
	}
	for id, v := range victim {
		if v {
			a.retire(id)
		}
	}
}

// directory writes the arena's current pages to dst as a snapshot's own
// directory, the tail page cut to what has been written of it.
func (a *pageArena) directory(dst [][]uint32) [][]uint32 {
	dst = append(dst[:0], a.pages...)
	for _, t := range a.tails {
		if t.room > 0 {
			dst[t.id] = dst[t.id][:len(dst[t.id])-int(t.room)]
		}
	}
	if len(dst) == 0 {
		dst = append(dst, nil) // a degree-0 vertex reads slot 0
	}
	return dst
}

// Snapshot flattens the current graph into a fresh CSR view. The call
// itself must be serialized with updates — take it between batches, or let
// internal/serve's writer pipeline do that for you (its shard writers
// republish after every applied batch, which is how concurrent
// ingest+analytics is obtained). The returned view is immutable and may be
// read concurrently with anything, including further updates to g.
func (g *Graph) Snapshot() *Snapshot { return g.SnapshotInto(nil) }

// growTab returns a table of n entries, reusing tab's capacity; the
// contents are unspecified.
func growTab(tab []vref, n int) []vref {
	if cap(tab) >= n {
		return tab[:n]
	}
	return make([]vref, n)
}

// SnapshotInto flattens the current graph into s, reusing s's buffers when
// their capacity allows, and returns the populated snapshot (s itself, or
// a fresh Snapshot if s is nil). It is the allocation-free republish path
// for callers that repeatedly snapshot an evolving graph: hand back a
// snapshot no reader uses anymore and steady-state flattening allocates
// nothing (BenchmarkSnapshotInto measures the drop).
//
// Like Snapshot, the call must be serialized with updates. The previous
// contents of s are overwritten; callers must ensure no concurrent reader
// still holds s, and s must not be a snapshot PagedShard.Publish returned.
func (g *Graph) SnapshotInto(s *Snapshot) *Snapshot {
	return rebuildInto(s, g.shards, 0, int(g.NumVertices()), g.cfg.Workers)
}

// rebuildInto flattens the given shards' vertex blocks into s as a plain
// CSR: a table of n vertices whose runs lie in vertex order, back to back in
// one exact-size array (Graph.SnapshotInto, Shard.SnapshotInto). Table slot 0
// is global vertex origin; slots no shard has materialized (reserved
// vertices) get degree 0.
func rebuildInto(s *Snapshot, shards []shardState, origin uint32, n int, p int) *Snapshot {
	if s == nil {
		s = &Snapshot{}
	}
	s.tab = growTab(s.tab, n)
	clear(s.tab)
	var m uint64
	for i := range shards {
		sh := &shards[i]
		if len(sh.verts) == 0 {
			continue // its base may lie past the table
		}
		tab := s.tab[sh.base-origin:]
		for lv := range tab[:len(sh.verts)] {
			// A degree-0 slot stays vref{}: m may be the array's end, past
			// the directory.
			if deg := sh.verts[lv].degree(); deg > 0 {
				tab[lv] = vref{uint32(m), deg}
				m += uint64(deg)
			}
		}
	}
	if m > math.MaxUint32 {
		panic(fmt.Sprintf("core: snapshot of %d edges exceeds the 2^32-entry CSR; snapshot one shard at a time (Shard.SnapshotInto), and give the graph more shards (Config.Shards) if one is still too large", m))
	}
	if cap(s.adj) < int(m) {
		s.adj = make([]uint32, m)
	}
	s.adj, s.m, s.seq, s.pages = s.adj[:m], m, 0, s.pages[:0]
	for lo := 0; lo < max(len(s.adj), 1); lo += pageSize {
		s.pages = append(s.pages, s.adj[lo:])
	}
	for i := range shards {
		sh := &shards[i]
		if len(sh.verts) == 0 {
			continue
		}
		tab := s.tab[sh.base-origin:]
		parallel.For(len(sh.verts), p, func(lv int) {
			if r := tab[lv]; r.deg > 0 {
				lo := r.off & pageMask
				appendNeighborsVB(&sh.verts[lv], s.pages[r.off>>pageBits][lo:lo:lo+r.deg])
			}
		})
	}
	return s
}

// CSR returns the snapshot as raw CSR arrays (offs has NumVertices+1
// entries; adj holds NumEdges neighbor IDs in vertex order). offs is built
// per call. adj aliases snapshot storage when the snapshot is a plain CSR
// and is a compacted copy when PagedShard.Publish laid it out over pages;
// either way it is read-only and, for an epoch-pinned serving snapshot, only
// valid until its view is released. The durability layer serializes
// checkpoints from it.
func (s *Snapshot) CSR() (offs []uint64, adj []uint32) {
	offs = make([]uint64, len(s.tab)+1)
	for v, r := range s.tab {
		offs[v+1] = offs[v] + uint64(r.deg)
	}
	if s.seq == 0 {
		return offs, s.adj
	}
	adj = make([]uint32, s.m)
	for v := range s.tab {
		copy(adj[offs[v]:], s.Neighbors(uint32(v)))
	}
	return offs, adj
}

// NumVertices returns the snapshot's vertex count.
func (s *Snapshot) NumVertices() uint32 { return uint32(len(s.tab)) }

// NumEdges returns the snapshot's directed edge count.
func (s *Snapshot) NumEdges() uint64 { return s.m }

// Degree returns v's out-degree at snapshot time.
func (s *Snapshot) Degree(v uint32) uint32 { return s.tab[v].deg }

// VertexAtEdge returns the first vertex v whose predecessors [0, v) hold
// at least k edges between them (NumVertices when all of them hold fewer).
// The rebalancer uses it to find the vertex boundary that splits a shard's
// edge mass at a target; it is a linear walk of the table.
func (s *Snapshot) VertexAtEdge(k uint64) uint32 {
	var sum uint64
	for v, r := range s.tab {
		if sum >= k {
			return uint32(v)
		}
		sum += uint64(r.deg)
	}
	return uint32(len(s.tab))
}

// Neighbors returns v's sorted neighbors; the slice aliases snapshot
// storage and must not be mutated.
func (s *Snapshot) Neighbors(v uint32) []uint32 {
	r := s.tab[v]
	lo := r.off & pageMask
	return s.pages[r.off>>pageBits][lo : lo+r.deg]
}

// NeighborBlocks yields v's entire run as one block aliasing snapshot
// storage (engine.Graph) — the ideal case for the block read
// path: one yield per vertex, fully contiguous.
func (s *Snapshot) NeighborBlocks(v uint32, yield func(block []uint32) bool) {
	if ns := s.Neighbors(v); len(ns) > 0 {
		yield(ns[:len(ns):len(ns)])
	}
}

// NeighborRange yields each vertex of [lo, min(hi, NumVertices())) with its
// run as one block, empty for a degree-0 vertex (engine.Graph): a walk of
// the table, with no per-vertex lookup.
func (s *Snapshot) NeighborRange(lo, hi uint32, yield func(v uint32, block []uint32) bool) {
	s.NeighborRangeAt(0, lo, hi, yield)
}

// NeighborRangeAt is NeighborRange for a snapshot whose vertex 0 is the
// global vertex base: it walks the local vertices [lo, min(hi,
// NumVertices())), yields each as base+v, and reports whether it reached
// the end (false once yield has returned false). A View composes its
// shards' snapshots with it.
func (s *Snapshot) NeighborRangeAt(base, lo, hi uint32, yield func(v uint32, block []uint32) bool) bool {
	hi = min(hi, uint32(len(s.tab)))
	if lo >= hi {
		return true
	}
	for i, r := range s.tab[lo:hi] {
		var b []uint32
		if r.deg > 0 {
			off := r.off & pageMask
			b = s.pages[r.off>>pageBits][off : off+r.deg : off+r.deg]
		}
		if !yield(base+lo+uint32(i), b) {
			return false
		}
	}
	return true
}
