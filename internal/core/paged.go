package core

import (
	"fmt"
	"slices"
	"unsafe"
)

// Paged is the graph a Store serves (internal/serve). Its vertex space is
// partitioned into shards, and each shard's batches go through the
// pipeline a Graph's do, but each shard's adjacency is a table of (page‖offset,
// degree) entries over an arena of fixed-size pages: the runs its published
// snapshots share. A batch and a load (LoadCSR) both merge each vertex's
// changes with its old run — the shard's own, or the caller's CSR run — into
// a new run at the arena's tail (merge.go), so a Paged never holds a vertex
// block, array, RIA or HITree.
// It is read through the snapshots its shards publish (PagedShard.Publish)
// and has no read methods of its own.
type Paged struct {
	space
	shards []pagedShard
}

// pagedShard is one shard of a Paged: its pipeline and its runs.
type pagedShard struct {
	pipe

	// tab is the shard's table. While shared, the latest published snapshot
	// reads it too, and the first change since copies it (table). pub is the
	// arena its runs, and the published snapshots', lie in. spare and
	// spareDir are a recycled snapshot's table and directory, kept for the
	// next table copy and publish to overwrite instead of allocating;
	// tabEntries sums the capacities of tab, spare and every unrecycled
	// snapshot's table. copied counts the entries table, ensure and Recut copy.
	tab        []vref
	pub        pageArena
	shared     bool
	spare      []vref
	spareDir   [][]uint32
	tabEntries int
	copied     uint64
}

// NewPaged returns an empty paged graph with n vertex slots in shards
// contiguous ranges (at least one), whose batches and loads run on up to
// workers goroutines (0: GOMAXPROCS), split evenly across the shards.
func NewPaged(n uint32, shards, workers int) *Paged {
	g := &Paged{}
	starts := g.init(n, shards, workers)
	g.shards = make([]pagedShard, len(starts))
	for i := range g.shards {
		sh := &g.shards[i]
		sh.own(starts, i)
		sh.tab = make([]vref, sh.span(n))
		sh.tabEntries, sh.pub.seq = len(sh.tab), 1
	}
	return g
}

// NumShards returns the number of vertex-range partitions.
func (g *Paged) NumShards() int { return len(g.shards) }

// ScratchBytes returns the bytes the shards' update pipelines retain
// between batches: all a Paged holds beyond what its shards publish
// (PagedShard.Published). Like updates, it must not run concurrently with
// them.
func (g *Paged) ScratchBytes() (b uint64) {
	for i := range g.shards {
		b += g.shards[i].scratchBytes()
	}
	return b
}

// Recut gives the shards the ranges that begin at starts: one start per
// shard, starts[0] == 0, strictly ascending, the last range open-ended. It
// refuses any other vector, and one that changes nothing (ErrNoMove). Each
// shard whose range changed gets a fresh table over it, and each
// materialized run whose owner changed is copied once, from its old shard's
// arena to the kept tail of its new shard's, and dropped from the old. It
// returns the number of materialized vertices and directed edges that
// changed owner. It publishes nothing: each changed shard's next Publish
// seals its new table. The caller must hold every shard quiescent —
// internal/serve runs it on its writer, between two batches.
func (g *Paged) Recut(starts []uint32) (movedVerts uint32, movedEdges uint64, err error) {
	was := g.starts()
	if len(starts) != len(was) || starts[0] != 0 {
		return 0, 0, fmt.Errorf("core: a re-cut takes %d range starts from 0, not %v", len(was), starts)
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			return 0, 0, fmt.Errorf("core: start %d of shard %d would empty shard %d", starts[i], i, i-1)
		}
	}
	if slices.Equal(starts, was) {
		return 0, 0, ErrNoMove
	}
	tabs := make([][]vref, len(g.shards)) // the tables before the re-cut
	for i := range g.shards {
		tabs[i] = g.shards[i].tab
	}
	for j := range g.shards {
		sh := &g.shards[j]
		base, end := sh.base, sh.end
		if sh.own(starts, j); sh.base == base && sh.end == end {
			continue
		}
		// The old tables' entries in the new range, each old table a prefix
		// of its range, and zeros for the slots between them none held.
		lo := uint64(sh.base)
		var tab []vref
		for i, old := range tabs {
			b := uint64(was[i])
			if from, to := max(lo, b), min(sh.end, b+uint64(len(old))); from < to {
				tab = append(append(tab, make([]vref, from-lo-uint64(len(tab)))...), old[from-b:to-b]...)
			}
		}
		var m uint64
		for _, r := range tab {
			m += uint64(r.deg)
		}
		// Sized before the runs are placed, as for a batch (mergeRuns). The
		// pages the moved runs leave retire as any emptied page does; what
		// the shard now holds beyond its bound the next publish cleans.
		sh.pub.m = m
		for lv, r := range tab {
			v := sh.base + uint32(lv)
			i := shardOf(was, v)
			if i == j || int(v-was[i]) >= len(tabs[i]) {
				continue // the shard's own run, or a slot none held
			}
			tab[lv] = sh.pub.place(r.deg, tailKept)
			copy(sh.pub.read(tab[lv]), g.shards[i].pub.read(r))
			g.shards[i].pub.drop(r)
			movedVerts++
			movedEdges += uint64(r.deg)
		}
		// The table the latest snapshot shares stays its own, and counted.
		if !sh.shared {
			sh.tabEntries -= cap(sh.tab)
		}
		sh.tab, sh.shared = tab, false
		sh.tabEntries += cap(tab)
		sh.copied += uint64(len(tab))
		sh.m.Store(m)
	}
	return movedVerts, movedEdges, nil
}

// Scatter routes a mixed batch to the shards by source vertex, by the
// ranges they own as it runs (the package's Scatter over their starts), on
// up to workers goroutines: parts[i] is shard i's part. Like updates, it
// must not run concurrently with a Recut.
func (g *Paged) Scatter(src, dst []uint32, workers int) []SubBatch {
	parts, _ := Scatter(g.starts(), src, dst, workers)
	return parts
}

// starts returns the first vertex ID of every shard's range.
func (g *Paged) starts() []uint32 {
	s := make([]uint32, len(g.shards))
	for i := range g.shards {
		s[i] = g.shards[i].base
	}
	return s
}

// table returns the shard's table for writing: its own copy, made now if
// the latest snapshot still shares it.
func (sh *pagedShard) table() []vref {
	if sh.shared {
		tab := growTab(sh.spare, len(sh.tab))
		sh.tabEntries += cap(tab) - cap(sh.spare)
		sh.copied += uint64(copy(tab, sh.tab))
		sh.tab, sh.spare, sh.shared = tab, nil, false
	}
	return sh.tab
}

// ensure grows the shard's table to at least n entries. Capacity grows
// geometrically, so a stream that raises the vertex bound a little with
// every batch copies the shard's 8-byte entries O(log n) times, not once
// per batch. A table's spare capacity may hold a recycled snapshot's
// entries and is cleared.
func (sh *pagedShard) ensure(n int) {
	if n <= len(sh.tab) {
		return
	}
	tab := sh.table()
	if c := cap(tab); n > c {
		sh.tab = make([]vref, n, max(n, c+c/2))
		sh.tabEntries += cap(sh.tab) - c
		sh.copied += uint64(copy(sh.tab, tab))
		return
	}
	sh.tab = tab[:n]
	clear(sh.tab[len(tab):])
}

// PagedShard is a handle on one shard of a Paged: the update and publish
// surface a Store's writer drives. Its methods must be serialized per
// shard — one goroutine at a time per shard — but different shards' may
// run concurrently, as the writer's side-by-side apply runs them.
type PagedShard struct {
	*pagedShard
	g *Paged
}

// Shard returns the handle for shard i (0 <= i < NumShards).
func (g *Paged) Shard(i int) PagedShard { return PagedShard{&g.shards[i], g} }

// NumVertices returns the shard's materialized slots: it holds global IDs
// [Base, Base+NumVertices) plus, for the last shard, any not-yet-materialized
// tail of the logical vertex space.
func (s PagedShard) NumVertices() uint32 { return uint32(len(s.tab)) }

// EnsureVertices raises the graph's logical vertex bound to at least n
// (atomic max, safe against other shards doing the same) and materializes
// this shard's slice of the new range. The serving layer calls it before
// every apply so batches may reference vertices beyond the initial space.
func (s PagedShard) EnsureVertices(n uint32) { s.ensure(s.g.grow(n, &s.pipe)) }

// InsertBatch adds the directed edges (src[i] -> dst[i]), all of whose
// sources must be the shard's. Duplicate and already-present edges are
// ignored.
func (s PagedShard) InsertBatch(src, dst []uint32) {
	validateBatch("InsertBatch", src, dst)
	s.batch(src, dst, false)
}

// DeleteBatch removes the directed edges (src[i] -> dst[i]), all of whose
// sources must be the shard's. Absent edges are ignored.
func (s PagedShard) DeleteBatch(src, dst []uint32) {
	validateBatch("DeleteBatch", src, dst)
	s.batch(src, dst, true)
}

// batch runs the insert or, with del, the delete pipeline: each group finds
// the keys that change its vertex's run — absent ones of an insert, present
// ones of a delete — and records its merge job, and mergeRuns then writes
// every changed vertex's new run.
func (s PagedShard) batch(src, dst []uint32, del bool) {
	if len(src) == 0 {
		return
	}
	sh, ps := s.pagedShard, &s.prep
	ps.jobs = grown(trimmed(ps.jobs, scratchLimit(len(src))), len(src))
	op := batchOps[:1] // one op for all of the batch's keys (findKeys)
	if del {
		op = batchOps[1:]
	}
	changed := sh.applyBatch(s.g.n.Load(), src, dst, s.g.shardWorkers(len(s.g.shards)),
		func(_ int, r *keyRange, at int, lv uint32, ks []uint64) uint64 {
			eff, deg := findKeys(ks, sh.run(lv), ks, op)
			if eff > 0 {
				ps.jobs[r.lo+r.nj] = mergeJob{lv: lv, at: uint32(at), eff: uint32(eff), to: vref{deg: uint32(deg)}}
				r.nj++
			}
			return uint64(eff)
		},
		func(p, limit int) { sh.mergeRuns(ps, p, limit, sh.run) })
	sh.applied(del, len(src), changed)
}

// batchOps holds the op of an insert batch's keys, then a delete batch's.
var batchOps = []bool{false, true}

// run is slot lv's run in the shard's arena.
func (sh *pagedShard) run(lv uint32) []uint32 { return sh.pub.read(sh.tab[lv]) }

// Publish returns the shard's current state as a new immutable snapshot. It
// finds the batches since the last Publish already applied — their
// vertices' new runs written at the arena's tail (merge.go), the table
// patched, the runs they superseded uncounted — and seals the table: the
// next change copies it. When pages in use exceed the live entries by more
// than half, it also copies the live runs of the emptiest pages forward and
// retires those pages (pageArena has the lifetime rules). Sealing costs
// what the batches changed; a cleaning pass also walks the whole table in
// ascending order to find the victims' runs, so its cost follows the shard.
// Every earlier snapshot stays valid and unchanged: nothing it can reach is
// written.
func (s PagedShard) Publish() *Snapshot {
	sh, a := s.pagedShard, &s.pub
	snap := &Snapshot{tab: sh.table(), pages: sh.spareDir, m: sh.m.Load(), seq: a.seq}
	sh.spareDir, sh.shared = nil, true
	a.m = snap.m
	a.out = append(a.out, a.seq)
	a.clean(snap.tab, arenaBound(snap.m))
	snap.pages = a.directory(snap.pages)
	a.seq++
	return snap
}

// Recycle hands a snapshot Publish returned, and that no reader holds
// anymore, back to the shard, in any order relative to other snapshots: its
// table and directory become the next table copy's and Publish's, and the
// pages retired before every snapshot still out was published become
// reusable. snap must not be the shard's latest snapshot and must not be used
// afterwards.
func (s PagedShard) Recycle(snap *Snapshot) {
	sh, a := s.pagedShard, &s.pub
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
	Placed  uint64 // entries of all runs written, ever: batches', loads', re-cuts' and the cleaner's
	// TableCopied counts table entries copied, ever: the whole table on the
	// first change after a publish (table), again when it outgrows its
	// capacity (ensure), and a re-cut's fresh table (Recut).
	TableCopied uint64
}

// Total is the bytes resident on the published side.
func (p PublishedStats) Total() uint64 { return p.Tables + p.InUse + p.Free + p.Retired }

// Published reports the shard's published-side footprint.
func (s PagedShard) Published() PublishedStats {
	a := &s.pub
	p := PublishedStats{
		Tables:      uint64(s.tabEntries) * uint64(unsafe.Sizeof(vref{})),
		InUse:       4 * a.inUse,
		Free:        4 * pageSize * uint64(len(a.free)),
		Bound:       4 * (arenaBound(a.m) + uint64(len(a.tails)+arenaFreeMax)*pageSize),
		Cleaned:     a.cleaned,
		Placed:      a.placed,
		TableCopied: s.copied,
	}
	for _, r := range a.retired {
		p.Retired += 4 * uint64(len(r.page))
	}
	return p
}
