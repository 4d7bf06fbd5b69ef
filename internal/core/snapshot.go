package core

import (
	"fmt"
	"math"

	"lsgraph/internal/parallel"
)

// vref locates one vertex's adjacency run inside a snapshot's arena.
type vref struct{ off, deg uint32 }

// Snapshot is an immutable view of the graph (or of one shard) at the
// moment it was taken: a per-vertex table of (offset, degree) over an
// adjacency arena. It implements the read side of engine.Graph, so
// analytics can run on a frozen snapshot while the live graph keeps
// ingesting updates — the capability Aspen gets from functional trees.
//
// A freshly rebuilt snapshot is a plain CSR: runs in vertex order, back to
// back. Shard.Publish derives the next snapshot from it at a cost that
// follows the batch, not the graph: it appends the new adjacency of only
// the batch's vertices to the arena's unwritten tail and patches a copy of
// the table. Successive snapshots of one shard therefore share an arena;
// each reads only adj[:len(adj)], its own prefix, so the tail a later
// publish writes is memory no earlier snapshot can reach.
type Snapshot struct {
	tab []vref
	// adj is the arena prefix this snapshot may read. cap(adj)-len(adj) is
	// the arena's unwritten tail, owned by whoever publishes next.
	adj []uint32
	m   uint64 // live entries: the sum of tab's degrees
	ar  *arena // of snapshots Shard.Publish returned; nil otherwise
}

// arena counts the snapshots Shard.Publish has derived over one adjacency
// arena and Shard.Recycle has not yet taken back. Both run on the shard's
// owner, so the count is a plain int. At zero nothing can read the arena
// anymore and it becomes the shard's next rebuild target.
type arena struct{ live int }

// Arena sizing for Shard.Publish's rebuilds: a fresh arena holds the live
// edges plus half as much again (at least arenaMinSlack entries) of tail
// for later batches to append into. The tail bounds both the memory a
// shard's published state costs (1.5x its edges) and how stale its layout
// gets: once appended runs have used it up, the next publish compacts.
const (
	arenaSlackDiv = 2
	arenaMinSlack = 256
)

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
// still holds s or any snapshot Shard.Publish derived from it.
func (g *Graph) SnapshotInto(s *Snapshot) *Snapshot {
	return rebuildInto(s, g.shards, 0, int(g.NumVertices()), 0, g.cfg.Workers)
}

// rebuildInto flattens the given shards into s as a plain CSR of n
// vertices with extra entries of arena tail: the one full rebuild behind
// Graph.SnapshotInto, Shard.SnapshotInto and the compacting half of
// Shard.Publish. Table slot 0 is global vertex origin; slots no shard has
// materialized (reserved vertices) get degree 0.
func rebuildInto(s *Snapshot, shards []shardState, origin uint32, n, extra, p int) *Snapshot {
	if s == nil {
		s = &Snapshot{}
	}
	s.tab = growTab(s.tab, n)
	clear(s.tab)
	var m uint64
	for i := range shards {
		sh := &shards[i]
		if len(sh.verts) == 0 {
			continue
		}
		tab := s.tab[sh.base-origin:]
		for lv := range sh.verts {
			deg := sh.verts[lv].degree()
			tab[lv] = vref{uint32(m), deg}
			m += uint64(deg)
		}
	}
	if m+uint64(extra) > math.MaxUint32 {
		extra = 0
		if m > math.MaxUint32 {
			panic(fmt.Sprintf("core: snapshot of %d edges exceeds the 2^32-entry arena; raise Config.Shards", m))
		}
	}
	if want := int(m) + extra; cap(s.adj) < want {
		s.adj = make([]uint32, want)
	}
	s.adj, s.m = s.adj[:m], m
	for i := range shards {
		sh := &shards[i]
		if len(sh.verts) == 0 {
			continue
		}
		tab := s.tab[sh.base-origin:]
		parallel.For(len(sh.verts), p, func(lv int) {
			if r := tab[lv]; r.deg > 0 {
				s.flatten(&sh.verts[lv], r)
			}
		})
	}
	return s
}

// flatten writes vb's neighbors into the run r reserves for them. The
// full-slice expression pins capacity so a degree mismatch fails loudly
// instead of clobbering the next run.
func (s *Snapshot) flatten(vb *vertex, r vref) {
	lo, hi := int(r.off), int(r.off)+int(r.deg)
	appendNeighborsVB(vb, s.adj[lo:lo:hi])
}

// snapshotShardInto flattens one shard into a local snapshot — table
// indexed by slot within the shard, adjacency holding global vertex IDs —
// with extra entries of arena tail and the same buffer-reuse contract as
// SnapshotInto.
func (g *Graph) snapshotShardInto(sh *shardState, s *Snapshot, extra, p int) *Snapshot {
	return rebuildInto(s, g.shards[sh.idx:sh.idx+1], sh.base, len(sh.verts), extra, p)
}

// publishShard returns the shard's current state as a snapshot derived
// from prev, the shard's previous one (see Shard.Publish).
func (g *Graph) publishShard(sh *shardState, prev *Snapshot, p int) (s *Snapshot, rebuilt bool) {
	groups, unpub := sh.prep.groups, sh.unpub
	s = &Snapshot{tab: sh.spare}
	sh.spare, sh.unpub = nil, 0
	if unpub != 1 {
		groups = nil // nothing changed, or not only what groups names
	}
	// The batch's vertices get new runs in the tail, in group (= ascending
	// vertex) order. Size them before writing anything: when they do not
	// fit — or what changed since prev is not one batch's groups — the
	// publish compacts into another arena instead, and older snapshots keep
	// reading the old one untouched.
	n, used := len(sh.verts), 0
	if prev != nil {
		used = len(prev.adj)
	}
	for _, v := range groups {
		used += int(sh.verts[v-sh.base].degree())
	}
	if prev == nil || unpub > 1 || used > cap(prev.adj) {
		m := int(sh.m.Load())
		slack := max(m/arenaSlackDiv, arenaMinSlack)
		s.adj, sh.spareAdj = sh.spareAdj, nil
		if cap(s.adj) >= m+slack/2 {
			// The drained arena of a somewhat smaller graph: half a tail
			// for free beats a full one allocated and first-touched.
			slack /= 2
		}
		s.ar = &arena{live: 1}
		return g.snapshotShardInto(sh, s, slack, p), true
	}
	s.ar = prev.ar
	s.ar.live++
	s.tab = growTab(s.tab, n)
	clear(s.tab[copy(s.tab, prev.tab):]) // vertices grown since prev: degree 0
	s.adj, s.m = prev.adj[:used], prev.m
	off := uint32(len(prev.adj))
	for _, v := range groups {
		lv := v - sh.base
		deg := sh.verts[lv].degree()
		s.m += uint64(deg) - uint64(s.tab[lv].deg)
		s.tab[lv] = vref{off, deg}
		off += deg
	}
	parallel.For(len(groups), p, func(i int) {
		lv := groups[i] - sh.base
		if r := s.tab[lv]; r.deg > 0 {
			s.flatten(&sh.verts[lv], r)
		}
	})
	return s, false
}

// CSR returns the snapshot as raw CSR arrays (offs has NumVertices+1
// entries; adj holds NumEdges neighbor IDs in vertex order). offs is built
// per call. adj aliases snapshot storage when the snapshot is compact — a
// fresh rebuild — and is a compacted copy when Shard.Publish has appended
// runs out of vertex order; either way it is read-only and, for an
// epoch-pinned serving snapshot, only valid until its view is released.
// The durability layer serializes checkpoints from it.
func (s *Snapshot) CSR() (offs []uint64, adj []uint32) {
	offs = make([]uint64, len(s.tab)+1)
	compact := uint64(len(s.adj)) == s.m
	for v, r := range s.tab {
		if r.deg > 0 && uint64(r.off) != offs[v] {
			compact = false
		}
		offs[v+1] = offs[v] + uint64(r.deg)
	}
	if compact {
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
	lo := int(r.off)
	return s.adj[lo : lo+int(r.deg)]
}

// NeighborBlocks yields v's entire run as one block aliasing snapshot
// storage (engine.Graph) — the ideal case for the block read
// path: one yield per vertex, fully contiguous.
func (s *Snapshot) NeighborBlocks(v uint32, yield func(block []uint32) bool) {
	if ns := s.Neighbors(v); len(ns) > 0 {
		yield(ns[:len(ns):len(ns)])
	}
}
