package core

import (
	"fmt"
	"sync/atomic"

	"lsgraph/internal/obs"
	"lsgraph/internal/parallel"
)

// LoadCSR bulk-loads the adjacency of vertices [base, base+len(offs)-1)
// of a paged graph (NewPaged) from a CSR: adj[offs[i]:offs[i+1]] is the
// complete, strictly ascending neighbor set of vertex base+i. It is the
// inverse of Snapshot.CSR and the one-pass counterpart of the batch
// pipeline's merge: a run is already grouped by vertex and sorted, so each
// goes to a page as it is, with no pack, partition, sort or merge — placed in
// vertex order by the arena's one owner, then copied by workers claiming
// chunks of vertices.
//
// Vertices are routed by the graph's own partition map, so a CSR written
// under another shard count or layout — one whose range straddles this
// graph's shard boundaries — loads unchanged. The load refuses, with an
// error and the graph untouched, a live graph (New: it is built by batches),
// offsets that are not a monotone cover of adj, a range that ends above
// NumVertices, a run that is not strictly ascending or names an ID at or
// above NumVertices, and a non-empty run for a vertex that already has
// edges. Like every update it must not run concurrently with reads or other
// updates.
func (g *Graph) LoadCSR(base uint32, offs []uint64, adj []uint32) error {
	if !g.Paged() {
		return fmt.Errorf("core: LoadCSR on a live graph; load into one built by NewPaged")
	}
	if len(offs) == 0 || offs[0] != 0 || offs[len(offs)-1] != uint64(len(adj)) {
		return fmt.Errorf("core: LoadCSR: offsets do not cover the %d adjacency entries", len(adj))
	}
	nv, n := len(offs)-1, g.n.Load()
	if nv == 0 {
		return nil
	}
	if uint64(base)+uint64(nv) > uint64(n) {
		return fmt.Errorf("core: LoadCSR: vertices [%d,%d) outside vertex space [0,%d)", base, uint64(base)+uint64(nv), n)
	}
	p := g.workers()
	var bad atomic.Pointer[error] // the first refusal any worker found
	parallel.ForChunk(nv, p, func(lo, hi int) {
		for i := lo; i < hi && bad.Load() == nil; i++ {
			if err := g.checkRun(base+uint32(i), offs[i], offs[i+1], adj, n); err != nil {
				bad.CompareAndSwap(nil, &err)
			}
		}
	})
	if err := bad.Load(); err != nil {
		return *err
	}

	g.EnsureVertices(n) // reserved-only slots of the range get storage
	defer g.runDebugValidate()
	pm := g.pmap.Load()
	for i := range g.shards {
		// Shard i's share of the CSR's vertices, as indexes into offs.
		sh, first, end := &g.shards[i], max(pm.Starts[i], base), uint64(base)+uint64(nv)
		if i+1 < len(pm.Starts) {
			end = min(end, uint64(pm.Starts[i+1]))
		}
		if uint64(first) >= end {
			continue
		}
		lo, hi := int(first-base), int(end-uint64(base))
		if offs[lo] == offs[hi] {
			continue
		}
		// An empty run leaves its vertex as it was.
		tab, a := sh.table()[base+uint32(lo)-sh.base:], &sh.pub
		a.m = sh.m.Load() + offs[hi] - offs[lo]
		for j := range tab[:hi-lo] {
			if deg := offs[lo+j+1] - offs[lo+j]; deg > 0 {
				tab[j] = a.place(uint32(deg), tailBatch)
			}
		}
		parallel.For(hi-lo, p, func(j int) {
			copy(a.read(tab[j]), adj[offs[lo+j]:offs[lo+j+1]])
		})
		sh.m.Add(offs[hi] - offs[lo])
	}
	if obs.Enabled() {
		obsEdgesAdded.Add(uint64(len(adj)))
	}
	return nil
}

// checkRun validates vertex v's run adj[lo:hi] for LoadCSR against the
// vertex bound n.
func (g *Graph) checkRun(v uint32, lo, hi uint64, adj []uint32, n uint32) error {
	if lo > hi || hi > uint64(len(adj)) {
		return fmt.Errorf("core: LoadCSR: offsets of vertex %d not monotone", v)
	}
	ns := adj[lo:hi]
	if len(ns) == 0 {
		return nil
	}
	if deg := g.Degree(v); deg != 0 {
		return fmt.Errorf("core: LoadCSR: vertex %d already has %d edges", v, deg)
	}
	for i, u := range ns {
		if i > 0 && u <= ns[i-1] {
			return fmt.Errorf("core: LoadCSR: neighbors of vertex %d not strictly ascending (%d after %d)", v, u, ns[i-1])
		}
	}
	if last := ns[len(ns)-1]; last >= n {
		return fmt.Errorf("core: LoadCSR: edge (%d,%d) outside vertex space [0,%d)", v, last, n)
	}
	return nil
}
