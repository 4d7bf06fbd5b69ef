package serve

import (
	"sync"
	"sync/atomic"

	"lsgraph/internal/core"
	"lsgraph/internal/obs"
)

// acquire pins the current epoch: increment its refcount, then recheck
// that it is still current. The recheck is what makes the writer's
// refs==0 observation a proof that no reader holds or will obtain the
// epoch (sequentially consistent atomics; see the package comment).
func (s *Store) acquire() *epoch {
	for {
		e := s.cur.Load()
		e.refs.Add(1)
		if s.cur.Load() == e {
			return e
		}
		e.refs.Add(-1)
	}
}

// View is an epoch-pinned, immutable view of the Store: one installed
// epoch — every shard's snapshot at one point of the batch sequence — plus
// the vertex bound read at acquire time. Every read method (NumVertices,
// NumEdges, Degree, Neighbors, NeighborBlocks) and every analytics kernel
// written against engine.Graph works on it directly, concurrently with
// ongoing ingestion. Call Release exactly once when done: an unreleased
// View pins its snapshots' tables and arena pages for the life of the
// Store, and a released one goes back to a pool that hands it to the next
// View call, of any Store on any goroutine.
type View struct {
	e   *epoch
	nv  uint32
	pin obs.Span // the viewpin layer's span, acquire to Release
	// gen counts the releases made through ReleaseGen; it survives
	// recycling so that a stale handle's second release can be told apart.
	gen atomic.Uint64
}

// viewPool recycles Views across every Store, so pinning allocates nothing
// once warm. A recycled View keeps only its gen. It is one package-level
// pool on purpose: a sync.Pool inside each Store is registered in the
// runtime's list of pools, which keeps a closed Store and its whole graph
// alive through the next collection.
var viewPool = sync.Pool{New: func() any { return new(View) }}

// View pins the Store's current epoch and returns it as a view. Always
// non-blocking with respect to the writer: a View is available even
// mid-batch. Safe to call from any goroutine, including after Close.
func (s *Store) View() *View {
	v := viewPool.Get().(*View)
	v.e = s.acquire()
	// Read the vertex bound after pinning: it is then at least as large as
	// the bound reserved before any pinned snapshot's batch was published,
	// so every neighbor ID in the view is < nv (see the package comment).
	v.nv = s.g.NumVertices()
	v.pin = obs.PhaseViewPin.Begin()
	return v
}

// Epoch returns the number of enqueued batches the view holds: 0 for the
// Store's initial state, one more per batch however many shards it
// touched. Monotone across successively acquired views.
func (v *View) Epoch() uint64 { return v.e.batches }

// NumVertices returns the view's vertex count: the logical vertex-space
// bound at acquire time, which covers every ID any pinned adjacency
// references.
func (v *View) NumVertices() uint32 { return v.nv }

// NumEdges returns the view's directed edge count, summed over the pinned
// shard snapshots.
func (v *View) NumEdges() uint64 { return v.e.m }

// snapOf routes v to its pinned shard snapshot and local index. ok is
// false when the ID is beyond the snapshot's materialized range (a vertex
// reserved or grown after the shard's pinned publish): such a vertex has
// degree 0 in this view.
func (v *View) snapOf(u uint32) (*core.Snapshot, uint32, bool) {
	// Route by the pinned epoch's own range starts, never the store's live
	// map: a concurrent boundary move must not change what this view reads.
	// The ranges tile, so the owner is the last one starting at or below u. The search branches on purpose: kernels read vertices in
	// ascending order, where the branch is predicted and the loads behind
	// it need not wait for the compare, as core's branch-free one makes
	// them (EXPERIMENTS.md, "Routing a batch").
	es := v.e.shards
	i, end := 0, len(es)
	for end-i > 1 {
		mid := int(uint(i+end) >> 1)
		if es[mid].lo <= u {
			i = mid
		} else {
			end = mid
		}
	}
	snap := es[i].snap
	lu := u - es[i].lo
	return snap, lu, lu < snap.NumVertices()
}

// Degree returns u's out-degree at the view's epoch.
func (v *View) Degree(u uint32) uint32 {
	snap, lu, ok := v.snapOf(u)
	if !ok {
		return 0
	}
	return snap.Degree(lu)
}

// Neighbors returns u's sorted neighbors; the slice aliases pinned
// snapshot storage and must not be mutated or used after Release.
func (v *View) Neighbors(u uint32) []uint32 {
	snap, lu, ok := v.snapOf(u)
	if !ok {
		return nil
	}
	return snap.Neighbors(lu)
}

// NeighborBlocks yields u's entire pinned CSR segment as one block
// (engine.Graph). The block aliases pinned snapshot storage: it
// must not be mutated, and must not be used after Release.
func (v *View) NeighborBlocks(u uint32, yield func(block []uint32) bool) {
	if ns := v.Neighbors(u); len(ns) > 0 {
		yield(ns[:len(ns):len(ns)])
	}
}

// NeighborRange yields each vertex of [lo, min(hi, NumVertices())) with
// its pinned run as one block, empty for a vertex without edges
// (engine.Graph). It routes once per pinned shard, not once per vertex:
// each shard's part of the range is a walk of its snapshot's table, and
// the vertices past that table (reserved or grown after the shard's
// pinned publish) have no edges in this view.
func (v *View) NeighborRange(lo, hi uint32, yield func(u uint32, block []uint32) bool) {
	hi = min(hi, v.nv)
	for _, e := range v.e.shards {
		if lo >= hi {
			return
		}
		if uint64(lo) >= e.hi {
			continue
		}
		end := uint32(min(uint64(hi), e.hi))
		if !e.snap.NeighborRangeAt(e.lo, lo-e.lo, end-e.lo, yield) {
			return
		}
		for u := max(lo, e.lo+e.snap.NumVertices()); u < end; u++ {
			if !yield(u, nil) {
				return
			}
		}
		lo = end
	}
}

// Release unpins the view and returns it to the pool. The view must not
// be used afterwards — not read, since its tables may be recycled into a
// future snapshot, and not released again, since it may already be another
// caller's view. Release is not safe to call concurrently with the view's
// own readers; callers sharing a View across goroutines must release after
// those goroutines finish.
func (v *View) Release() {
	// How long the view held its epoch pinned: long pins are what delay
	// reclamation, so the age distribution explains epoch lag.
	v.pin.End(-1, 0, v.e.batches, v.e.m)
	v.e.refs.Add(-1)
	// Drop every reference before pooling: a pooled view must not keep an
	// epoch, and with it a Store's snapshots, reachable.
	v.e, v.pin = nil, obs.Span{}
	viewPool.Put(v)
}

// Gen returns the view's generation, for a handle that must release it at
// most once: pass it to ReleaseGen.
func (v *View) Gen() uint64 { return v.gen.Load() }

// ReleaseGen releases the view if its generation is still gen, advancing
// the generation, and does nothing otherwise. A handle that records Gen when
// it gets the view may pass it here any number of times: only the first
// call releases, even after the pool has handed the view to another caller.
func (v *View) ReleaseGen(gen uint64) {
	if v.gen.CompareAndSwap(gen, gen+1) {
		v.Release()
	}
}

// Epoch returns the number of enqueued batches the Store's current epoch
// holds: the batches applied and published since construction.
func (s *Store) Epoch() uint64 { return s.cur.Load().batches }

// NumVertices returns the current logical vertex-space bound (including
// vertices reserved by still-queued batches).
func (s *Store) NumVertices() uint32 { return s.g.NumVertices() }

// NumEdges returns the directed edge count of the current epoch.
func (s *Store) NumEdges() uint64 { return s.cur.Load().m }

// Degree returns v's out-degree in the current epoch, read through a View
// pinned for the call.
func (s *Store) Degree(v uint32) uint32 {
	vw := s.View()
	d := vw.Degree(v)
	vw.Release()
	return d
}

// NeighborBlocks yields v's adjacency as one block out of the epoch current
// at call time (engine.Graph). The epoch stays pinned for the duration of
// the call — so yield always sees one coherent adjacency even while batches
// apply concurrently — and no longer: the block must not be retained past
// yield.
func (s *Store) NeighborBlocks(v uint32, yield func(block []uint32) bool) {
	vw := s.View()
	vw.NeighborBlocks(v, yield)
	vw.Release()
}

// NeighborRange yields each vertex of [lo, min(hi, NumVertices())) with
// its adjacency out of one View pinned for the call (engine.Graph); blocks
// must not be retained past yield.
func (s *Store) NeighborRange(lo, hi uint32, yield func(v uint32, block []uint32) bool) {
	vw := s.View()
	vw.NeighborRange(lo, hi, yield)
	vw.Release()
}
