package serve

import (
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
// ongoing ingestion. Pin one into a View the caller owns with Store.Pin, or
// get a new one from Store.View; call Release when done: an unreleased View
// pins its snapshots' tables and arena pages for the life of the Store.
type View struct {
	e        *epoch
	nv       uint32
	released atomic.Bool // set by the Release that unpins
	pin      obs.Span    // the viewpin layer's span, acquire to Release
}

// Pin pins the Store's current epoch into v, a View that was never pinned
// (the zero View). Always non-blocking with respect to the writer: a view
// is available even mid-batch. Safe to call from any goroutine, including
// after Close. Pinning allocates nothing, so a read that pins v on its own
// stack costs no allocation.
func (s *Store) Pin(v *View) {
	v.e = s.acquire()
	// Read the vertex bound after pinning: it is then at least as large as
	// the bound reserved before any pinned snapshot's batch was published,
	// so every neighbor ID in the view is < nv (see the package comment).
	v.nv = s.g.NumVertices()
	v.pin = obs.PhaseViewPin.Begin()
}

// View returns a new View pinned by Pin, for a caller whose view outlives
// its frame.
func (s *Store) View() *View {
	v := new(View)
	s.Pin(v)
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
	// map: a concurrent re-cut must not change what this view reads.
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

// Release unpins the view. Only the first call unpins, so releasing a
// View twice, even from two goroutines at once, unpins it once. The view
// must not be read afterwards, since its tables may be recycled into a
// future snapshot; Epoch, which reads the immutable epoch record, stays
// valid. Release is not safe to call concurrently with the view's own
// readers; callers sharing a View across goroutines must release after
// those goroutines finish.
func (v *View) Release() {
	if !v.released.CompareAndSwap(false, true) {
		return
	}
	// How long the view held its epoch pinned: long pins are what delay
	// reclamation, so the age distribution explains epoch lag.
	v.pin.End(-1, 0, v.e.batches, v.e.m)
	v.e.refs.Add(-1)
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
	var vw View
	s.Pin(&vw)
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
	var vw View
	s.Pin(&vw)
	vw.NeighborBlocks(v, yield)
	vw.Release()
}

// NeighborRange yields each vertex of [lo, min(hi, NumVertices())) with
// its adjacency out of one View pinned for the call (engine.Graph); blocks
// must not be retained past yield.
func (s *Store) NeighborRange(lo, hi uint32, yield func(v uint32, block []uint32) bool) {
	var vw View
	s.Pin(&vw)
	vw.NeighborRange(lo, hi, yield)
	vw.Release()
}
