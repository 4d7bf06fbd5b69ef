package serve

import (
	"lsgraph/internal/core"
	"lsgraph/internal/obs"
)

// acquire pins the shard's current snapshot: increment its refcount, then
// recheck that it is still current. The recheck is what makes the writer's
// refs==0 observation a proof that no reader holds or will obtain the
// snapshot (sequentially consistent atomics; see the package comment).
func (w *shardWriter) acquire() *epochSnap {
	for {
		e := w.cur.Load()
		e.refs.Add(1)
		if w.cur.Load() == e {
			return e
		}
		e.refs.Add(-1)
	}
}

func (w *shardWriter) release(e *epochSnap) { e.refs.Add(-1) }

// View is an epoch-pinned, immutable composed view of the Store: one
// pinned snapshot per shard plus the vertex bound read at acquire time.
// Every read method (NumVertices, NumEdges, Degree, Neighbors,
// NeighborBlocks) and every analytics kernel written against engine.Graph
// works on it directly, concurrently with ongoing ingestion. Call Release
// when done; an unreleased View pins its snapshots' tables and arena pages
// for the life of the Store.
type View struct {
	s     *Store
	es    []*epochSnap
	epoch uint64
	nv    uint32
	m     uint64
	pin   obs.Span // the viewpin layer's span, acquire to Release
}

// View acquires the most recently published snapshot of every shard and
// returns them pinned as one composed view. Always non-blocking with
// respect to the writers: a View is available even mid-batch. Safe to call
// from any goroutine, including after Close.
//
// The pins must tile the ID space — shard 0's range starts at 0, each next
// one starts where the previous ends, the last is open-ended — so that the
// view holds every vertex exactly once. Shard ranges only change in a
// boundary move, which swaps the two affected shards' epochs one after the
// other: a reader that pins one shard before the move and its neighbour
// after it sees a gap or an overlap and pins again. The window is the time
// between two atomic swaps.
func (s *Store) View() *View {
	v := &View{s: s, es: make([]*epochSnap, len(s.ws))}
	for {
		v.epoch, v.m = 0, 0
		tiled, next := true, uint64(0)
		for i, w := range s.ws {
			e := w.acquire()
			v.es[i] = e
			tiled = tiled && uint64(e.lo) == next
			next = e.hi
			v.epoch += e.epoch
			v.m += e.snap.NumEdges()
		}
		if tiled {
			break
		}
		for i, e := range v.es {
			s.ws[i].release(e)
		}
	}
	// Read the vertex bound after pinning: it is then at least as large as
	// the bound reserved before any pinned snapshot's batch was published,
	// so every neighbor ID in the view is < nv (see the package comment).
	v.nv = s.g.NumVertices()
	v.pin = obs.PhaseViewPin.Begin()
	return v
}

// Epoch returns the sum of the shard epochs this view pinned: 0 for the
// Store's initial state, incremented by one per applied batch anywhere in
// the store. Monotone across successively acquired views. Valid after
// Release.
func (v *View) Epoch() uint64 { return v.epoch }

// NumVertices returns the view's vertex count: the logical vertex-space
// bound at acquire time, which covers every ID any pinned adjacency
// references.
func (v *View) NumVertices() uint32 { return v.nv }

// NumEdges returns the view's directed edge count, summed over the pinned
// shard snapshots.
func (v *View) NumEdges() uint64 { return v.m }

// snapOf routes v to its pinned shard snapshot and local index. ok is
// false when the ID is beyond the snapshot's materialized range (a vertex
// reserved or grown after the shard's pinned publish): such a vertex has
// degree 0 in this view.
func (v *View) snapOf(u uint32) (*core.Snapshot, uint32, bool) {
	// Route by the pinned epochs' own range starts, never the store's live
	// maps: a concurrent boundary move must not change what this view
	// reads. The pins tile, so the owner is the last one starting at or
	// below u. The search branches on purpose: kernels read vertices in
	// ascending order, where the branch is predicted and the loads behind
	// it need not wait for the compare, as core's branch-free one makes
	// them (EXPERIMENTS.md, "Routing a batch").
	i, end := 0, len(v.es)
	for end-i > 1 {
		mid := int(uint(i+end) >> 1)
		if v.es[mid].lo <= u {
			i = mid
		} else {
			end = mid
		}
	}
	e := v.es[i]
	snap := e.snap
	lu := u - e.lo
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
	for _, e := range v.es {
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

// Release unpins the view. The view's read methods must not be used
// afterwards (its tables may be recycled into a future snapshot).
// Releasing twice is a no-op. Release is not safe to call concurrently
// with the view's own readers; callers sharing a View across goroutines
// must release after those goroutines finish.
func (v *View) Release() {
	if v.es == nil {
		return
	}
	for i, e := range v.es {
		v.s.ws[i].release(e)
	}
	v.es = nil
	// How long the view held its snapshots pinned: long pins are what delay
	// reclamation, so the age distribution explains epoch lag.
	v.pin.End(-1, 0, v.epoch, v.m)
}

// Epoch returns the Store's current epoch: the total number of batches
// applied and published across all shards since construction.
func (s *Store) Epoch() uint64 {
	var e uint64
	for _, w := range s.ws {
		e += w.cur.Load().epoch
	}
	return e
}

// NumVertices returns the current logical vertex-space bound (including
// vertices reserved by still-queued batches).
func (s *Store) NumVertices() uint32 { return s.g.NumVertices() }

// NumEdges returns the directed edge count summed over the shards'
// current snapshots, pinned as one tiling view (so a concurrent boundary
// move never double- or under-counts the moved range's edges).
func (s *Store) NumEdges() uint64 {
	v := s.View()
	m := v.NumEdges()
	v.Release()
	return m
}

// pinFor pins the current epoch of the shard whose published range holds
// v and returns v's index in it; callers must release e on the returned
// writer. The routing map only says where to look first: during a boundary
// move it already names v's next owner while the epoch holding v may still
// be the neighbour's, so the walk steps towards v until a pinned range
// holds it. It cannot step off either end — shard 0's range starts at 0
// and the last shard's is open-ended — and whichever epoch holds v is up
// to date for it (see the package comment), so no second check is needed.
func (s *Store) pinFor(v uint32) (*shardWriter, *epochSnap, uint32) {
	i := s.routeMap.Load().ShardOf(v)
	for {
		w := s.ws[i]
		e := w.acquire()
		switch {
		case v < e.lo:
			i--
		case uint64(v) >= e.hi:
			i++
		default:
			return w, e, v - e.lo
		}
		w.release(e)
	}
}

// Degree returns v's out-degree in the owning shard's current snapshot.
func (s *Store) Degree(v uint32) uint32 {
	w, e, lv := s.pinFor(v)
	d := uint32(0)
	if lv < e.snap.NumVertices() {
		d = e.snap.Degree(lv)
	}
	w.release(e)
	return d
}

// NeighborBlocks yields v's adjacency as one block out of the owning
// shard's snapshot current at call time (engine.Graph). The snapshot stays
// pinned for the duration of the call — so yield always sees one coherent
// adjacency even while batches apply concurrently — and no longer: the
// block must not be retained past yield.
func (s *Store) NeighborBlocks(v uint32, yield func(block []uint32) bool) {
	w, e, lv := s.pinFor(v)
	if lv < e.snap.NumVertices() {
		e.snap.NeighborBlocks(lv, yield)
	}
	w.release(e)
}

// NeighborRange yields each vertex of [lo, min(hi, NumVertices())) with
// its adjacency out of one tiling view pinned for the call (engine.Graph):
// every shard is pinned once per call, not once per vertex, and released
// when the walk ends; blocks must not be retained past yield.
func (s *Store) NeighborRange(lo, hi uint32, yield func(v uint32, block []uint32) bool) {
	v := s.View()
	v.NeighborRange(lo, hi, yield)
	v.Release()
}
