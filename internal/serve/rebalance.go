// Live skew-aware resharding: boundary moves between adjacent shards,
// executed through the epoch publish protocol with no stop-the-world.
//
// A boundary move has two halves. Install time (Store.MoveBoundary, under
// rebMu's write lock): swap routeMap to the successor map and append one
// opRebalance control entry to both affected writers' queues. Every batch
// enqueued before the install was scattered by the old map and sits ahead
// of the control entries; every batch after is scattered by the new map
// and sits behind them — so each batch's routing matches the shard layout
// that will exist when it applies. Execute time (executeRebalance, on
// whichever affected writer reaches its control entry second, while the
// first waits parked): move the transferred vertices' table entries, and
// their runs from the donor's page arena to the receiver's
// (core.Paged.MoveBoundary, safe because both owners are quiescent and serve
// readers only touch snapshots, whose tables and pages it does not write),
// publish both shards — each snapshot stamped with its new range — and
// install one, then the other. Between the two swaps the
// shards' current epochs do not tile: they leave a gap or overlap exactly
// the moved range. A View that pins across the swaps sees that and pins
// again; a single-vertex read steps to the shard whose pinned range holds
// its vertex (View/pinFor in view.go).
package serve

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"lsgraph/internal/core"
	"lsgraph/internal/obs"
)

// rebalanceOp is the rendezvous state shared by the two control entries
// of one boundary move. The second writer to arrive executes; the first
// waits on done.
type rebalanceOp struct {
	k        int    // boundary index: move between shards k and k+1
	newStart uint32 // new first vertex of shard k+1
	arrived  atomic.Int32
	done     chan struct{}

	movedVerts uint32
	movedEdges uint64
	err        error
}

// testHookRebalanceExecute, when non-nil, runs on the executing writer
// goroutine immediately before the splice, while both affected writers
// are quiesced. Tests block in it to assert that readers and unaffected
// writers keep making progress mid-rebalance.
var testHookRebalanceExecute func()

// testHookRebalanceMidSwap, when non-nil, runs on the executing writer
// goroutine between the two installs of a boundary move: shard k's new
// epoch is current, shard k+1's is still the old one. Tests hold the move
// there to read the store in the one state where its epochs do not tile.
var testHookRebalanceMidSwap func()

// MoveBoundary moves the partition boundary between shards k and k+1 to
// newStart, moving the transferred vertex range's table entries and runs and
// republishing both shards under the successor map (epoch+1). It blocks until the move
// has executed and is reader-visible. Only the two affected shard writers
// pause (at their control entries); all other writers and all readers
// proceed throughout. Returns the moved materialized vertex and edge
// counts. Safe to call from any goroutine; concurrent calls serialize.
func (s *Store) MoveBoundary(k int, newStart uint32) (movedVerts uint32, movedEdges uint64, err error) {
	s.rebalanceMu.Lock()
	defer s.rebalanceMu.Unlock()
	return s.moveBoundaryLocked(k, newStart)
}

// moveBoundaryLocked is MoveBoundary with rebalanceMu held.
func (s *Store) moveBoundaryLocked(k int, newStart uint32) (uint32, uint64, error) {
	pm := s.routeMap.Load()
	next, err := pm.WithBoundary(k, newStart)
	if err != nil {
		return 0, 0, err
	}
	op := &rebalanceOp{k: k, newStart: newStart, done: make(chan struct{})}
	wa, wb := s.ws[k], s.ws[k+1]

	// Install: swap the routing map and append both control entries as one
	// atomic step with respect to enqueue (rebMu write lock) and to both
	// writers' drains (their queue locks, taken together — the only place
	// two writer locks nest, always in index order).
	s.rebMu.Lock()
	wa.mu.Lock()
	wb.mu.Lock()
	if wa.closed || wb.closed {
		wb.mu.Unlock()
		wa.mu.Unlock()
		s.rebMu.Unlock()
		return 0, 0, fmt.Errorf("serve: boundary move on closed Store")
	}
	s.routeMap.Store(next)
	wa.queue = append(wa.queue, pending{op: opRebalance, reb: op})
	wb.queue = append(wb.queue, pending{op: opRebalance, reb: op})
	wa.mu.Unlock()
	wb.mu.Unlock()
	s.rebMu.Unlock()
	wa.signal()
	wb.signal()

	<-op.done
	if op.err != nil {
		return 0, 0, op.err
	}
	return op.movedVerts, op.movedEdges, nil
}

// executeRebalance performs the splice half of a boundary move. It runs on
// the second affected writer to reach its control entry; the first is
// parked on op.done, so both shards are quiescent: no update or publish
// can race with the splice or the republish below.
func (s *Store) executeRebalance(op *rebalanceOp) {
	sp := obs.PhaseRebalance.Begin()
	if testHookRebalanceExecute != nil {
		testHookRebalanceExecute()
	}
	mv, me, err := s.g.MoveBoundary(op.k, op.newStart)
	if err != nil {
		// Install-time validation makes this unreachable (rebalanceMu
		// serializes moves, so the shards' ranges are still routeMap's
		// before the swap); surface it to the caller rather than corrupting
		// state.
		op.err = err
		return
	}
	pm := s.routeMap.Load() // the successor map, installed with op
	wa, wb := s.ws[op.k], s.ws[op.k+1]
	// The move shifted slots and bases in the shards' own tables; views
	// pinned on the old layout keep the old tables and pages. Both snapshots
	// are built before either is installed, so the window in which the
	// current epochs do not tile is two atomic swaps wide.
	ea := wa.buildSnap()
	eb := wb.buildSnap()
	wa.install(ea)
	if testHookRebalanceMidSwap != nil {
		testHookRebalanceMidSwap()
	}
	wb.install(eb)
	op.movedVerts, op.movedEdges = mv, me
	s.rebStats.boundaryMoves.Add(1)
	s.rebStats.movedVertices.Add(uint64(mv))
	s.rebStats.movedEdges.Add(me)
	sp.End(op.k, 0, pm.Epoch, me)
}

// RebalanceResult summarizes one Rebalance call.
type RebalanceResult struct {
	// Moves is the number of boundary moves performed (0 when the layout
	// was already balanced or S == 1).
	Moves int `json:"moves"`
	// MovedVertices and MovedEdges total the materialized vertices and
	// directed edges that changed owner.
	MovedVertices uint64 `json:"moved_vertices"`
	MovedEdges    uint64 `json:"moved_edges"`
	// SkewPctBefore and SkewPctAfter are the per-shard edge-mass skew gauge
	// — (max/fair - 1) * 100 — measured from pinned views before and after.
	SkewPctBefore float64 `json:"skew_pct_before"`
	SkewPctAfter  float64 `json:"skew_pct_after"`
	// MapEpoch is the partition-map epoch after the call.
	MapEpoch uint64 `json:"map_epoch"`
	// Duration is the wall time of the whole call, including waiting for
	// the affected writers to reach their control entries. It marshals as
	// nanoseconds.
	Duration time.Duration `json:"duration_nanos"`
}

// Rebalance re-equalizes per-shard edge mass: it pins a consistent view,
// computes the boundary positions that split the total edge mass evenly,
// and performs the necessary adjacent boundary moves, each through the
// live no-stop-the-world protocol (only the two shards touched by a move
// pause; readers never do). It is a no-op for S == 1 or an already-even
// layout. Concurrent Rebalance/MoveBoundary calls serialize.
func (s *Store) Rebalance() (RebalanceResult, error) {
	s.rebalanceMu.Lock()
	defer s.rebalanceMu.Unlock()
	start := time.Now()
	var res RebalanceResult
	res.MapEpoch = s.routeMap.Load().Epoch
	if len(s.ws) == 1 {
		res.Duration = time.Since(start)
		return res, nil
	}

	v := s.View()
	res.SkewPctBefore = viewSkewPct(v)
	targets := targetBoundaries(v)
	v.Release()
	if targets == nil {
		res.SkewPctAfter = res.SkewPctBefore
		res.Duration = time.Since(start)
		return res, nil
	}

	// Apply the target boundaries as adjacent moves. A target may be
	// momentarily unreachable because a neighboring boundary has not moved
	// yet (Starts must stay strictly increasing), so sweep up to a few
	// times, clamping each move to the currently legal window; every sweep
	// strictly shrinks the remaining distance, and two sweeps suffice for
	// any monotone target vector (left-to-right then right-to-left).
	for sweep := 0; sweep < 3; sweep++ {
		moved := false
		for k := 0; k < len(targets); k++ {
			pm := s.routeMap.Load()
			want := clampBoundary(pm, k, targets[k])
			if want == pm.Starts[k+1] {
				continue
			}
			mv, me, err := s.moveBoundaryLocked(k, want)
			if err != nil {
				return res, err
			}
			res.Moves++
			res.MovedVertices += uint64(mv)
			res.MovedEdges += me
			moved = true
		}
		if !moved {
			break
		}
	}

	v = s.View()
	res.SkewPctAfter = viewSkewPct(v)
	v.Release()
	res.MapEpoch = s.routeMap.Load().Epoch
	res.Duration = time.Since(start)
	if res.Moves > 0 {
		s.rebStats.rebalances.Add(1)
	}
	return res, nil
}

// viewSkewPct is the per-shard edge-mass skew of a pinned view (skewPct).
func viewSkewPct(v *View) float64 {
	return skewPct(len(v.es), func(i int) uint64 { return v.es[i].snap.NumEdges() })
}

// targetBoundaries computes, from a pinned view, the boundary vertex IDs
// that split the view's total edge mass into equal per-shard shares:
// result[k] is the ideal new start of shard k+1. Returns nil when the
// layout is already exact or the view holds no edges (nothing to balance
// by; boundaries would collapse arbitrarily).
func targetBoundaries(v *View) []uint32 {
	S := len(v.es)
	total := v.NumEdges()
	if total == 0 {
		return nil
	}
	// prefix(g) = edge mass of vertices [0, g): per-shard snapshot offsets
	// shifted by the mass of the shards before them.
	cum := make([]uint64, S+1)
	for i, e := range v.es {
		cum[i+1] = cum[i] + e.snap.NumEdges()
	}
	targets := make([]uint32, S-1)
	exact := true
	for k := 0; k < S-1; k++ {
		want := total * uint64(k+1) / uint64(S)
		// Find the shard whose mass range contains want, then walk its
		// snapshot's degrees to the local cut.
		i := sort.Search(S, func(j int) bool { return cum[j+1] >= want }) // first shard reaching want
		if i == S {
			i = S - 1
		}
		e := v.es[i]
		local := want - cum[i]
		targets[k] = e.lo + e.snap.VertexAtEdge(local)
		if targets[k] != v.es[k+1].lo {
			exact = false
		}
	}
	// Boundaries must be strictly increasing and leave every shard
	// non-empty; nudge collapsed targets apart.
	prev := uint32(0)
	for k := range targets {
		if targets[k] <= prev {
			targets[k] = prev + 1
		}
		prev = targets[k]
	}
	if exact {
		return nil
	}
	return targets
}

// clampBoundary clamps a target for boundary k into the window that keeps
// pm's starts strictly increasing: (Starts[k], Starts[k+2]) exclusive.
func clampBoundary(pm *core.PartitionMap, k int, want uint32) uint32 {
	if want <= pm.Starts[k] {
		want = pm.Starts[k] + 1
	}
	if k+2 < len(pm.Starts) && want >= pm.Starts[k+2] {
		want = pm.Starts[k+2] - 1
	}
	return want
}

// autoRebalance is the background rebalancer goroutine: every
// Options.AutoInterval it measures the per-shard skew from the always-on
// routed-edge counters (falling back to stored edge mass when no traffic
// has been routed since the last check) and triggers a full Rebalance when
// the heaviest shard exceeds AutoRebalance times its fair share.
func (s *Store) autoRebalance() {
	defer close(s.autoDone)
	ticker := time.NewTicker(s.opt.AutoInterval)
	defer ticker.Stop()
	last, load := make([]uint64, len(s.routed)), make([]uint64, len(s.routed))
	for {
		select {
		case <-s.autoStop:
			return
		case <-ticker.C:
		}
		// Routed-edge deltas since the last tick: the live load signal.
		var total uint64
		for i := range s.routed {
			cur := s.routed[i].Load()
			load[i], last[i] = cur-last[i], cur
			total += load[i]
		}
		if total == 0 {
			// No ingest since last tick: fall back to stored edge mass so a
			// skewed-at-rest store still converges.
			v := s.View()
			for i, e := range v.es {
				load[i] = e.snap.NumEdges()
				total += load[i]
			}
			v.Release()
		}
		skew := skewPct(len(load), func(i int) uint64 { return load[i] })
		if total == 0 || skew < (s.opt.AutoRebalance-1)*100 {
			continue
		}
		if _, err := s.Rebalance(); err != nil {
			// A move can fail only against a closing store; stop quietly.
			return
		}
	}
}

// PartitionInfo is a point-in-time description of the Store's partition
// layout, for introspection endpoints and tests.
type PartitionInfo struct {
	// Epoch is the routing map's version (0 = initial uniform layout): the
	// number of boundary moves installed so far. It is read beside the
	// pinned view, not from it, so while a move is in flight it can be one
	// ahead of the layout Starts and Edges describe.
	Epoch uint64 `json:"epoch"`
	// Starts[i] is the first vertex ID of shard i's pinned range.
	Starts []uint32 `json:"starts"`
	// Edges[i] is the directed edge count of shard i's pinned snapshot.
	Edges []uint64 `json:"edges"`
	// Routed[i] is the cumulative count of edges routed to shard i by
	// enqueue since construction.
	Routed []uint64 `json:"routed"`
	// SkewPct is the edge-mass skew gauge over Edges: (max/fair - 1) * 100.
	SkewPct float64 `json:"skew_pct"`
}

// Partition returns the Store's current partition layout, measured from
// one pinned view.
func (s *Store) Partition() PartitionInfo {
	v := s.View()
	defer v.Release()
	info := PartitionInfo{
		Epoch:   s.routeMap.Load().Epoch,
		Starts:  make([]uint32, len(v.es)),
		Edges:   make([]uint64, len(v.es)),
		Routed:  make([]uint64, len(s.routed)),
		SkewPct: viewSkewPct(v),
	}
	for i, e := range v.es {
		info.Starts[i] = e.lo
		info.Edges[i] = e.snap.NumEdges()
	}
	for i := range s.routed {
		info.Routed[i] = s.routed[i].Load()
	}
	return info
}
