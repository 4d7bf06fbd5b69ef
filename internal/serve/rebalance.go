// Live skew-aware resharding: a layout change is one re-cut of the shards'
// ranges, run by the writer between two batches and published as an epoch
// like any other, with no stop-the-world for readers.
//
// MoveBoundary and Rebalance queue one entry and wait for it; the writer
// runs it in queue order, so every batch ahead of it applies by the layout
// before the change and every batch behind it by the layout after: the
// writer routes each batch by the shards' own ranges when it applies it,
// and no other goroutine keeps a copy of them. The entry re-cuts the shards
// to a vector of range starts — the current one with one start changed
// (MoveBoundary), or the equal-mass starts the writer computes from the
// current epoch (Rebalance). The re-cut copies each run whose owner changes
// once, from its old shard's page arena to its new shard's
// (core.Paged.Recut, which also refuses a vector that would empty a shard;
// safe because the writer is the only goroutine that touches the shards and
// readers only touch snapshots, whose tables and pages it does not write).
// Each shard whose range changed publishes once — its snapshot stamped with
// its new range — and the writer installs one epoch. Ingest waits for the
// re-cut; readers do not. With Options.AutoRebalance set, the writer runs
// Rebalance's re-cut itself after an apply that finds the routed load
// skewed (autoCheck); there is no other goroutine.
package serve

import (
	"fmt"
	"sort"
	"time"

	"lsgraph/internal/core"
	"lsgraph/internal/obs"
)

// moveOp is one queued layout change and its outcome, ready when done
// closes: a boundary move (MoveBoundary) or, with rebalance set, a whole
// Rebalance. res counts what it moved.
type moveOp struct {
	rebalance bool
	k         int    // MoveBoundary: boundary index, between shards k and k+1
	newStart  uint32 // MoveBoundary: new first vertex of shard k+1
	done      chan struct{}

	res RebalanceResult
	err error
}

// testHookRebalanceExecute, when non-nil, runs on the writer goroutine
// immediately before a layout change's re-cut. Tests block in it to assert
// that readers keep making progress mid-rebalance.
var testHookRebalanceExecute func()

// MoveBoundary moves the partition boundary between shards k and k+1 to
// newStart, moving the transferred vertex range's table entries and runs
// and republishing both shards. It blocks until the move has run and is
// reader-visible: the writer runs it after every batch enqueued before the
// call and before any enqueued after it, and refuses it there (ErrNoMove,
// or a move that would empty a shard) with the layout unchanged. Readers
// proceed throughout. Returns the moved materialized vertex and edge
// counts. Safe to call from any goroutine; concurrent calls run in queue
// order. On a closed Store it returns ErrClosed.
func (s *Store) MoveBoundary(k int, newStart uint32) (movedVerts uint32, movedEdges uint64, err error) {
	if k < 0 || k+1 >= len(s.shards) {
		return 0, 0, fmt.Errorf("serve: boundary %d out of range (S=%d)", k, len(s.shards))
	}
	op := &moveOp{k: k, newStart: newStart}
	if err := s.runMove(op); err != nil {
		return 0, 0, err
	}
	return uint32(op.res.MovedVertices), op.res.MovedEdges, nil
}

// runMove queues op for the writer and waits for its outcome.
func (s *Store) runMove(op *moveOp) error {
	op.done = make(chan struct{})
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return ErrClosed
	}
	s.queue = append(s.queue, pending{op: opMove, move: op})
	s.mu.Unlock()
	s.signal()
	<-op.done
	return op.err
}

// move runs a layout change: one re-cut, then one publish of every shard
// whose range it changed, in one epoch. A refused re-cut changes nothing,
// and a Rebalance that finds the layout balanced is no error. Writer
// goroutine only.
func (s *Store) move(op *moveOp) {
	sp := obs.PhaseRebalance.Begin()
	if testHookRebalanceExecute != nil {
		testHookRebalanceExecute()
	}
	res, old := &op.res, s.cur.Load()
	res.MapEpoch, res.SkewPctBefore = old.moves, epochSkewPct(old)
	res.SkewPctAfter = res.SkewPctBefore
	starts := make([]uint32, len(old.shards))
	for i, p := range old.shards {
		starts[i] = p.lo
	}
	if op.rebalance {
		if starts = targetStarts(old); starts == nil {
			return
		}
	} else {
		starts[op.k+1] = op.newStart
	}
	mv, me, err := s.g.Recut(starts)
	if err != nil {
		if !op.rebalance || err != core.ErrNoMove {
			op.err = err
		}
		return
	}
	// The re-cut gave the changed shards fresh tables over their new
	// ranges; views pinned on the old layout keep the old tables and pages.
	e := s.successor(0, 0)
	for i, p := range old.shards {
		sh := s.shards[i].shard
		if sh.Base() != p.lo || sh.End() != p.hi {
			e.shards[i] = s.publish(i, 0, e.batches)
		}
		if sh.Base() != p.lo {
			res.Moves++
		}
	}
	e.moves += uint64(res.Moves)
	s.install(e)
	res.MovedVertices, res.MovedEdges = uint64(mv), me
	res.MapEpoch, res.SkewPctAfter = e.moves, epochSkewPct(e)
	if op.rebalance {
		s.rebStats.rebalances.Add(1)
	}
	s.rebStats.movedVertices.Add(res.MovedVertices)
	s.rebStats.movedEdges.Add(res.MovedEdges)
	sp.End(-1, 0, e.moves, res.MovedEdges)
}

// RebalanceResult summarizes one Rebalance call.
type RebalanceResult struct {
	// Moves is the number of boundaries the call's re-cut changed (0 when
	// the layout was already balanced or S == 1).
	Moves int `json:"moves"`
	// MovedVertices and MovedEdges count the materialized vertices and
	// directed edges that changed owner, each once.
	MovedVertices uint64 `json:"moved_vertices"`
	MovedEdges    uint64 `json:"moved_edges"`
	// SkewPctBefore and SkewPctAfter are the per-shard edge-mass skew gauge
	// — (max/fair - 1) * 100 — of the epochs before and after the re-cut.
	SkewPctBefore float64 `json:"skew_pct_before"`
	SkewPctAfter  float64 `json:"skew_pct_after"`
	// MapEpoch is the partition epoch after the call: the boundaries changed
	// so far (PartitionInfo.Epoch).
	MapEpoch uint64 `json:"map_epoch"`
	// Duration is the wall time of the whole call, including waiting for
	// the writer to reach the call's entry. It marshals as nanoseconds.
	Duration time.Duration `json:"duration_nanos"`
}

// Rebalance re-equalizes per-shard edge mass: the writer, between two
// batches, computes from the current epoch the range starts that split the
// total edge mass evenly, re-cuts the shards to them, and installs the
// result as one epoch (readers never pause). It is a no-op for S == 1 or an
// already-even layout. Concurrent Rebalance/MoveBoundary calls run in queue
// order. On a closed Store it returns ErrClosed.
func (s *Store) Rebalance() (RebalanceResult, error) {
	start := time.Now()
	op := &moveOp{rebalance: true}
	err := s.runMove(op)
	op.res.Duration = time.Since(start)
	return op.res, err
}

// epochSkewPct is the per-shard edge-mass skew of an epoch (skewPct).
func epochSkewPct(e *epoch) float64 {
	es := e.shards
	return skewPct(len(es), func(i int) uint64 { return es[i].snap.NumEdges() })
}

// targetStarts computes, from an epoch, the range starts that split its
// total edge mass into equal per-shard shares: result[k] is the ideal
// first vertex of shard k, nudged apart where they collapse so every shard
// keeps one. Returns nil when the layout has one shard or holds no edges
// (nothing to balance by); the current starts when it is already exact,
// which the re-cut refuses as no move.
func targetStarts(e *epoch) []uint32 {
	es := e.shards
	S := len(es)
	if e.m == 0 || S == 1 {
		return nil
	}
	// prefix(g) = edge mass of vertices [0, g): per-shard snapshot offsets
	// shifted by the mass of the shards before them.
	cum := make([]uint64, S+1)
	for i, e := range es {
		cum[i+1] = cum[i] + e.snap.NumEdges()
	}
	starts := make([]uint32, S)
	for k := 1; k < S; k++ {
		want := e.m * uint64(k) / uint64(S)
		// Find the first shard whose mass range reaches want, then walk its
		// snapshot's degrees to the local cut.
		i := min(sort.Search(S, func(j int) bool { return cum[j+1] >= want }), S-1)
		starts[k] = max(es[i].lo+es[i].snap.VertexAtEdge(want-cum[i]), starts[k-1]+1)
	}
	return starts
}

// autoInterval is the least time between two of the writer's skew checks
// (autoCheck). Tests set it before they start a Store.
var autoInterval = time.Second

// autoCheck runs after every apply of a Store with Options.AutoRebalance
// set and more than one shard. At most once per autoInterval — the first
// apply always — it reads how many edges the writer routed to each shard
// since the last check and, when the heaviest shard took more than
// AutoRebalance times its fair share, runs Rebalance's re-cut inline. Skew
// costs only applies, so a store that takes no batches keeps its layout.
// Writer goroutine only.
func (s *Store) autoCheck() {
	now := obs.Now()
	if now < s.auto.next {
		return
	}
	s.auto.next = now + int64(autoInterval)
	seen := s.auto.seen
	skew := skewPct(len(seen), func(i int) uint64 { return s.routed[i].Load() - seen[i] })
	for i := range seen {
		seen[i] = s.routed[i].Load()
	}
	if skew > 0 && skew >= (s.opt.AutoRebalance-1)*100 {
		s.move(&moveOp{rebalance: true})
	}
}

// PartitionInfo is a point-in-time description of the Store's partition
// layout, for introspection endpoints and tests.
type PartitionInfo struct {
	// Epoch is the partition epoch (0 = the layout the Store started
	// with): the number of boundaries changed so far, summed over the
	// installed re-cuts, read from the same pinned epoch as Starts and
	// Edges.
	Epoch uint64 `json:"epoch"`
	// Starts[i] is the first vertex ID of shard i's pinned range.
	Starts []uint32 `json:"starts"`
	// Edges[i] is the directed edge count of shard i's pinned snapshot.
	Edges []uint64 `json:"edges"`
	// Routed[i] is the cumulative count of edges the writer routed to
	// shard i since construction.
	Routed []uint64 `json:"routed"`
	// SkewPct is the edge-mass skew gauge over Edges: (max/fair - 1) * 100.
	SkewPct float64 `json:"skew_pct"`
}

// Partition returns the Store's current partition layout, measured from
// one pinned view.
func (s *Store) Partition() PartitionInfo {
	v := s.View()
	defer v.Release()
	es := v.e.shards
	info := PartitionInfo{
		Epoch:   v.e.moves,
		Starts:  make([]uint32, len(es)),
		Edges:   make([]uint64, len(es)),
		Routed:  make([]uint64, len(s.routed)),
		SkewPct: epochSkewPct(v.e),
	}
	for i, e := range es {
		info.Starts[i] = e.lo
		info.Edges[i] = e.snap.NumEdges()
	}
	for i := range s.routed {
		info.Routed[i] = s.routed[i].Load()
	}
	return info
}
