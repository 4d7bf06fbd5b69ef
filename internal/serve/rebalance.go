// Live skew-aware resharding: boundary moves between adjacent shards,
// run by the writer between two batches and published as an epoch like
// any other, with no stop-the-world for readers.
//
// A move is a writer step. MoveBoundary and Rebalance queue one entry and
// wait for it; the writer runs it in queue order, so every batch ahead of it
// applies by the layout before the move and every batch behind it by the
// layout after: the writer routes each batch by the shards' own ranges when
// it applies it, and no other goroutine keeps a copy of them. The entry
// moves the transferred vertices' table entries, and their runs from the
// donor's page arena to the receiver's (core.Paged.MoveBoundary, which also
// refuses a move that would empty a shard; safe because the writer is the
// only goroutine that touches the shards and readers only touch snapshots,
// whose tables and pages it does not write). A Rebalance computes its
// equal-mass targets from the current epoch and makes all of its moves in
// one entry. Either way each touched shard publishes once — its snapshot
// stamped with its new range — and the writer installs one epoch. Ingest
// waits for the splice; readers do not.
package serve

import (
	"fmt"
	"sort"
	"time"

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
// immediately before a layout change's first splice. Tests block in it to
// assert that readers keep making progress mid-rebalance.
var testHookRebalanceExecute func()

// MoveBoundary moves the partition boundary between shards k and k+1 to
// newStart, moving the transferred vertex range's table entries and runs
// and republishing both shards. It blocks until the move has run and is
// reader-visible: the writer runs it after every batch enqueued before the
// call and before any enqueued after it, and refuses it there (ErrNoMove,
// or a move that would empty a shard) with the layout unchanged. Readers
// proceed throughout. Returns the moved materialized vertex and edge
// counts. Safe to call from any goroutine; concurrent calls run in queue
// order.
func (s *Store) MoveBoundary(k int, newStart uint32) (movedVerts uint32, movedEdges uint64, err error) {
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
		return fmt.Errorf("serve: boundary move on closed Store")
	}
	s.queue = append(s.queue, pending{op: opMove, move: op})
	s.mu.Unlock()
	s.signal()
	<-op.done
	return op.err
}

// move runs a queued layout change: its splices, then one publish of every
// shard they touched, in one epoch. A refused move changes nothing. Writer
// goroutine only.
func (s *Store) move(op *moveOp) {
	defer close(op.done)
	sp := obs.PhaseRebalance.Begin()
	if testHookRebalanceExecute != nil {
		testHookRebalanceExecute()
	}
	res, old := &op.res, s.cur.Load()
	touched := make([]bool, len(s.shards))
	step := func(k int, newStart uint32) error {
		mv, me, err := s.g.MoveBoundary(k, newStart)
		if err != nil {
			return err
		}
		touched[k], touched[k+1] = true, true
		res.Moves++
		res.MovedVertices += uint64(mv)
		res.MovedEdges += me
		return nil
	}
	if !op.rebalance {
		op.err = step(op.k, op.newStart)
	} else {
		res.SkewPctBefore = epochSkewPct(old)
		// A target may be momentarily unreachable because a neighboring
		// boundary has not moved yet (every shard must stay non-empty), so
		// sweep up to a few times, clamping each move to the currently
		// legal window; every sweep strictly shrinks the remaining distance,
		// and two sweeps suffice for any monotone target vector
		// (left-to-right then right-to-left).
		targets := targetBoundaries(old)
	sweeps:
		for sweep := 0; targets != nil && sweep < 3; sweep++ {
			before := res.Moves
			for k, t := range targets {
				if want := s.clampBoundary(k, t); want != s.shards[k+1].shard.Base() {
					if op.err = step(k, want); op.err != nil {
						break sweeps
					}
				}
			}
			if res.Moves == before {
				break
			}
		}
	}
	res.MapEpoch, res.SkewPctAfter = old.moves, res.SkewPctBefore
	if res.Moves == 0 {
		return
	}
	// The moves shifted slots and bases in the shards' own tables; views
	// pinned on the old layout keep the old tables and pages.
	e := s.successor(0, 0)
	e.moves += uint64(res.Moves)
	for i, t := range touched {
		if t {
			e.shards[i] = s.publish(i, 0, e.batches)
		}
	}
	s.install(e)
	res.MapEpoch, res.SkewPctAfter = e.moves, epochSkewPct(e)
	if op.rebalance {
		s.rebStats.rebalances.Add(1)
	}
	s.rebStats.movedVertices.Add(res.MovedVertices)
	s.rebStats.movedEdges.Add(res.MovedEdges)
	sp.End(-1, 0, e.moves, res.MovedEdges)
}

// clampBoundary clamps a target for boundary k into the window that keeps
// every shard non-empty: strictly between the current starts of shards k
// and k+2. Writer goroutine only.
func (s *Store) clampBoundary(k int, want uint32) uint32 {
	if lo := s.shards[k].shard.Base(); want <= lo {
		want = lo + 1
	}
	if k+2 < len(s.shards) {
		if hi := s.shards[k+2].shard.Base(); want >= hi {
			want = hi - 1
		}
	}
	return want
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
	// — (max/fair - 1) * 100 — of the epochs before and after the moves.
	SkewPctBefore float64 `json:"skew_pct_before"`
	SkewPctAfter  float64 `json:"skew_pct_after"`
	// MapEpoch is the partition epoch after the call: the boundary moves
	// installed so far (PartitionInfo.Epoch).
	MapEpoch uint64 `json:"map_epoch"`
	// Duration is the wall time of the whole call, including waiting for
	// the writer to reach the call's entry. It marshals as nanoseconds.
	Duration time.Duration `json:"duration_nanos"`
}

// Rebalance re-equalizes per-shard edge mass: the writer, between two
// batches, computes from the current epoch the boundary positions that
// split the total edge mass evenly, makes the adjacent boundary moves that
// reach them, and installs the result as one epoch (readers never pause).
// It is a no-op for S == 1 or an already-even layout. Concurrent
// Rebalance/MoveBoundary calls run in queue order.
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

// targetBoundaries computes, from an epoch, the boundary vertex IDs that
// split its total edge mass into equal per-shard shares: result[k] is the
// ideal new start of shard k+1. Returns nil when the layout is already
// exact, has one shard, or holds no edges (nothing to balance by;
// boundaries would collapse arbitrarily).
func targetBoundaries(e *epoch) []uint32 {
	es := e.shards
	S := len(es)
	total := e.m
	if total == 0 || S == 1 {
		return nil
	}
	// prefix(g) = edge mass of vertices [0, g): per-shard snapshot offsets
	// shifted by the mass of the shards before them.
	cum := make([]uint64, S+1)
	for i, e := range es {
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
		p := es[i]
		local := want - cum[i]
		targets[k] = p.lo + p.snap.VertexAtEdge(local)
		if targets[k] != es[k+1].lo {
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
			for i, e := range v.e.shards {
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
	// Epoch is the partition epoch (0 = the layout the Store started
	// with): the number of boundary moves installed so far, read from the
	// same pinned epoch as Starts and Edges.
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
