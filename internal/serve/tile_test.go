package serve

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsgraph/internal/core"
	"lsgraph/internal/engine"
	"lsgraph/internal/refgraph"
)

// checkTiledView asserts what a reader may rely on in any View, however it
// interleaved with boundary moves: the pinned ranges tile the ID space
// from 0 with the last one open-ended, the degrees sum to NumEdges, which
// is the oracle's, every vertex of probe reads the oracle's adjacency, and
// NeighborRange keeps its contract across the pins (engine.CheckRange).
func checkTiledView(v *View, ref *refgraph.Graph, probe []uint32) error {
	next := uint64(0)
	for i, e := range v.es {
		if uint64(e.lo) != next || e.hi <= next {
			return fmt.Errorf("pin %d covers [%d,%d) after a pin ending at %d: the pins do not tile", i, e.lo, e.hi, next)
		}
		next = e.hi
	}
	if next != openEnd {
		return fmt.Errorf("last pin ends at %d, not open-ended", next)
	}
	var sum uint64
	for u := uint32(0); u < ref.NumVertices(); u++ {
		sum += uint64(v.Degree(u))
	}
	if sum != v.NumEdges() || sum != ref.NumEdges() {
		return fmt.Errorf("degrees sum to %d, NumEdges %d, oracle %d", sum, v.NumEdges(), ref.NumEdges())
	}
	for _, u := range probe {
		walk := func(y func([]uint32) bool) { v.NeighborBlocks(u, y) }
		if err := engine.CheckBlocks(walk, ref.Neighbors(u)); err != nil {
			return fmt.Errorf("view vertex %d: %w", u, err)
		}
	}
	return engine.CheckRange(v)
}

// checkVertexReads asserts the Store's own single-vertex reads of every
// vertex of probe against the oracle.
func checkVertexReads(st *Store, ref *refgraph.Graph, probe []uint32) error {
	for _, u := range probe {
		if got, want := st.Degree(u), ref.Degree(u); got != want {
			return fmt.Errorf("Degree(%d) = %d, oracle %d", u, got, want)
		}
		walk := func(y func([]uint32) bool) { st.NeighborBlocks(u, y) }
		if err := engine.CheckBlocks(walk, ref.Neighbors(u)); err != nil {
			return fmt.Errorf("store vertex %d: %w", u, err)
		}
	}
	return nil
}

// TestViewTilesAcrossBoundaryMoves is the reader half of the boundary-move
// protocol. The graph's edges never change, so every read has one right
// answer; every boundary that can move does, X→Y→X in both directions (the
// ABA case: a reader may pin one shard before the first move and its
// neighbour after the second, and that view is as good as any). Two readers
// run throughout, and each move is also held between its two swaps — the
// one state whose current epochs do not tile — while a View and a
// single-vertex read of the moving range are attempted: a reader that does
// not check ranges returns from there with a vertex missing or counted
// twice.
func TestViewTilesAcrossBoundaryMoves(t *testing.T) {
	for _, tc := range []struct {
		n      uint32
		shards int
	}{
		{2048, 2}, {2048, 4}, {2048, 8},
		// Uneven layouts: spans that do not divide n, shards based past it.
		{5, 4}, {1, 8}, {7, 3}, {9, 4},
	} {
		t.Run(fmt.Sprintf("n=%d/S=%d", tc.n, tc.shards), func(t *testing.T) {
			tileAcrossMoves(t, tc.n, tc.shards)
		})
	}
}

func tileAcrossMoves(t *testing.T, n uint32, shards int) {
	st := New(core.NewPaged(n, shards, 2), Options{})
	defer st.Close()
	starts := st.Partition().Starts
	// The oracle also covers the IDs past n that the last boundary, whose
	// shard is open-ended, moves across: they read as degree 0.
	room := n/4 + 2
	ref := refgraph.New(max(n, starts[shards-1]+room))
	r := uint32(12345)
	var src, dst []uint32
	for i := uint32(0); i < 8*n; i++ {
		r = r*1664525 + 1013904223
		u := (r >> 8) % n
		r = r*1664525 + 1013904223
		w := (r >> 8) % n
		src, dst = append(src, u), append(dst, w)
		ref.Insert(u, w)
	}
	st.InsertBatch(src, dst)
	st.Flush()
	v := st.View()
	checkViewAgainstRef(t, v, ref)
	v.Release()

	var moving atomic.Pointer[[]uint32] // the vertices changing owner right now
	moving.Store(&[]uint32{0})
	midView := make(chan error, 1)
	midReads := make(chan error, 1)
	testHookRebalanceMidSwap = func() {
		// Start a View and the moving range's single-vertex reads from the
		// state between the swaps. With the range checks working neither can
		// finish before the hook returns and the second swap closes the gap
		// or the overlap, so hold the move only as long as broken ones take.
		probe := *moving.Load()
		pinned := make(chan struct{})
		go func() {
			v := st.View()
			close(pinned)
			midView <- checkTiledView(v, ref, probe)
			v.Release()
		}()
		go func() { midReads <- checkVertexReads(st, ref, probe) }()
		select {
		case <-pinned:
		case <-time.After(500 * time.Microsecond):
		}
	}
	defer func() { testHookRebalanceMidSwap = nil }()

	var stop atomic.Bool
	var views, reads atomic.Int64
	var readers sync.WaitGroup
	defer func() { stop.Store(true); readers.Wait() }()
	readers.Add(2)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			v := st.View()
			if err := checkTiledView(v, ref, *moving.Load()); err != nil {
				t.Error(err)
				stop.Store(true)
			}
			v.Release()
			views.Add(1)
		}
	}()
	go func() {
		defer readers.Done()
		for !stop.Load() {
			if err := checkVertexReads(st, ref, *moving.Load()); err != nil {
				t.Error(err)
				stop.Store(true)
			}
			reads.Add(1)
		}
	}()

	moves := 0
	for k := 0; k+1 < shards; k++ {
		x := starts[k+1]
		end := x + room // the last shard is open-ended
		if k+2 < shards {
			end = starts[k+2]
		}
		for _, y := range []uint32{starts[k] + (x-starts[k])/2, x + (end-x)/2} {
			if y <= starts[k] || y >= end || y == x {
				continue // a one-vertex shard has no room on this side
			}
			var probe []uint32
			for u := min(x, y); u < max(x, y); u++ {
				probe = append(probe, u)
			}
			moving.Store(&probe)
			for _, to := range []uint32{y, x} {
				if _, _, err := st.MoveBoundary(k, to); err != nil {
					t.Fatalf("MoveBoundary(%d, %d): %v", k, to, err)
				}
				if err := <-midView; err != nil {
					t.Errorf("View started between the swaps of boundary %d -> %d: %v", k, to, err)
				}
				if err := <-midReads; err != nil {
					t.Errorf("reads started between the swaps of boundary %d -> %d: %v", k, to, err)
				}
				moves++
			}
		}
	}
	// Let the readers see the final layout at least once more each.
	for v0, r0 := views.Load(), reads.Load(); !stop.Load() && (views.Load() == v0 || reads.Load() == r0); {
		time.Sleep(50 * time.Microsecond)
	}
	if moves == 0 {
		t.Fatal("no boundary had room to move")
	}
	if got := st.Partition().Starts; !slices.Equal(got, starts) {
		t.Fatalf("layout %v after every move was undone, want %v", got, starts)
	}
	if err := checkStoreInvariants(st); err != nil {
		t.Fatal(err)
	}
	v = st.View()
	checkViewAgainstRef(t, v, ref)
	v.Release()
}
