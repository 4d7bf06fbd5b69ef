package serve

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"lsgraph/internal/core"
)

// TestViewTilesAcrossBoundaryMoves checks that a View is one cut of the
// batch sequence. Producers enqueue batches that each insert one marker
// edge into every shard, while readers take Views and every boundary that
// can move does, X→Y→X in both directions, in the background. Each View's
// shard ranges must tile the ID space, it must hold all of a batch's
// markers or none, each producer's batches as a prefix of the order it
// enqueued them in, and its Epoch must be the number of batches it holds.
// A View that pinned one shard's part of a batch without another's — what
// per-shard epochs allowed — fails the second; an Epoch that counts
// anything but batches, the last. The uneven layouts have spans that do not
// divide n and shards based past it, where the markers' sources are the
// shards' only vertices.
func TestViewTilesAcrossBoundaryMoves(t *testing.T) {
	for _, tc := range []struct {
		n      uint32
		shards int
	}{
		{2048, 2}, {2048, 4}, {2048, 8},
		{5, 4}, {1, 8}, {7, 3}, {9, 4},
	} {
		t.Run(fmt.Sprintf("n=%d/S=%d", tc.n, tc.shards), func(t *testing.T) { oneCut(t, tc.n, tc.shards) })
	}
}

// openEnd is the hi of the last shard's range: above every vertex ID.
const openEnd = 1 << 32

func oneCut(t *testing.T, n uint32, shards int) {
	const producers, batches = 2, 2000
	// A small queue bound, so that backpressure merges batches: a merged
	// entry still holds each of its batches whole.
	st := New(core.NewPaged(n, shards, 2), Options{MaxQueue: 4})
	defer st.Close()
	starts := st.Partition().Starts
	// The marker sources: every shard's first vertex, which both producers
	// name; batch k of producer p inserts (src, marker(p, k)) from each, so a
	// producer's markers are the neighbours in its own ID window.
	base := max(n, starts[shards-1]+1)
	marker := func(p, k int) uint32 { return base + uint32(p*batches+k) }
	markers := func(v *View, u uint32, p int) []uint32 {
		ns := v.Neighbors(u)
		lo, _ := slices.BinarySearch(ns, marker(p, 0))
		hi, _ := slices.BinarySearch(ns, marker(p, batches))
		return ns[lo:hi]
	}
	// The last shard is open-ended: its boundary moves past n as far as this.
	room := n/4 + 2

	// check reads every producer's markers in v.
	check := func(v *View) error {
		next := uint64(0)
		for i, e := range v.e.shards {
			if uint64(e.lo) != next || e.hi <= next {
				return fmt.Errorf("epoch %d: shard %d covers [%d,%d) after a range ending at %d: the ranges do not tile", v.Epoch(), i, e.lo, e.hi, next)
			}
			next = e.hi
		}
		if next != openEnd {
			return fmt.Errorf("epoch %d: the last range ends at %d, not open-ended", v.Epoch(), next)
		}
		held := uint64(0)
		for p := 0; p < producers; p++ {
			first := markers(v, starts[0], p)
			for i, u := range starts[1:] {
				if got := markers(v, u, p); !slices.Equal(got, first) {
					return fmt.Errorf("epoch %d: producer %d has %d markers from shard %d and %d from shard 0: a batch is held in part",
						v.Epoch(), p, len(got), i+1, len(first))
				}
			}
			for k, d := range first {
				if d != marker(p, k) {
					return fmt.Errorf("epoch %d: producer %d's marker %d is %d, not its batch %d's", v.Epoch(), p, k, d, k)
				}
			}
			held += uint64(len(first))
		}
		if v.Epoch() != held {
			return fmt.Errorf("view at epoch %d holds %d batches", v.Epoch(), held)
		}
		return nil
	}

	var stop atomic.Bool
	var views atomic.Int64
	var bg sync.WaitGroup
	for r := 0; r < 2; r++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for !stop.Load() {
				v := st.View()
				err := check(v)
				v.Release()
				if err != nil {
					t.Error(err)
					return
				}
				views.Add(1)
			}
		}()
	}
	moves := 0
	bg.Add(1)
	go func() {
		defer bg.Done()
		for !stop.Load() {
			for k := 0; k+1 < shards; k++ {
				x, end := starts[k+1], starts[k+1]+room
				if k+2 < shards {
					end = starts[k+2]
				}
				for _, y := range []uint32{starts[k] + (x-starts[k])/2, x + (end-x)/2} {
					if y <= starts[k] || y >= end || y == x {
						continue // a one-vertex shard has no room on this side
					}
					for _, to := range []uint32{y, x} {
						if _, _, err := st.MoveBoundary(k, to); err != nil {
							t.Errorf("MoveBoundary(%d, %d): %v", k, to, err)
							return
						}
						moves++
					}
				}
			}
		}
	}()

	var producing sync.WaitGroup
	for p := 0; p < producers; p++ {
		producing.Add(1)
		go func(p int) {
			defer producing.Done()
			dst := make([]uint32, shards)
			for k := 0; k < batches; k++ {
				for i := range dst {
					dst[i] = marker(p, k)
				}
				st.InsertBatch(starts, dst)
			}
		}(p)
	}
	producing.Wait()
	st.Flush()
	for v0 := views.Load(); !t.Failed() && views.Load() < v0+2; {
		runtime.Gosched() // let the readers see the final state too
	}
	stop.Store(true)
	bg.Wait()
	if t.Failed() {
		return
	}
	if moves == 0 {
		t.Fatal("no boundary moved")
	}
	v := st.View()
	defer v.Release()
	if err := check(v); err != nil {
		t.Fatal(err)
	}
	if v.Epoch() != producers*batches {
		t.Fatalf("the flushed store holds %d batches, want %d", v.Epoch(), producers*batches)
	}
	if got := st.Partition().Starts; !slices.Equal(got, starts) {
		t.Fatalf("layout %v after every move was undone, want %v", got, starts)
	}
	if err := checkStoreInvariants(st); err != nil {
		t.Fatal(err)
	}
}
