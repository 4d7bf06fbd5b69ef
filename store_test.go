package lsgraph

import (
	"slices"
	"sync"
	"testing"
)

// TestViewPinAllocs: a pinned point read through the public API allocates
// the StoreView, which holds the view it pins, and nothing else.
func TestViewPinAllocs(t *testing.T) {
	es := symEdges(t, 10, 4000, 41)
	st := NewStore(1<<10, WithShards(2))
	defer st.Close()
	st.InsertEdges(es)
	st.Flush()
	var sink int
	if n := testing.AllocsPerRun(1000, func() {
		v := st.View()
		v.NeighborBlocks(es[0].Src, func(b []uint32) bool { sink += len(b); return true })
		v.Release()
	}); n > 1 {
		t.Errorf("a pinned point read allocates %v objects, want at most 1 (the StoreView)", n)
	}
	if sink == 0 {
		t.Error("the point reads found no neighbours")
	}
}

// pinTwo pins two StoreViews on one epoch of a loaded two-shard store with
// an idle writer.
func pinTwo(t *testing.T, st *Store) (a, b *StoreView) {
	t.Helper()
	a, b = st.View(), st.View()
	if a.Epoch() != b.Epoch() {
		t.Fatalf("A pinned epoch %d, B epoch %d: want one epoch", a.Epoch(), b.Epoch())
	}
	return a, b
}

// TestStoreViewReleaseTwiceKeepsOtherPins releases a StoreView twice while
// another pins the same epoch: the second release must be a no-op, so the
// other view's reads stay exact while the store publishes and recycles 128
// batches underneath it, and the released view's Epoch stays readable.
func TestStoreViewReleaseTwiceKeepsOtherPins(t *testing.T) {
	es := symEdges(t, 11, 8000, 43)
	st := NewStore(1<<11, WithShards(2))
	defer st.Close()
	st.InsertEdges(es[:len(es)/2])
	st.Flush()
	a, b := pinTwo(t, st)
	epoch := b.Epoch()
	want := make([][]uint32, b.NumVertices())
	for u := range want {
		want[u] = b.Neighbors(uint32(u))
	}
	a.Release()
	a.Release()
	rest := es[len(es)/2:]
	for i := 0; i < 64; i++ {
		part := rest[i*len(rest)/64 : (i+1)*len(rest)/64]
		st.InsertEdges(part)
		st.Flush()
		st.DeleteEdges(part)
		st.Flush()
	}
	for u := range want {
		if ns := b.Neighbors(uint32(u)); !slices.Equal(ns, want[u]) {
			t.Fatalf("vertex %d reads %v, read %v when pinned", u, ns, want[u])
		}
	}
	if a.Epoch() != epoch {
		t.Fatalf("A's Epoch after Release is %d, was %d", a.Epoch(), epoch)
	}
	b.Release()
	b.Release()
	if b.Epoch() != epoch {
		t.Fatalf("B's Epoch after Release is %d, was %d", b.Epoch(), epoch)
	}
}

// TestStoreViewReleaseFromTwoGoroutines releases one StoreView from two
// goroutines at once while another pins the same epoch. The epoch's refs
// must drop once: had they dropped twice, the next batch would retire an
// epoch with no refs left and the writer would reclaim the two shard
// snapshots the other view still reads.
func TestStoreViewReleaseFromTwoGoroutines(t *testing.T) {
	es := symEdges(t, 10, 4000, 47)
	st := NewStore(1<<10, WithShards(2))
	defer st.Close()
	st.InsertEdges(es[:len(es)/2])
	st.Flush()
	// batch touches both shards, so its epoch retires both of the pinned one's
	// snapshots.
	batch := []Edge{{Src: 0, Dst: 1<<10 - 1}, {Src: 1<<10 - 1, Dst: 0}}
	for round := 0; round < 16; round++ {
		a, b := pinTwo(t, st)
		reclaimed := st.Stats().SnapshotsReclaimed
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a.Release()
			}()
		}
		wg.Wait()
		st.InsertEdges(batch)
		st.Flush()
		if got := st.Stats().SnapshotsReclaimed; got != reclaimed {
			t.Fatalf("round %d: %d snapshots of the epoch B pins were reclaimed", round, got-reclaimed)
		}
		b.Release()
		st.DeleteEdges(batch)
		st.Flush()
		if st.Stats().SnapshotsReclaimed == reclaimed {
			t.Fatalf("round %d: no snapshot was reclaimed once B released", round)
		}
	}
}
