package serve

import (
	"slices"
	"testing"
)

// TestViewPinAllocs holds the pin to what the epoch protocol needs: a warm
// View and Release allocate nothing, the View coming from the pool.
func TestViewPinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	src, dst, _ := streamGraph(10, 4<<10, 1)
	st := New(pagedFromEdges(1<<10, src, dst, 2), Options{})
	defer st.Close()
	st.View().Release()
	if n := testing.AllocsPerRun(1000, func() { st.View().Release() }); n != 0 {
		t.Errorf("View+Release allocates %v objects, want 0", n)
	}
	var sink int
	if n := testing.AllocsPerRun(1000, func() {
		v := st.View()
		v.NeighborBlocks(src[0], func(b []uint32) bool { sink += len(b); return true })
		v.Release()
	}); n != 0 {
		t.Errorf("a pinned point read allocates %v objects, want 0", n)
	}
	if sink == 0 {
		t.Error("the point reads found no neighbours")
	}
}

// pinned returns every vertex's neighbours in v, copied.
func pinned(v *View) [][]uint32 {
	adj := make([][]uint32, v.NumVertices())
	for u := range adj {
		adj[u] = slices.Clone(v.Neighbors(uint32(u)))
	}
	return adj
}

// TestStoreViewReleaseTwiceAfterReuse releases a handle — a View and the
// generation it was taken at, as lsgraph.StoreView holds — a second time
// after the pool has handed its View to a new handle. The stale release
// must leave the new holder's pin alone: its epoch keeps refs 1, and its
// reads stay exact while the writer publishes 128 batches and recycles
// every retired snapshot and page it can.
func TestStoreViewReleaseTwiceAfterReuse(t *testing.T) {
	const scale, nb = 11, 64
	src, dst, batches := streamGraph(scale, 4<<scale, nb)
	st := New(pagedFromEdges(1<<scale, src, dst, 2), Options{})
	defer st.Close()
	type handle struct {
		v   *View
		gen uint64
	}
	pin := func() handle {
		v := st.View()
		return handle{v, v.Gen()}
	}
	var a, b handle
	for try := 0; ; try++ {
		if try == 100 {
			t.Fatal("the pool never handed a released View back")
		}
		a = pin()
		a.v.ReleaseGen(a.gen)
		if b = pin(); b.v == a.v {
			break
		}
		b.v.ReleaseGen(b.gen)
	}
	want, e := pinned(b.v), b.v.e
	a.v.ReleaseGen(a.gen)
	checkRefs := func(when string) {
		t.Helper()
		if r := e.refs.Load(); r != 1 {
			t.Fatalf("%s: epoch %d has refs %d, want 1", when, e.batches, r)
		}
	}
	checkRefs("after the stale release")
	reclaimed := st.Stats().SnapshotsReclaimed
	for _, bt := range batches {
		st.InsertBatch(bt[0], bt[1])
		st.Flush()
		st.DeleteBatch(bt[0], bt[1])
		st.Flush()
	}
	if st.Stats().SnapshotsReclaimed == reclaimed {
		t.Fatal("the writer reclaimed no snapshot")
	}
	checkRefs("after 128 batches")
	for u, ns := range pinned(b.v) {
		if !slices.Equal(ns, want[u]) {
			t.Fatalf("vertex %d reads %v, read %v when pinned", u, ns, want[u])
		}
	}
	b.v.ReleaseGen(b.gen)
	b.v.ReleaseGen(b.gen)
}
