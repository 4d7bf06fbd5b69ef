package serve

import (
	"slices"
	"testing"
)

// TestViewPinAllocs holds the pin to what the epoch protocol needs: a
// View pinned into the caller's memory, a point read through it and its
// Release allocate nothing, and neither do the Store's own reads, which
// each pin a View on their stack.
func TestViewPinAllocs(t *testing.T) {
	src, dst, _ := streamGraph(10, 4<<10, 1)
	st := New(pagedFromEdges(1<<10, src, dst, 2), Options{})
	defer st.Close()
	var sink int
	count := func(block []uint32) bool { sink += len(block); return true }
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Pin+Release", func() {
			var v View
			st.Pin(&v)
			v.Release()
		}},
		{"a pinned point read", func() {
			var v View
			st.Pin(&v)
			v.NeighborBlocks(src[0], count)
			v.Release()
		}},
		{"Store.Degree", func() { sink += int(st.Degree(src[0])) }},
		{"Store.NeighborBlocks", func() { st.NeighborBlocks(src[0], count) }},
		{"Store.NeighborRange", func() {
			st.NeighborRange(src[0], src[0]+4, func(_ uint32, b []uint32) bool { return count(b) })
		}},
	} {
		if n := testing.AllocsPerRun(1000, c.f); n != 0 {
			t.Errorf("%s allocates %v objects, want 0", c.name, n)
		}
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

// TestViewReleaseTwiceKeepsOtherPins releases a View twice while another
// View pins the same epoch. The second release must be a no-op: the epoch
// keeps refs 1, and the other View's reads stay exact while the writer
// publishes 128 batches and recycles every retired snapshot and page it
// can. The released View's Epoch stays readable.
func TestViewReleaseTwiceKeepsOtherPins(t *testing.T) {
	const scale, nb = 11, 64
	src, dst, batches := streamGraph(scale, 4<<scale, nb)
	st := New(pagedFromEdges(1<<scale, src, dst, 2), Options{})
	defer st.Close()
	var a, b View
	st.Pin(&a)
	st.Pin(&b)
	e := b.e
	if a.e != e {
		t.Fatalf("A pinned epoch %d, B epoch %d: want one epoch", a.Epoch(), b.Epoch())
	}
	want := pinned(&b)
	a.Release()
	a.Release()
	checkRefs := func(when string) {
		t.Helper()
		if r := e.refs.Load(); r != 1 {
			t.Fatalf("%s: epoch %d has refs %d, want 1", when, e.batches, r)
		}
	}
	checkRefs("after the second release")
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
	for u, ns := range pinned(&b) {
		if !slices.Equal(ns, want[u]) {
			t.Fatalf("vertex %d reads %v, read %v when pinned", u, ns, want[u])
		}
	}
	if a.Epoch() != e.batches {
		t.Fatalf("A's Epoch after Release is %d, want %d", a.Epoch(), e.batches)
	}
	b.Release()
	b.Release()
	if r := e.refs.Load(); r != 0 {
		t.Fatalf("after B's releases the epoch has refs %d, want 0", r)
	}
}
