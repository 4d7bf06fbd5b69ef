package lsgraph

import (
	"slices"
	"testing"
)

// TestViewPinAllocs: a pinned point read through the public API allocates
// the StoreView handle and nothing else; the view behind it is pooled.
func TestViewPinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	es := symEdges(t, 10, 4000, 41)
	st := NewStore(1<<10, WithShards(2))
	defer st.Close()
	st.InsertEdges(es)
	st.Flush()
	st.View().Release()
	var sink int
	if n := testing.AllocsPerRun(1000, func() {
		v := st.View()
		v.NeighborBlocks(es[0].Src, func(b []uint32) bool { sink += len(b); return true })
		v.Release()
	}); n > 1 {
		t.Errorf("a pinned point read allocates %v objects, want at most 1 (the handle)", n)
	}
	if sink == 0 {
		t.Error("the point reads found no neighbours")
	}
}

// TestStoreViewReleaseTwiceAfterReuse releases a StoreView a second time
// after the pool has handed its view to a new StoreView: the second release
// must be a no-op, so the new handle's reads stay exact while the store
// publishes and recycles 128 batches underneath it.
func TestStoreViewReleaseTwiceAfterReuse(t *testing.T) {
	es := symEdges(t, 11, 8000, 43)
	st := NewStore(1<<11, WithShards(2))
	defer st.Close()
	st.InsertEdges(es[:len(es)/2])
	st.Flush()
	var a, b *StoreView
	for try := 0; ; try++ {
		if try == 100 {
			t.Fatal("the pool never handed a released view back")
		}
		a = st.View()
		a.Release()
		if b = st.View(); b.v == a.v {
			break
		}
		b.Release()
	}
	epoch := b.Epoch()
	want := make([][]uint32, b.NumVertices())
	for u := range want {
		want[u] = b.Neighbors(uint32(u))
	}
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
	b.Release()
	b.Release()
	if b.Epoch() != epoch {
		t.Fatalf("Epoch after Release is %d, was %d", b.Epoch(), epoch)
	}
}
