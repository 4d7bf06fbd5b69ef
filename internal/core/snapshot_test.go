package core

import (
	"testing"

	"lsgraph/internal/gen"
)

func TestSnapshotIsImmutableView(t *testing.T) {
	g := New(1<<10, Config{Workers: 2})
	es := gen.Symmetrize(gen.NewRMatPaper(10, 4).Edges(5000))
	src := make([]uint32, len(es))
	dst := make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	g.InsertBatch(src, dst)
	snap := g.Snapshot()
	if snap.NumVertices() != g.NumVertices() || snap.NumEdges() != g.NumEdges() {
		t.Fatal("snapshot header mismatch")
	}
	// Snapshot must agree with the live graph now...
	for v := uint32(0); v < g.NumVertices(); v++ {
		want := g.AppendNeighbors(v, nil)
		got := snap.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("vertex %d degree mismatch", v)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vertex %d neighbor mismatch", v)
			}
		}
	}
	// ...and stay frozen after the live graph changes.
	before := append([]uint32(nil), snap.Neighbors(1)...)
	edges, degree := snap.NumEdges(), snap.Degree(1)
	more := gen.Symmetrize(gen.NewRMatPaper(10, 5).Edges(3000))
	src = src[:0]
	dst = dst[:0]
	for _, e := range more {
		src = append(src, e.Src)
		dst = append(dst, e.Dst)
	}
	g.InsertBatch(src, dst)
	if snap.NumEdges() != edges || snap.Degree(1) != degree {
		t.Fatal("snapshot changed after update")
	}
	after := snap.Neighbors(1)
	for i := range before {
		if after[i] != before[i] {
			t.Fatal("snapshot contents changed after update")
		}
	}
	// The block walk yields the frozen run whole.
	seen := 0
	snap.NeighborBlocks(1, func(b []uint32) bool { seen += len(b); return false })
	if seen != int(degree) {
		t.Fatalf("NeighborBlocks yielded %d of %d neighbors in its one block", seen, degree)
	}
}

// TestSnapshotIntoReuse checks that the reuse path produces the same view
// as a fresh Snapshot and that steady-state republishing (same-or-smaller
// graph into a warm snapshot) allocates nothing.
func TestSnapshotIntoReuse(t *testing.T) {
	g := New(1<<10, Config{Workers: 1})
	es := gen.Symmetrize(gen.NewRMatPaper(10, 7).Edges(4000))
	src := make([]uint32, len(es))
	dst := make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	g.InsertBatch(src, dst)

	want := g.Snapshot()
	reuse := g.Snapshot() // warm buffers to overwrite
	got := g.SnapshotInto(reuse)
	if got != reuse {
		t.Fatal("SnapshotInto did not return the reused snapshot")
	}
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("reused snapshot header mismatch: %d/%d vs %d/%d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := uint32(0); v < want.NumVertices(); v++ {
		a, b := want.Neighbors(v), got.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree mismatch", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d neighbor mismatch", v)
			}
		}
	}

	// Steady state: flattening into warm buffers must not allocate any
	// data buffers. A fixed handful of closure headers from the
	// parallel-for plumbing is allowed; anything growing with the graph
	// (the fresh-Snapshot path allocates thousands here) is a regression.
	if allocs := testing.AllocsPerRun(10, func() { g.SnapshotInto(reuse) }); allocs > 4 {
		t.Fatalf("SnapshotInto allocated %.0f objects per run in steady state", allocs)
	}

	// SnapshotInto(nil) is Snapshot.
	fresh := g.SnapshotInto(nil)
	if fresh.NumEdges() != want.NumEdges() {
		t.Fatal("SnapshotInto(nil) mismatch")
	}
}

// TestSnapshotEdgeCountOnPageBoundary reads every vertex of plain-CSR
// snapshots whose edge count is an exact multiple of the directory's page
// size and whose last vertices are isolated: their runs start at the array's
// end, one directory slot past the last.
func TestSnapshotEdgeCountOnPageBoundary(t *testing.T) {
	for _, pages := range []int{1, 2} {
		const n = 1 << 9
		g := New(n, Config{Workers: 2})
		var src, dst []uint32
		for e := 0; e < pages*pageSize; e++ { // vertices n-3.. stay isolated
			src, dst = append(src, uint32(e%(n-3))), append(dst, uint32(e/(n-3)))
		}
		g.InsertBatch(src, dst)
		if g.NumEdges() != uint64(pages*pageSize) {
			t.Fatalf("built %d edges, want %d", g.NumEdges(), pages*pageSize)
		}
		for name, s := range map[string]*Snapshot{"graph": g.Snapshot(), "shard": g.Shard(0).SnapshotInto(nil)} {
			var m uint64
			for v := uint32(0); v < s.NumVertices(); v++ {
				ns := s.Neighbors(v)
				s.NeighborBlocks(v, func(b []uint32) bool { m += uint64(len(b)); return true })
				if len(ns) != int(s.Degree(v)) {
					t.Fatalf("%s snapshot, %d pages: vertex %d reads %d of %d neighbors", name, pages, v, len(ns), s.Degree(v))
				}
			}
			if m != s.NumEdges() || s.Degree(s.NumVertices()-1) != 0 {
				t.Fatalf("%s snapshot, %d pages: swept %d of %d edges, last degree %d", name, pages, m, s.NumEdges(), s.Degree(s.NumVertices()-1))
			}
		}
	}
}

func TestDeleteVertex(t *testing.T) {
	g := New(64, Config{})
	// Symmetric star around 5 plus a side edge.
	var src, dst []uint32
	for _, u := range []uint32{1, 2, 3, 60} {
		src = append(src, 5, u)
		dst = append(dst, u, 5)
	}
	src = append(src, 1, 2)
	dst = append(dst, 2, 1)
	g.InsertBatch(src, dst)
	g.DeleteVertex(5)
	if g.Degree(5) != 0 {
		t.Fatalf("degree(5)=%d", g.Degree(5))
	}
	for _, u := range []uint32{1, 2, 3, 60} {
		if g.Has(u, 5) {
			t.Fatalf("reverse edge (%d,5) survived", u)
		}
	}
	if !g.Has(1, 2) || !g.Has(2, 1) || g.NumEdges() != 2 {
		t.Fatalf("side edge lost; m=%d", g.NumEdges())
	}
	// Deleting an isolated vertex is a no-op.
	g.DeleteVertex(5)
	if g.NumEdges() != 2 {
		t.Fatal("second DeleteVertex changed the graph")
	}
}
