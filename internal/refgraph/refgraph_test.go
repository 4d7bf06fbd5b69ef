package refgraph

import (
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	g := New(10)
	if g.NumVertices() != 10 || g.NumEdges() != 0 {
		t.Fatal("bad init")
	}
	if !g.Insert(1, 5) || g.Insert(1, 5) {
		t.Fatal("insert semantics")
	}
	if !g.Has(1, 5) || g.Has(5, 1) {
		t.Fatal("has semantics")
	}
	if g.Degree(1) != 1 || g.NumEdges() != 1 {
		t.Fatal("degree/edges")
	}
	if !g.Delete(1, 5) || g.Delete(1, 5) {
		t.Fatal("delete semantics")
	}
	if g.NumEdges() != 0 {
		t.Fatal("edges after delete")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(4)
	for _, u := range []uint32{3, 1, 2, 0} {
		g.Insert(2, u)
	}
	ns := g.Neighbors(2)
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Fatalf("not sorted: %v", ns)
		}
	}
	var visited []uint32
	g.NeighborBlocks(2, func(b []uint32) bool { visited = append(visited, b...); return true })
	if len(visited) != 4 {
		t.Fatalf("NeighborBlocks visited %v", visited)
	}
	g.NeighborBlocks(3, func([]uint32) bool {
		t.Fatal("NeighborBlocks yielded for a vertex with no neighbors")
		return false
	})
}

func TestQuickInsertDeleteAgainstMap(t *testing.T) {
	// Model-based property test: the oracle must agree with a map of sets.
	type op struct {
		Ins  bool
		V, U uint8
	}
	f := func(ops []op) bool {
		g := New(256)
		model := map[[2]uint8]bool{}
		for _, o := range ops {
			k := [2]uint8{o.V, o.U}
			if o.Ins {
				g.Insert(uint32(o.V), uint32(o.U))
				model[k] = true
			} else {
				g.Delete(uint32(o.V), uint32(o.U))
				delete(model, k)
			}
		}
		n := 0
		for k := range model {
			if !g.Has(uint32(k[0]), uint32(k[1])) {
				return false
			}
			n++
		}
		return g.NumEdges() == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
