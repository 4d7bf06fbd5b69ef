package lsgraph

import (
	"testing"

	"lsgraph/internal/gen"
)

func TestEnsureVerticesPublic(t *testing.T) {
	g := New(2)
	g.EnsureVertices(50)
	if g.NumVertices() != 50 {
		t.Fatalf("NumVertices=%d", g.NumVertices())
	}
	g.InsertEdges([]Edge{{Src: 49, Dst: 1}})
	if !g.Has(49, 1) {
		t.Fatal("edge into grown slot missing")
	}
}

func TestDeleteVertexPublic(t *testing.T) {
	es := sym2([][2]uint32{{0, 1}, {1, 2}, {1, 3}})
	g := NewFromEdges(8, es)
	g.DeleteVertex(1)
	if g.Degree(1) != 0 || g.Has(0, 1) || g.Has(2, 1) || g.Has(3, 1) {
		t.Fatal("DeleteVertex left incident edges")
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges=%d", g.NumEdges())
	}
}

func TestSnapshotAnalytics(t *testing.T) {
	raw := gen.Symmetrize(gen.NewRMatPaper(9, 12).Edges(3000))
	es := make([]Edge, len(raw))
	for i, e := range raw {
		es[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	g := NewFromEdges(512, es)
	snap := g.Snapshot()
	// Mutate the live graph; snapshot BFS must equal a BFS taken before.
	before := BFSLevels(g, 0)
	g.InsertEdges([]Edge{{Src: 0, Dst: 511}, {Src: 511, Dst: 0}})
	depth := make([]int32, snap.NumVertices())
	for i := range depth {
		depth[i] = -1
	}
	// Direct serial BFS over the snapshot view.
	depth[0] = 0
	queue := []uint32{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range snap.Neighbors(v) {
			if depth[u] == -1 {
				depth[u] = depth[v] + 1
				queue = append(queue, u)
			}
		}
	}
	for v := range before {
		if depth[v] != before[v] {
			t.Fatalf("snapshot BFS differs at %d: %d vs %d", v, depth[v], before[v])
		}
	}
}

func sym2(pairs [][2]uint32) []Edge {
	var es []Edge
	for _, p := range pairs {
		es = append(es, Edge{Src: p[0], Dst: p[1]}, Edge{Src: p[1], Dst: p[0]})
	}
	return es
}
