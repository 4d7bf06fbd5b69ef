package lsgraph

import (
	"sync/atomic"
	"testing"

	"lsgraph/internal/engine"
	"lsgraph/internal/gen"
)

func symEdges(t *testing.T, scale uint, m int, seed uint64) []Edge {
	t.Helper()
	raw := gen.NewRMatPaper(scale, seed).Edges(m)
	sym := gen.Symmetrize(raw)
	out := make([]Edge, len(sym))
	for i, e := range sym {
		out[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	return out
}

func TestPublicAPIRoundTrip(t *testing.T) {
	es := symEdges(t, 9, 3000, 11)
	g := NewFromEdges(512, es, WithAlpha(1.2), WithM(256), WithWorkers(4))
	if g.NumVertices() != 512 {
		t.Fatal("NumVertices")
	}
	if g.NumEdges() != uint64(len(es)) {
		t.Fatalf("NumEdges=%d want %d", g.NumEdges(), len(es))
	}
	for _, e := range es[:100] {
		if !g.Has(e.Src, e.Dst) {
			t.Fatalf("missing edge %v", e)
		}
	}
	// Degree must equal neighbor count and neighbors must be sorted.
	for v := uint32(0); v < 512; v++ {
		ns := g.Neighbors(v)
		if uint32(len(ns)) != g.Degree(v) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := 1; i < len(ns); i++ {
			if ns[i-1] >= ns[i] {
				t.Fatalf("unsorted neighbors at %d", v)
			}
		}
	}
	g.DeleteEdges(es)
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges=%d after deleting all", g.NumEdges())
	}
}

// TestReadersKeepRangeContract runs engine.CheckRange over every public
// Reader: a Graph, its Snapshot, a sharded Store and a view of it, each
// with vertices that have no edges.
func TestReadersKeepRangeContract(t *testing.T) {
	es := symEdges(t, 8, 1500, 3)
	g := New(300)
	g.InsertEdges(es)
	st := NewStore(300, WithShards(3))
	defer st.Close()
	src, dst := make([]uint32, len(es)), make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	st.InsertBatch(src, dst)
	st.Flush()
	view := st.View()
	defer view.Release()
	for name, r := range map[string]Reader{"graph": g, "snapshot": g.Snapshot(), "store": st, "view": view} {
		if err := engine.CheckRange(r); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestAlgorithmsRunViaFacade(t *testing.T) {
	es := symEdges(t, 9, 4000, 3)
	g := NewFromEdges(512, es)
	parent := BFS(g, 0)
	if parent[0] != 0 {
		t.Fatal("BFS source parent")
	}
	depth := BFSLevels(g, 0)
	if depth[0] != 0 {
		t.Fatal("BFSLevels source depth")
	}
	bc := BC(g, 0)
	if len(bc) != 512 {
		t.Fatal("BC length")
	}
	pr := PageRank(g, 5)
	var sum float64
	for _, r := range pr {
		sum += r
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("PageRank sum %g", sum)
	}
	cc := ConnectedComponents(g)
	for v, c := range cc {
		if c > uint32(v) {
			t.Fatalf("component label %d above vertex %d", c, v)
		}
	}
	tri, trav, total := TriangleCount(g)
	if tri == 0 {
		t.Fatal("expected triangles in rMat graph")
	}
	if total < trav {
		t.Fatal("TC timing inconsistent")
	}
}

func TestEdgeMapBFS(t *testing.T) {
	// A BFS built from the public EdgeMap primitive must agree with the
	// built-in BFS on reachability.
	es := symEdges(t, 8, 1500, 9)
	g := NewFromEdges(256, es)
	n := g.NumVertices()
	depth := make([]atomic.Int32, n) // EdgeMap calls cond and update from its workers
	for i := range depth {
		depth[i].Store(-1)
	}
	depth[0].Store(0)
	frontier := NewVertexSubset(n, 0)
	level := int32(0)
	for !frontier.IsEmpty() {
		level++
		lv := level
		frontier = EdgeMap(g, frontier,
			func(u uint32) bool { return depth[u].Load() == -1 },
			func(v, u uint32) bool { return depth[u].CompareAndSwap(-1, lv) })
	}
	want := BFSLevels(g, 0)
	for v := range want {
		if (want[v] == -1) != (depth[v].Load() == -1) {
			t.Fatalf("EdgeMap BFS reachability differs at %d", v)
		}
	}
}

func TestVertexMapAndSubset(t *testing.T) {
	s := NewVertexSubset(10, 1, 3, 5, 7)
	if s.Len() != 4 || s.IsEmpty() {
		t.Fatal("subset basics")
	}
	if !s.Contains(3) || s.Contains(2) {
		t.Fatal("Contains")
	}
	even := VertexMap(s, func(v uint32) bool { return v%2 == 1 && v < 6 })
	if even.Len() != 3 {
		t.Fatalf("VertexMap kept %d", even.Len())
	}
}

func TestMemoryReporting(t *testing.T) {
	es := symEdges(t, 10, 20000, 5)
	g := NewFromEdges(1024, es)
	if g.MemoryUsage() == 0 || g.IndexMemory() == 0 {
		t.Fatal("memory reporting zero")
	}
	if g.IndexMemory() >= g.MemoryUsage() {
		t.Fatal("index exceeds total memory")
	}
	if g.Engine() == nil {
		t.Fatal("Engine() nil")
	}
}
