package algo

import (
	"math"
	"testing"

	"lsgraph/internal/engine"
	"lsgraph/internal/gen"
	"lsgraph/internal/obs"
	"lsgraph/internal/refgraph"
)

// buildRef constructs a symmetrized oracle graph from edges.
func buildRef(n uint32, es []gen.Edge) *refgraph.Graph {
	g := refgraph.New(n)
	for _, e := range es {
		g.Insert(e.Src, e.Dst)
		g.Insert(e.Dst, e.Src)
	}
	return g
}

// serialBFSDepths is the obvious queue BFS for cross-checking.
func serialBFSDepths(g engine.Graph, src uint32) []int32 {
	n := int(g.NumVertices())
	d := make([]int32, n)
	for i := range d {
		d[i] = -1
	}
	d[src] = 0
	q := []uint32{src}
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		engine.ForEachNeighbor(g, v, func(u uint32) {
			if d[u] == -1 {
				d[u] = d[v] + 1
				q = append(q, u)
			}
		})
	}
	return d
}

func testGraph(t *testing.T) *refgraph.Graph {
	t.Helper()
	es := gen.NewRMatPaper(9, 5).Edges(4000)
	return buildRef(512, es)
}

func TestBFSMatchesSerial(t *testing.T) {
	g := testGraph(t)
	want := serialBFSDepths(g, 0)
	parent := BFS(g, 0, 4)
	for v := range parent {
		reached := parent[v] != NoParent
		if reached != (want[v] != -1) {
			t.Fatalf("vertex %d reachability mismatch", v)
		}
		if reached && v != 0 {
			// Parent must be exactly one level shallower.
			pu := parent[v]
			if want[pu] != want[v]-1 {
				t.Fatalf("vertex %d: parent %d at depth %d, v at %d",
					v, pu, want[pu], want[v])
			}
		}
	}
	depths := BFSLevels(g, 0, 4)
	for v := range depths {
		if depths[v] != want[v] {
			t.Fatalf("BFSLevels(%d)=%d want %d", v, depths[v], want[v])
		}
	}
}

// TestBFSLevelsBothDirections runs the one search on graphs picked for the
// direction their levels take, at 1, 2 and 4 workers: the depths must equal
// the serial queue BFS's, and every parent must sit one level above its
// child. The heuristic goes bottom-up when the frontier's degree total
// exceeds m/20, m counting directed edges.
func TestBFSLevelsBothDirections(t *testing.T) {
	// From its centre, a star's first frontier holds 63 of m = 126 edges,
	// and 63 > 126/20 = 6: level 1 goes bottom-up.
	var star []gen.Edge
	for u := uint32(1); u < 64; u++ {
		star = append(star, gen.Edge{Src: 0, Dst: u})
	}
	// A 200-vertex path has m = 2·199 = 398, so bottom-up needs a frontier
	// degree total above 398/20 = 19; from one end every frontier is one
	// vertex of degree at most 2, so every level goes top-down.
	var path []gen.Edge
	for v := uint32(1); v < 200; v++ {
		path = append(path, gen.Edge{Src: v - 1, Dst: v})
	}
	// n = 130 puts the bottom-up frontier bitmap's words to the test: it
	// has three, the last holding only 128 and 129. From 129, level 1
	// (frontier {129}, degree 33 > m/20 = 74/20 = 3) and level 2 (frontier
	// 0..30, 63 and 64, degree 35) go bottom-up; 100 and 101 find 63 and 64
	// in the bitmap, the last bit of word 0 and the first of word 1. 31
	// shares 63's bit under a 32-bit mask, so 102, whose only neighbour is
	// 31, would be claimed at level 2 instead of 4.
	var words []gen.Edge
	for _, u := range []uint32{63, 64} {
		words = append(words, gen.Edge{Src: 129, Dst: u})
	}
	for u := uint32(0); u < 31; u++ {
		words = append(words, gen.Edge{Src: 129, Dst: u})
	}
	words = append(words, gen.Edge{Src: 63, Dst: 100}, gen.Edge{Src: 64, Dst: 101},
		gen.Edge{Src: 100, Dst: 31}, gen.Edge{Src: 31, Dst: 102})
	for _, tc := range []struct {
		name string
		g    *refgraph.Graph
		src  uint32
	}{
		{"star", buildRef(64, star), 0},
		{"path", buildRef(200, path), 0},
		{"rmat", testGraph(t), 0},
		// Two components: from 0 the frontier's 1 edge exceeds 4/20 = 0,
		// so level 1 goes bottom-up and vertices 2 to 5 stay unreached.
		{"disconnected", buildRef(6, []gen.Edge{{Src: 0, Dst: 1}, {Src: 3, Dst: 4}}), 0},
		{"bitmap-words", buildRef(130, words), 129},
	} {
		want := serialBFSDepths(tc.g, tc.src)
		for _, p := range []int{1, 2, 4} {
			levels, parent := BFSLevels(tc.g, tc.src, p), BFS(tc.g, tc.src, p)
			for v := range want {
				if levels[v] != want[v] {
					t.Fatalf("%s p=%d: BFSLevels(%d)=%d want %d", tc.name, p, v, levels[v], want[v])
				}
				pu := parent[v]
				switch {
				case v == int(tc.src):
					if pu != int32(tc.src) {
						t.Fatalf("%s p=%d: source parent %d", tc.name, p, pu)
					}
				case want[v] == -1:
					if pu != NoParent {
						t.Fatalf("%s p=%d: unreached %d has parent %d", tc.name, p, v, pu)
					}
				case pu < 0 || int(pu) >= len(want) || want[pu] != want[v]-1:
					t.Fatalf("%s p=%d: vertex %d at depth %d has parent %d", tc.name, p, v, want[v], pu)
				}
			}
		}
	}
}

// TestTraversedEdgesExact checks the traversed-edge counters of the
// searches while metrics are on: every reached vertex sits in exactly one
// level's frontier, so BFS and BFSLevels count the degree sum of the
// reached vertices, and BC, whose backward sweep reads the same lists
// again, twice that. The star's level 1 goes bottom-up, so the degrees the
// bottom-up step sums are counted too.
func TestTraversedEdgesExact(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	var star []gen.Edge
	for u := uint32(1); u < 64; u++ {
		star = append(star, gen.Edge{Src: 0, Dst: u})
	}
	for _, tc := range []struct {
		name string
		g    *refgraph.Graph
	}{{"rmat", testGraph(t)}, {"star", buildRef(64, star)}} {
		var want uint64
		for v, d := range serialBFSDepths(tc.g, 0) {
			if d >= 0 {
				want += uint64(tc.g.Degree(uint32(v)))
			}
		}
		for _, p := range []int{1, 2, 4} {
			for _, k := range []struct {
				name string
				ob   kernelObs
				run  func()
				want uint64
			}{
				{"BFS", obsBFS, func() { BFS(tc.g, 0, p) }, want},
				{"BFSLevels", obsBFSLvl, func() { BFSLevels(tc.g, 0, p) }, want},
				{"BC", obsBC, func() { BC(tc.g, 0, p) }, 2 * want},
			} {
				before := k.ob.edges.Value()
				k.run()
				if got := k.ob.edges.Value() - before; got != k.want {
					t.Fatalf("%s %s p=%d: counted %d traversed edges, want %d", tc.name, k.name, p, got, k.want)
				}
			}
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := refgraph.New(6)
	g.Insert(0, 1)
	g.Insert(1, 0)
	g.Insert(3, 4)
	g.Insert(4, 3)
	parent := BFS(g, 0, 2)
	if parent[1] != 0 || parent[3] != NoParent || parent[5] != NoParent {
		t.Fatalf("disconnected BFS wrong: %v", parent)
	}
}

// serialBC is a direct single-threaded Brandes implementation.
func serialBC(g engine.Graph, src uint32) []float64 {
	n := int(g.NumVertices())
	sigma := make([]float64, n)
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	sigma[src] = 1
	depth[src] = 0
	var order []uint32
	q := []uint32{src}
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		order = append(order, v)
		engine.ForEachNeighbor(g, v, func(u uint32) {
			if depth[u] == -1 {
				depth[u] = depth[v] + 1
				q = append(q, u)
			}
			if depth[u] == depth[v]+1 {
				sigma[u] += sigma[v]
			}
		})
	}
	delta := make([]float64, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		engine.ForEachNeighbor(g, v, func(u uint32) {
			if depth[u] == depth[v]+1 && sigma[u] > 0 {
				delta[v] += sigma[v] / sigma[u] * (1 + delta[u])
			}
		})
	}
	delta[src] = 0
	return delta
}

func TestBCMatchesSerial(t *testing.T) {
	g := testGraph(t)
	want := serialBC(g, 0)
	got := BC(g, 0, 4)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-6*(1+math.Abs(want[v])) {
			t.Fatalf("BC[%d]=%g want %g", v, got[v], want[v])
		}
	}
}

func TestBCPath(t *testing.T) {
	// Path 0-1-2-3: delta(1) counts pairs through it = 2 (0->2, 0->3),
	// delta(2) = 1 (0->3) when sourced at 0... Brandes dependency of v for
	// source s: sum over t of sigma_st(v)/sigma_st. For a path from 0:
	// delta(1)=2, delta(2)=1, delta(3)=0.
	g := refgraph.New(4)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 3}} {
		g.Insert(e[0], e[1])
		g.Insert(e[1], e[0])
	}
	got := BC(g, 0, 1)
	want := []float64{0, 2, 1, 0}
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("path BC[%d]=%g want %g", v, got[v], want[v])
		}
	}
}

func serialPageRank(g engine.Graph, iters int) []float64 {
	n := int(g.NumVertices())
	rank := make([]float64, n)
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	for it := 0; it < iters; it++ {
		contrib := make([]float64, n)
		var dangling float64
		for v := 0; v < n; v++ {
			if d := g.Degree(uint32(v)); d > 0 {
				contrib[v] = rank[v] / float64(d)
			} else {
				dangling += rank[v]
			}
		}
		base := (1-PageRankDamping)*inv + PageRankDamping*dangling*inv
		next := make([]float64, n)
		for v := 0; v < n; v++ {
			var acc float64
			engine.ForEachNeighbor(g, uint32(v), func(u uint32) { acc += contrib[u] })
			next[v] = base + PageRankDamping*acc
		}
		rank = next
	}
	return rank
}

func TestPageRankMatchesSerial(t *testing.T) {
	g := testGraph(t)
	want := serialPageRank(g, 10)
	got := PageRank(g, 10, 4)
	var sum float64
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("PR[%d]=%g want %g", v, got[v], want[v])
		}
		sum += got[v]
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %g, want 1", sum)
	}
}

func TestCCMatchesUnionFind(t *testing.T) {
	es := gen.NewRMatPaper(9, 8).Edges(2000)
	g := buildRef(512, es)
	comp := CC(g, 4)
	// Union-find oracle.
	uf := make([]uint32, 512)
	for i := range uf {
		uf[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	for _, e := range es {
		a, b := find(e.Src), find(e.Dst)
		if a != b {
			uf[a] = b
		}
	}
	// Same partition: comp labels equal iff union-find roots equal.
	type pair struct{ c, r uint32 }
	seen := map[pair]bool{}
	c2r := map[uint32]uint32{}
	r2c := map[uint32]uint32{}
	for v := uint32(0); v < 512; v++ {
		r := find(v)
		seen[pair{comp[v], r}] = true
		if old, ok := c2r[comp[v]]; ok && old != r {
			t.Fatalf("component %d spans union-find roots %d and %d", comp[v], old, r)
		}
		c2r[comp[v]] = r
		if old, ok := r2c[r]; ok && old != comp[v] {
			t.Fatalf("union-find root %d split into components %d and %d", r, old, comp[v])
		}
		r2c[r] = comp[v]
	}
	_ = seen
}

func TestCCLabelIsMinID(t *testing.T) {
	g := refgraph.New(5)
	for _, e := range [][2]uint32{{4, 2}, {2, 4}, {2, 1}, {1, 2}} {
		g.Insert(e[0], e[1])
	}
	comp := CC(g, 1)
	if comp[1] != 1 || comp[2] != 1 || comp[4] != 1 || comp[0] != 0 || comp[3] != 3 {
		t.Fatalf("CC labels: %v", comp)
	}
}

func serialTriangles(g engine.Graph) uint64 {
	n := int(g.NumVertices())
	var count uint64
	for v := 0; v < n; v++ {
		nv := engine.Neighbors(g, uint32(v))
		for _, u := range nv {
			if u <= uint32(v) {
				continue
			}
			nu := engine.Neighbors(g, u)
			// Count common neighbors > u.
			i, j := 0, 0
			for i < len(nv) && j < len(nu) {
				a, b := nv[i], nu[j]
				switch {
				case a < b:
					i++
				case a > b:
					j++
				default:
					if a > u {
						count++
					}
					i++
					j++
				}
			}
		}
	}
	return count
}

func TestTriangleCountMatchesSerial(t *testing.T) {
	g := testGraph(t)
	want := serialTriangles(g)
	res := TriangleCount(g, 4)
	if res.Triangles != want {
		t.Fatalf("TC=%d want %d", res.Triangles, want)
	}
	if want == 0 {
		t.Fatal("test graph should contain triangles")
	}
	if res.Total < res.Traversal {
		t.Fatal("total time below traversal time")
	}
}

func TestTriangleCountKnownClique(t *testing.T) {
	// K5 has C(5,3) = 10 triangles.
	g := refgraph.New(5)
	for v := uint32(0); v < 5; v++ {
		for u := uint32(0); u < 5; u++ {
			if v != u {
				g.Insert(v, u)
			}
		}
	}
	if res := TriangleCount(g, 2); res.Triangles != 10 {
		t.Fatalf("K5 triangles = %d, want 10", res.Triangles)
	}
}

func TestMaterialize(t *testing.T) {
	g := refgraph.New(3)
	g.Insert(0, 2)
	g.Insert(0, 1)
	g.Insert(2, 0)
	offs, adj := Materialize(g, 2)
	if offs[0] != 0 || offs[1] != 2 || offs[2] != 2 || offs[3] != 3 {
		t.Fatalf("offsets %v", offs)
	}
	if adj[0] != 1 || adj[1] != 2 || adj[2] != 0 {
		t.Fatalf("adj %v", adj)
	}
}

func TestUpperBound(t *testing.T) {
	s := []uint32{1, 3, 3, 7}
	for _, tc := range []struct{ x, want uint32 }{{0, 0}, {1, 1}, {3, 3}, {7, 4}, {9, 4}} {
		if got := upperBound(s, tc.x); got != int(tc.want) {
			t.Fatalf("upperBound(%d)=%d want %d", tc.x, got, tc.want)
		}
	}
}
