package algo

import (
	"testing"

	"lsgraph/internal/engine"
	"lsgraph/internal/gen"
	"lsgraph/internal/refgraph"
)

// serialKCore is the textbook O(m log m)-ish peeling with a re-scan, for
// cross-checking.
func serialKCore(g engine.Graph) []uint32 {
	n := int(g.NumVertices())
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = int(g.Degree(uint32(v)))
	}
	core := make([]uint32, n)
	removed := make([]bool, n)
	for remaining := n; remaining > 0; {
		// Find the minimum-degree live vertex.
		minV, minD := -1, 1<<30
		for v := 0; v < n; v++ {
			if !removed[v] && deg[v] < minD {
				minV, minD = v, deg[v]
			}
		}
		core[minV] = uint32(minD)
		removed[minV] = true
		remaining--
		engine.ForEachNeighbor(g, uint32(minV), func(u uint32) {
			if !removed[u] && deg[u] > minD {
				deg[u]--
			}
		})
	}
	return core
}

func TestKCoreMatchesSerial(t *testing.T) {
	es := gen.NewRMatPaper(8, 17).Edges(1500)
	g := buildRef(256, es)
	want := serialKCore(g)
	got := KCore(g, 2)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("core[%d]=%d want %d", v, got[v], want[v])
		}
	}
}

func TestKCoreClique(t *testing.T) {
	// K6: every vertex has core number 5.
	g := refgraph.New(6)
	for v := uint32(0); v < 6; v++ {
		for u := uint32(0); u < 6; u++ {
			if v != u {
				g.Insert(v, u)
			}
		}
	}
	core := KCore(g, 1)
	for v, c := range core {
		if c != 5 {
			t.Fatalf("K6 core[%d]=%d want 5", v, c)
		}
	}
	if MaxCore(core) != 5 {
		t.Fatal("MaxCore")
	}
}

func TestKCorePathAndStar(t *testing.T) {
	// A path has degeneracy 1; a star has degeneracy 1 too.
	g := refgraph.New(8)
	for i := uint32(0); i < 3; i++ {
		g.Insert(i, i+1)
		g.Insert(i+1, i)
	}
	for u := uint32(5); u < 8; u++ {
		g.Insert(4, u)
		g.Insert(u, 4)
	}
	core := KCore(g, 1)
	for v, c := range core {
		if c > 1 {
			t.Fatalf("core[%d]=%d want <=1", v, c)
		}
	}
	_ = core
}

func TestKCoreEmptyAndIsolated(t *testing.T) {
	g := refgraph.New(4)
	core := KCore(g, 1)
	for v, c := range core {
		if c != 0 {
			t.Fatalf("isolated core[%d]=%d", v, c)
		}
	}
}
