package algo

import (
	"math"
	"testing"

	"lsgraph/internal/aspen"
	"lsgraph/internal/core"
	"lsgraph/internal/engine"
	"lsgraph/internal/gen"
	"lsgraph/internal/pactree"
	"lsgraph/internal/refgraph"
	"lsgraph/internal/terrace"
)

// kernelResults is one run of every kernel on one graph.
type kernelResults struct {
	parent []int32
	depth  []int32
	pr     []float64
	cc     []uint32
	bc     []float64
	tc     uint64
	kcore  []uint32
}

func runKernels(g engine.Graph, p int) kernelResults {
	return kernelResults{
		parent: BFS(g, 0, p),
		depth:  BFSLevels(g, 0, p),
		pr:     PageRank(g, 10, p),
		cc:     CC(g, p),
		bc:     BC(g, 0, p),
		tc:     TriangleCount(g, p).Triangles,
		kcore:  KCore(g, p),
	}
}

// requireSameResults fails unless got equals want: exactly for the
// discrete kernels, to rounding for the floating-point ones, and by
// reachability for BFS parents (CAS races may pick different parents).
func requireSameResults(t *testing.T, name string, got, want kernelResults) {
	t.Helper()
	for v := range want.depth {
		if got.depth[v] != want.depth[v] {
			t.Fatalf("%s: BFS depth differs at %d: %d vs %d", name, v, got.depth[v], want.depth[v])
		}
		if (got.parent[v] == NoParent) != (want.parent[v] == NoParent) {
			t.Fatalf("%s: BFS reachability differs at %d", name, v)
		}
		if got.cc[v] != want.cc[v] {
			t.Fatalf("%s: CC differs at %d", name, v)
		}
		if got.kcore[v] != want.kcore[v] {
			t.Fatalf("%s: k-core differs at %d", name, v)
		}
		if math.Abs(got.pr[v]-want.pr[v]) > 1e-12 {
			t.Fatalf("%s: PageRank differs at %d: %g vs %g", name, v, got.pr[v], want.pr[v])
		}
		if math.Abs(got.bc[v]-want.bc[v]) > 1e-9*(1+math.Abs(want.bc[v])) {
			t.Fatalf("%s: BC differs at %d: %g vs %g", name, v, got.bc[v], want.bc[v])
		}
	}
	if got.tc != want.tc {
		t.Fatalf("%s: TC %d vs %d", name, got.tc, want.tc)
	}
}

// TestAnalyticsIdenticalAcrossEngines loads the same symmetrized graph
// into all four engines and the refgraph oracle and requires every kernel
// to produce the oracle's results on each — analytics correctness must not
// depend on the storage layer or on how it cuts adjacency into blocks.
func TestAnalyticsIdenticalAcrossEngines(t *testing.T) {
	const n = 512
	es := gen.Symmetrize(gen.NewRMatPaper(9, 31).Edges(4000))
	src := make([]uint32, len(es))
	dst := make([]uint32, len(es))
	ref := refgraph.New(n)
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
		ref.Insert(e.Src, e.Dst)
	}
	want := runKernels(ref, 2)
	for _, e := range []engine.Engine{
		core.New(n, core.Config{Workers: 2}),
		terrace.New(n, 2),
		aspen.New(n, 2),
		pactree.New(n, 2),
	} {
		e.InsertBatch(src, dst)
		requireSameResults(t, e.Name(), runKernels(e, 2), want)
	}
}
