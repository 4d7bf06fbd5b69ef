package algo

import (
	"math"
	"testing"

	"lsgraph/internal/aspen"
	"lsgraph/internal/core"
	"lsgraph/internal/engine"
	"lsgraph/internal/pactree"
	"lsgraph/internal/refgraph"
	"lsgraph/internal/serve"
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
// discrete kernels and PageRank (which sums each vertex's contributions in
// neighbor order, however the engine cuts them into blocks), to rounding
// for BC, and by reachability for BFS parents (CAS races may pick different
// parents).
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
		if got.pr[v] != want.pr[v] {
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
// depend on the storage layer or on how it cuts adjacency into blocks — and
// every engine's NeighborRange to keep its contract (engine.CheckRange).
func TestAnalyticsIdenticalAcrossEngines(t *testing.T) {
	const n = 600 // the edges span [0, 512): the rest have none
	src, dst := symmetricEdges(9, 31, 4000)
	ref := refgraph.New(n)
	for i := range src {
		ref.Insert(src[i], dst[i])
	}
	if err := engine.CheckRange(ref); err != nil {
		t.Fatalf("refgraph: %v", err)
	}
	want := runKernels(ref, 2)
	for _, e := range []engine.Engine{
		core.New(n, core.Config{Workers: 2}),
		core.New(n, core.Config{Workers: 2, ArrayMax: 8, M: 64, Shards: 3}),
		terrace.New(n, 2),
		aspen.New(n, 2),
		pactree.New(n, 2),
	} {
		e.InsertBatch(src, dst)
		if err := engine.CheckRange(e); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		requireSameResults(t, e.Name(), runKernels(e, 2), want)
	}
}

// TestPageRankExactAcrossReadPaths requires bit-identical PageRank, and the
// NeighborRange contract, on the live graph (its vertices cut into inline,
// array, RIA and HITree blocks), its Snapshot, a three-shard View of a Store
// holding the same edges, and that Store: a vertex's contributions are
// summed in neighbor order whatever the blocks, so no read path may round
// differently.
func TestPageRankExactAcrossReadPaths(t *testing.T) {
	const n = 512
	src, dst := symmetricEdges(9, 31, 4000)
	live := core.New(n, core.Config{Workers: 2, ArrayMax: 8, M: 64})
	live.InsertBatch(src, dst)
	offs, adj := live.Snapshot().CSR()
	paged := core.NewPaged(n, 3, 2)
	if err := paged.LoadCSR(0, offs, adj); err != nil {
		t.Fatal(err)
	}
	st := serve.New(paged, serve.Options{})
	defer st.Close()
	view := st.View()
	defer view.Release()
	for _, c := range []struct {
		name string
		g    engine.Graph
	}{{"snapshot", live.Snapshot()}, {"view", view}, {"store", st}} {
		if err := engine.CheckRange(c.g); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, p := range []int{1, 2, 4} {
			got, want := PageRank(c.g, 10, p), PageRank(live, 10, p)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s p=%d: rank %d is %v, live graph has %v", c.name, p, v, got[v], want[v])
				}
			}
		}
	}
}
