package algo

import (
	"testing"

	"lsgraph/internal/core"
	"lsgraph/internal/engine"
	"lsgraph/internal/serve"
)

// starGraph returns a default-config graph whose vertex 0 has deg
// ascending neighbors — deg ~2000 lands the overflow in an RIA, deg
// ~50000 in a HITree — plus the symmetric reverse edges.
func starGraph(deg int) *core.Graph {
	g := core.New(uint32(deg+1), core.Config{})
	src := make([]uint32, 0, 2*deg)
	dst := make([]uint32, 0, 2*deg)
	for u := 1; u <= deg; u++ {
		src = append(src, 0, uint32(u))
		dst = append(dst, uint32(u), 0)
	}
	g.InsertBatch(src, dst)
	return g
}

// BenchmarkNeighborIteration measures one full adjacency scan of a
// high-degree vertex through NeighborBlocks, in ns/edge.
func BenchmarkNeighborIteration(b *testing.B) {
	for _, tc := range []struct {
		name string
		deg  int
	}{
		{"ria2k", 2000},      // RIA overflow
		{"hitree50k", 50000}, // HITree overflow
	} {
		g := starGraph(tc.deg)
		b.Run(tc.name, func(b *testing.B) {
			var sink uint64
			b.SetBytes(int64(tc.deg) * 4)
			for i := 0; i < b.N; i++ {
				var acc uint64
				g.NeighborBlocks(0, func(bs []uint32) bool {
					var s uint64 // block-local: stays in a register
					for _, u := range bs {
						s += uint64(u)
					}
					acc += s
					return true
				})
				sink += acc
			}
			reportNsPerEdge(b, uint64(tc.deg))
			_ = sink
		})
	}
}

// reportNsPerEdge attaches an ns/edge metric (edges = per-iteration edge
// traversals) so kernel runs are comparable across datasets.
func reportNsPerEdge(b *testing.B, edgesPerOp uint64) {
	b.Helper()
	if b.N > 0 && edgesPerOp > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edgesPerOp), "ns/edge")
	}
}

// benchKernelGraph is the shared power-law dataset of the kernel
// benchmarks (seeded RMat, symmetrized, default engine config — the
// storage mix the paper's defaults produce, not the shrunken test
// thresholds).
func benchKernelGraph(b *testing.B) *core.Graph {
	b.Helper()
	return buildCoreCfg(1<<13, 13, 42, 1<<17, core.Config{})
}

// runKernelBench times fn, reporting ns/edge.
func runKernelBench(b *testing.B, edgesPerOp uint64, fn func()) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	reportNsPerEdge(b, edgesPerOp)
}

// kernelReaders are the read paths BenchmarkKernelPageRank and
// BenchmarkKernelBFS time: the live engine, and the same edges served — a
// two-shard paged graph behind a Store, read through a pinned View, as the
// serving stack's kernels read.
var kernelReaders = []struct {
	name  string
	build func(b *testing.B) engine.Graph
}{
	{"engine", func(b *testing.B) engine.Graph { return benchKernelGraph(b) }},
	{"view", func(b *testing.B) engine.Graph {
		offs, adj := benchKernelGraph(b).Snapshot().CSR()
		pg := core.NewPaged(uint32(len(offs)-1), 2, 0)
		if err := pg.LoadCSR(0, offs, adj); err != nil {
			b.Fatal(err)
		}
		st := serve.New(pg, serve.Options{})
		v := st.View()
		b.Cleanup(func() {
			v.Release()
			st.Close()
		})
		return v
	}},
}

func BenchmarkKernelPageRank(b *testing.B) {
	const iters = 5
	for _, r := range kernelReaders {
		b.Run(r.name, func(b *testing.B) {
			g := r.build(b)
			runKernelBench(b, iters*g.NumEdges(), func() {
				PageRank(g, iters, 0)
			})
		})
	}
}

func BenchmarkKernelBFS(b *testing.B) {
	for _, r := range kernelReaders {
		b.Run(r.name, func(b *testing.B) {
			g := r.build(b)
			runKernelBench(b, g.NumEdges(), func() {
				BFS(g, 0, 0)
			})
		})
	}
}

func BenchmarkKernelCC(b *testing.B) {
	g := benchKernelGraph(b)
	runKernelBench(b, g.NumEdges(), func() {
		CC(g, 0)
	})
}

func BenchmarkKernelKCore(b *testing.B) {
	g := benchKernelGraph(b)
	runKernelBench(b, g.NumEdges(), func() {
		KCore(g, 0)
	})
}

func BenchmarkKernelTC(b *testing.B) {
	g := benchKernelGraph(b)
	runKernelBench(b, g.NumEdges(), func() {
		TriangleCount(g, 0)
	})
}

// BenchmarkKernelTCMaterialize isolates TC's traversal phase (the
// "Traversal" column of Table 2): one bulk copy per block; the
// intersection phase reads the resulting CSR.
func BenchmarkKernelTCMaterialize(b *testing.B) {
	g := benchKernelGraph(b)
	runKernelBench(b, g.NumEdges(), func() {
		Materialize(g, 0)
	})
}
