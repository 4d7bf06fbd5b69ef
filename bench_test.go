// Benchmarks mapping one testing.B to every table and figure of the
// paper's evaluation (see DESIGN.md's experiment index). These run the same
// workloads as cmd/lsbench at a reduced scale; custom metrics report the
// quantity each figure plots (edges/s for the update figures, ns/op for
// the analytics ones, bytes for Table 3).
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// or at paper-trend scale with:
//
//	go run ./cmd/lsbench
package lsgraph

import (
	"fmt"
	"testing"

	"lsgraph/internal/algo"
	"lsgraph/internal/bench"
	"lsgraph/internal/core"
	"lsgraph/internal/engine"
	"lsgraph/internal/terrace"
)

// benchScale keeps -bench runs in tens of seconds.
func benchScale() bench.Scale {
	return bench.Scale{Base: 11, BatchSizes: []int{1_000, 10_000, 100_000}, Trials: 1}
}

// insertThroughput measures one insert+delete cycle of batch size b,
// reporting edges/s.
func insertThroughput(b *testing.B, e engine.Engine, d *bench.Dataset, size int) {
	b.ReportAllocs()
	var inserted int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		src, dst := d.UpdateBatch(size, i)
		b.StartTimer()
		e.InsertBatch(src, dst)
		b.StopTimer()
		e.DeleteBatch(src, dst)
		b.StartTimer()
		inserted += size
	}
	b.ReportMetric(float64(inserted)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkFig03Motivation reproduces Figure 3: Terrace-vs-Aspen BFS and
// insertion throughput, the gap motivating LSGraph.
func BenchmarkFig03Motivation(b *testing.B) {
	s := benchScale()
	d, _ := bench.MakeDataset("OR-sim", s)
	for _, name := range []string{"Terrace", "Aspen"} {
		e := bench.Loaded(name, d, 0)
		b.Run("BFS/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algo.BFS(e, 0, 0)
			}
		})
		b.Run("Insert100k/"+name, func(b *testing.B) {
			insertThroughput(b, e, d, 100_000)
		})
	}
}

// BenchmarkFig04PMAShare reproduces Figure 4: the dominance of PMA search
// and movement inside Terrace's single-threaded update path.
func BenchmarkFig04PMAShare(b *testing.B) {
	s := benchScale()
	d, _ := bench.MakeDataset("LJ-sim", s)
	g := terrace.New(d.N, 1)
	g.Instrument = true
	src, dst := bench.Split(d.Edges)
	g.InsertBatch(src, dst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs, bd := d.UpdateBatch(50_000, i)
		g.InsertBatch(bs, bd)
		b.StopTimer()
		g.DeleteBatch(bs, bd)
		b.StartTimer()
	}
	st := g.PMAStats()
	b.ReportMetric(float64(g.Stats.PMANanos.Load())/float64(g.Stats.UpdateNanos.Load()), "pma-share")
	b.ReportMetric(float64(st.SearchProbes)/float64(st.SearchProbes+st.Moved), "search-frac")
}

// BenchmarkFig12InsertThroughput reproduces Figure 12: insertion
// throughput of all four systems across batch sizes (LJ and OR stand-ins;
// run cmd/lsbench for all five graphs).
func BenchmarkFig12InsertThroughput(b *testing.B) {
	s := benchScale()
	for _, d := range bench.SmallDatasets(s) {
		for _, size := range s.BatchSizes {
			for _, name := range bench.EngineNames {
				e := bench.Loaded(name, d, 0)
				b.Run(fmt.Sprintf("%s/batch%d/%s", d.Name, size, name), func(b *testing.B) {
					insertThroughput(b, e, d, size)
				})
			}
		}
	}
}

// BenchmarkDeleteThroughput reproduces §6.2's deletion comparison.
func BenchmarkDeleteThroughput(b *testing.B) {
	s := benchScale()
	d, _ := bench.MakeDataset("LJ-sim", s)
	const size = 100_000
	for _, name := range bench.EngineNames {
		e := bench.Loaded(name, d, 0)
		b.Run(name, func(b *testing.B) {
			var deleted int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				src, dst := d.UpdateBatch(size, i)
				e.InsertBatch(src, dst)
				b.StartTimer()
				e.DeleteBatch(src, dst)
				deleted += size
			}
			b.ReportMetric(float64(deleted)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// BenchmarkSmallBatch reproduces §6.2's batch-size-10 comparison.
func BenchmarkSmallBatch(b *testing.B) {
	s := benchScale()
	d, _ := bench.MakeDataset("LJ-sim", s)
	for _, name := range bench.EngineNames {
		e := bench.Loaded(name, d, 0)
		b.Run(name, func(b *testing.B) {
			insertThroughput(b, e, d, 10)
		})
	}
}

// BenchmarkAblation reproduces §6.2's component analysis: LSGraph against
// its PMA-for-RIA, RIA-only, and binary-search variants.
func BenchmarkAblation(b *testing.B) {
	s := benchScale()
	d, _ := bench.MakeDataset("OR-sim", s)
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"LSGraph", core.Config{}},
		{"PMA-for-RIA", core.Config{Overflow: core.KindPMA}},
		{"RIA-only", core.Config{Overflow: core.KindRIAOnly}},
		{"BinarySearch", core.Config{DisableModel: true}},
	}
	for _, v := range variants {
		g := core.New(d.N, v.cfg)
		src, dst := bench.Split(d.Edges)
		g.InsertBatch(src, dst)
		b.Run(v.name, func(b *testing.B) {
			insertThroughput(b, g, d, 100_000)
		})
	}
}

// BenchmarkFig13Analytics reproduces Figure 13: BFS and BC across all four
// systems.
func BenchmarkFig13Analytics(b *testing.B) {
	s := benchScale()
	d, _ := bench.MakeDataset("LJ-sim", s)
	for _, name := range bench.EngineNames {
		e := bench.Loaded(name, d, 0)
		b.Run("BFS/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algo.BFS(e, 0, 0)
			}
		})
		b.Run("BC/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algo.BC(e, 0, 0)
			}
		})
	}
}

// BenchmarkTable2 reproduces Table 2: PR, CC, and TC on LSGraph and
// Terrace.
func BenchmarkTable2(b *testing.B) {
	s := benchScale()
	d, _ := bench.MakeDataset("LJ-sim", s)
	for _, name := range []string{"LSGraph", "Terrace"} {
		e := bench.Loaded(name, d, 0)
		b.Run("PR/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algo.PageRank(e, 10, 0)
			}
		})
		b.Run("CC/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algo.CC(e, 0)
			}
		})
		b.Run("TC/"+name, func(b *testing.B) {
			var travFrac float64
			for i := 0; i < b.N; i++ {
				r := algo.TriangleCount(e, 0)
				travFrac = r.Traversal.Seconds() / r.Total.Seconds()
			}
			b.ReportMetric(travFrac, "traversal-frac")
		})
	}
}

// BenchmarkTable3Memory reproduces Table 3: loaded-graph memory footprint
// per system, plus LSGraph's index overhead, reported as custom metrics.
func BenchmarkTable3Memory(b *testing.B) {
	s := benchScale()
	d, _ := bench.MakeDataset("LJ-sim", s)
	for _, name := range bench.EngineNames {
		b.Run(name, func(b *testing.B) {
			var mem, idx uint64
			for i := 0; i < b.N; i++ {
				e := bench.Loaded(name, d, 0)
				mem = e.MemoryUsage()
				if g, ok := e.(*core.Graph); ok {
					idx = g.IndexMemory()
				}
			}
			b.ReportMetric(float64(mem), "bytes")
			if idx > 0 {
				b.ReportMetric(float64(idx)/float64(mem), "index-frac")
			}
		})
	}
}

// BenchmarkFig14Sensitivity reproduces Figure 14: insertion time across
// the α grid (M fixed to the default at this scale).
func BenchmarkFig14Sensitivity(b *testing.B) {
	s := benchScale()
	d, _ := bench.MakeDataset("LJ-sim", s)
	for _, alpha := range []float64{1.1, 1.2, 1.5, 2.0} {
		g := core.New(d.N, core.Config{Alpha: alpha})
		src, dst := bench.Split(d.Edges)
		g.InsertBatch(src, dst)
		b.Run(fmt.Sprintf("alpha%.1f", alpha), func(b *testing.B) {
			insertThroughput(b, g, d, 100_000)
		})
	}
}

// BenchmarkFig15SensitivityPR reproduces Figure 15: PageRank time across
// the α and M grid.
func BenchmarkFig15SensitivityPR(b *testing.B) {
	s := benchScale()
	d, _ := bench.MakeDataset("LJ-sim", s)
	for _, alpha := range []float64{1.1, 1.2, 2.0} {
		for _, m := range []int{1 << 8, 1 << 12} {
			g := core.New(d.N, core.Config{Alpha: alpha, M: m})
			src, dst := bench.Split(d.Edges)
			g.InsertBatch(src, dst)
			b.Run(fmt.Sprintf("alpha%.1f/M%d", alpha, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					algo.PageRank(g, 10, 0)
				}
			})
		}
	}
}

// BenchmarkFig16ContinuousInserts reproduces Figure 16: five consecutive
// large batches without intervening deletes, stressing HITree's vertical
// movement.
func BenchmarkFig16ContinuousInserts(b *testing.B) {
	s := benchScale()
	d, _ := bench.MakeDataset("OR-sim", s)
	for _, alpha := range []float64{1.1, 1.2, 2.0} {
		b.Run(fmt.Sprintf("alpha%.1f", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := core.New(d.N, core.Config{Alpha: alpha})
				src, dst := bench.Split(d.Edges)
				g.InsertBatch(src, dst)
				b.StartTimer()
				for round := 0; round < 5; round++ {
					bs, bd := d.UpdateBatch(100_000, round)
					g.InsertBatch(bs, bd)
				}
			}
		})
	}
}

// BenchmarkFig17Scalability reproduces Figure 17: insertion throughput
// versus worker count for all four systems.
func BenchmarkFig17Scalability(b *testing.B) {
	s := benchScale()
	d, _ := bench.MakeDataset("OR-sim", s)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, name := range bench.EngineNames {
			e := bench.Loaded(name, d, workers)
			b.Run(fmt.Sprintf("w%d/%s", workers, name), func(b *testing.B) {
				insertThroughput(b, e, d, 100_000)
			})
		}
	}
}

// BenchmarkStreamingScenario reproduces §6.5's real-world streaming-graph
// experiment on the temporal stand-in streams.
func BenchmarkStreamingScenario(b *testing.B) {
	s := benchScale()
	for _, name := range bench.EngineNames {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				stream := streamEdges(s)
				cut := len(stream.src) * 9 / 10
				e := bench.NewEngine(name, stream.n, 0)
				e.InsertBatch(stream.src[:cut], stream.dst[:cut])
				b.StartTimer()
				e.InsertBatch(stream.src[cut:], stream.dst[cut:])
			}
		})
	}
}

type streamCols struct {
	n        uint32
	src, dst []uint32
}

func streamEdges(s bench.Scale) streamCols {
	d, _ := bench.MakeDataset("LJ-sim", s)
	src, dst := bench.Split(d.Edges)
	return streamCols{n: d.N, src: src, dst: dst}
}

// BenchmarkGraph500 reproduces §6.5's larger-dataset experiment at bench
// scale: load a graph500-parameter Kronecker graph and ingest updates.
func BenchmarkGraph500(b *testing.B) {
	s := benchScale()
	s.Base += 1
	for _, name := range []string{"LSGraph", "Aspen", "PaC-tree"} {
		b.Run(name, func(b *testing.B) {
			d, _ := bench.MakeDataset("TW-sim", s) // largest stand-in at this scale
			e := bench.Loaded(name, d, 0)
			insertThroughput(b, e, d, 100_000)
		})
	}
}

// BenchmarkKCore measures the extension kernel (k-core decomposition) on
// LSGraph and Terrace, the same traversal-bound comparison as Table 2's TC.
func BenchmarkKCore(b *testing.B) {
	s := benchScale()
	d, _ := bench.MakeDataset("LJ-sim", s)
	for _, name := range []string{"LSGraph", "Terrace"} {
		e := bench.Loaded(name, d, 0)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algo.KCore(e, 0)
			}
		})
	}
}

// BenchmarkCoreStructures microbenchmarks the paper's individual data
// structures: RIA vs PMA vs B-tree vs HITree insertion, the foundation of
// the §2.3 analysis.
func BenchmarkCoreStructures(b *testing.B) {
	b.Run("LSGraph-load-LJ", func(b *testing.B) {
		s := benchScale()
		d, _ := bench.MakeDataset("LJ-sim", s)
		src, dst := bench.Split(d.Edges)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := core.New(d.N, core.Config{})
			g.InsertBatch(src, dst)
		}
		b.ReportMetric(float64(len(src)*b.N)/b.Elapsed().Seconds(), "edges/s")
	})
}
