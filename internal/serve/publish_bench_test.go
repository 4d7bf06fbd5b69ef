package serve

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"lsgraph/internal/algo"
	"lsgraph/internal/core"
)

// BenchmarkSteadyStateReads measures what the self-cleaning arena's layout
// costs readers: a two-shard store after 10 000 streamed 1 000-edge batches
// (rounds of 64 inserted, then deleted; it stops after an insert phase, where
// the ruler runs its kernels) — every run moved many times, no rebuild ever
// restoring vertex order, a third of the pages dead — against a store
// bulk-loaded from the same edges just now, whose one batch laid the runs
// out in vertex order, back to back. Per op it sweeps every vertex's
// neighbours, runs 10 PageRank iterations and a BFS from vertex 0 on a
// pinned view of each, alternately, and reports the medians in ns per edge.
func BenchmarkSteadyStateReads(b *testing.B) {
	for _, scale := range []uint{15, 17} {
		b.Run(fmt.Sprintf("G%d", scale), func(b *testing.B) {
			const nb, total = 64, 10_000
			src, dst, batches := streamGraph(scale, 9<<scale, nb)
			cfg := core.Config{Workers: 2, Shards: 2}
			st := New(pagedFromEdges(1<<scale, src, dst, cfg), Options{})
			defer st.Close()
			for i := 0; i < total+nb; i++ {
				if bt := batches[i%nb]; i/nb%2 == 0 {
					st.InsertBatch(bt[0], bt[1])
				} else {
					st.DeleteBatch(bt[0], bt[1])
				}
				st.Flush()
			}
			steady := st.View()
			defer steady.Release()
			var fs, fd []uint32
			for v := uint32(0); v < steady.NumVertices(); v++ {
				for _, u := range steady.Neighbors(v) {
					fs, fd = append(fs, v), append(fd, u)
				}
			}
			fst := New(pagedFromEdges(1<<scale, fs, fd, cfg), Options{})
			defer fst.Close()
			fresh := fst.View()
			defer fresh.Release()

			var sink uint64
			sweep := func(v *View) time.Duration {
				t := time.Now()
				for u := uint32(0); u < v.NumVertices(); u++ {
					for _, w := range v.Neighbors(u) {
						sink += uint64(w)
					}
				}
				return time.Since(t)
			}
			pagerank := func(v *View) time.Duration {
				t := time.Now()
				sink += uint64(len(algo.PageRank(v, 10, 2)))
				return time.Since(t)
			}
			bfs := func(v *View) time.Duration {
				t := time.Now()
				sink += uint64(len(algo.BFS(v, 0, 2)))
				return time.Since(t)
			}
			var ds [6][]time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds[0], ds[1] = append(ds[0], sweep(steady)), append(ds[1], sweep(fresh))
				ds[2], ds[3] = append(ds[2], pagerank(steady)), append(ds[3], pagerank(fresh))
				ds[4], ds[5] = append(ds[4], bfs(steady)), append(ds[5], bfs(fresh))
			}
			b.StopTimer()
			m := float64(steady.NumEdges())
			for i, name := range []string{"steady-sweep", "fresh-sweep", "steady-pagerank", "fresh-pagerank", "steady-bfs", "fresh-bfs"} {
				slices.Sort(ds[i])
				per := m
				if i == 2 || i == 3 {
					per *= 10
				}
				b.ReportMetric(float64(ds[i][len(ds[i])/2])/per, name+"-ns/edge")
			}
			s := st.Stats()
			b.ReportMetric(float64(s.ArenaCleanedEntries)/float64(s.SnapshotsPublished), "cleaned-entries/publish")
			_ = sink
		})
	}
}
