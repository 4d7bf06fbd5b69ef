package core

import (
	"fmt"
	"math/bits"
	"testing"

	"lsgraph/internal/gen"
)

// benchBatch builds one rMat update batch sized like the paper's streaming
// batches.
func benchBatch(scale uint, m int) (src, dst []uint32, nv uint32) {
	rm := gen.NewRMatPaper(scale, 123)
	es := rm.Edges(m)
	src = make([]uint32, len(es))
	dst = make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	return src, dst, 1 << scale
}

// BenchmarkInsertBatchPrepare measures the pipeline without the structure
// updates, split by phase across worker counts: phase=all is applyBatch with
// an apply that does nothing (pack, partition, and every range's sort, dedup
// and group discovery), phase=pack and phase=partition are its two passes
// over the whole batch.
func BenchmarkInsertBatchPrepare(b *testing.B) {
	const m = 1 << 18
	src, dst, nv := benchBatch(17, m)
	noop := func(int, *keyRange, int, uint32, []uint64) uint64 { return 0 }
	for _, p := range []int{1, 2, 4, 8} {
		g := New(nv, Config{Workers: p})
		sh := &g.shards[0]
		sh.applyBatch(nv, src, dst, p, noop, nil) // size every buffer the phases below use
		b.Run(fmt.Sprintf("phase=all/p=%d", p), func(b *testing.B) {
			b.SetBytes(int64(8 * m))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sh.applyBatch(nv, src, dst, p, noop, nil)
			}
		})
		b.Run(fmt.Sprintf("phase=pack/p=%d", p), func(b *testing.B) {
			b.SetBytes(int64(8 * m))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sh.packKeys(nv, src, dst, p)
			}
		})
		b.Run(fmt.Sprintf("phase=partition/p=%d", p), func(b *testing.B) {
			varying := sh.packKeys(nv, src, dst, p)
			base := append([]uint64(nil), sh.prep.ks...)
			ps := &sh.prep
			b.SetBytes(int64(8 * m))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(ps.ks, base) // a second-level split scatters back into ks
				ps.ranges, ps.heavy = ps.ranges[:0], ps.heavy[:0]
				ps.split(ps.ks, ps.tmp, 0, m, bits.Len64(varying>>32), 0, p, splitLimit(m, p))
			}
		})
	}
}

// BenchmarkInsertBatchSteadyState measures full InsertBatch calls against a
// warm graph whose batches repeat the same edge population, so the pipeline's
// arenas and per-worker apply arenas are at steady-state size. allocs/op is
// the headline number: the scratch-reuse work drives it toward zero.
func BenchmarkInsertBatchSteadyState(b *testing.B) {
	const m = 1 << 16
	src, dst, nv := benchBatch(15, m)
	for _, p := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			g := New(nv, Config{Workers: p})
			g.InsertBatch(src, dst) // warm: edges present, arenas grown
			b.SetBytes(int64(8 * m))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.InsertBatch(src, dst)
			}
		})
	}
}

// BenchmarkInsertBatchCold measures end-to-end ingest of fresh batches into
// a growing graph — the Figure 12 shape — including apply-path structural
// work.
func BenchmarkInsertBatchCold(b *testing.B) {
	const m = 1 << 16
	for _, p := range []int{1, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			rm := gen.NewRMatPaper(17, 9)
			g := New(1<<17, Config{Workers: p})
			src := make([]uint32, m)
			dst := make([]uint32, m)
			b.SetBytes(int64(8 * m))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				es := rm.Edges(m)
				for j, e := range es {
					src[j], dst[j] = e.Src, e.Dst
				}
				b.StartTimer()
				g.InsertBatch(src, dst)
			}
		})
	}
}

// BenchmarkScatter times the Store's route (Scatter) of n-edge batches to S
// uniform shards on p workers, in ns per edge. The batches are successive
// windows of one 600 000-edge G15 rMat stream, as a stream never repeats a
// batch: a branch predictor could learn a 1 000-edge batch scattered again
// and again, and flatter a search that branches on the IDs.
func BenchmarkScatter(b *testing.B) {
	src, dst, nv := benchBatch(15, 600_000)
	for _, n := range []int{1_000, 10_000, 600_000} {
		for _, S := range []int{2, 16} {
			pm := NewUniformMap(nv, S)
			for _, p := range []int{1, 2} {
				b.Run(fmt.Sprintf("n=%d/S=%d/p=%d", n, S, p), func(b *testing.B) {
					var parts []SubBatch
					for i := 0; i < b.N; i++ {
						lo := i * n % (len(src) - n + 1)
						parts, _ = Scatter(pm, src[lo:lo+n], dst[lo:lo+n], p)
					}
					if len(parts) != S {
						b.Fatalf("%d parts for %d shards", len(parts), S)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/edge")
				})
			}
		}
	}
}
