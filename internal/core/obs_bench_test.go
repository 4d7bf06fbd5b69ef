package core

import (
	"testing"

	"lsgraph/internal/gen"
	"lsgraph/internal/obs"
)

// BenchmarkObsOverhead measures the cost the observability hooks add to the
// hot update path. Each iteration inserts and then deletes the same batch,
// so the graph returns to its initial state and iterations are comparable.
// Compare the disabled and enabled sub-benchmarks, and likewise
// tracing-off vs tracing-on for the flight recorder:
//
//	go test -run xxx -bench ObsOverhead -count 5 ./internal/core
//
// The disabled and tracing-off cases must stay within noise of a build
// without hooks: every hook reduces to one atomic load of obs's sink word.
func BenchmarkObsOverhead(b *testing.B) {
	const (
		scale     = 12
		baseEdges = 100000
		batchSize = 10000
	)
	build := func() (*Graph, []uint32, []uint32) {
		rm := gen.NewRMatPaper(scale, 42)
		g := New(1<<scale, Config{})
		base := rm.Edges(baseEdges)
		src := make([]uint32, len(base))
		dst := make([]uint32, len(base))
		for i, e := range base {
			src[i], dst[i] = e.Src, e.Dst
		}
		g.InsertBatch(src, dst)
		batch := gen.NewRMatPaper(scale, 7).Edges(batchSize)
		bs := make([]uint32, len(batch))
		bd := make([]uint32, len(batch))
		for i, e := range batch {
			bs[i], bd[i] = e.Src, e.Dst
		}
		return g, bs, bd
	}
	run := func(b *testing.B, enabled bool) {
		prev := obs.Enabled()
		obs.SetEnabled(enabled)
		defer obs.SetEnabled(prev)
		g, bs, bd := build()
		b.SetBytes(int64(len(bs)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.InsertBatch(bs, bd)
			g.DeleteBatch(bs, bd)
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true) })

	// Flight-recorder variants, metric collection off in both so the delta
	// isolates the flight-recorder half of the pipeline's spans.
	runTrace := func(b *testing.B, m obs.TraceMode) {
		prevMode, prevN := obs.CurrentTraceMode(), obs.TraceSampleN()
		obs.SetTraceMode(m, 1)
		defer obs.SetTraceMode(prevMode, prevN)
		g, bs, bd := build()
		b.SetBytes(int64(len(bs)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.InsertBatch(bs, bd)
			g.DeleteBatch(bs, bd)
		}
	}
	b.Run("tracing-off", func(b *testing.B) { runTrace(b, obs.TraceOff) })
	b.Run("tracing-on", func(b *testing.B) { runTrace(b, obs.TraceAll) })
}
