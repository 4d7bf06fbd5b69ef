package bench

import (
	"io"
	"time"

	"lsgraph/internal/core"
	"lsgraph/internal/gen"
	"lsgraph/internal/serve"
)

// rebalanceBatches is the number of streamed update batches measured on
// each side of the rebalance.
const rebalanceBatches = 32

// Rebalance measures what live resharding buys under a skewed stream: a
// Zipf(1.2) workload (hubs at low IDs, so a range partition concentrates
// nearly all writes in shard 0) is ingested at S ∈ {2, 4, 8} shard
// writers, first on the initial uniform partition map, then again after
// Store.Rebalance re-cuts the boundaries toward equal edge mass. The
// report gives the skew gauge ((max/fair - 1) · 100) before and after,
// the boundaries changed and the re-cut's cost, and skewed-ingest
// throughput on both maps — the "after" column is the claim: once hot
// ranges are split across writers, the skewed stream stops serializing
// behind one queue.
func Rebalance(s Scale, w io.Writer) {
	t := NewTable("Live resharding: skewed ingest before/after boundary rebalance",
		"Zipf(1.2) sources over a range partition; skew is the per-shard edge-mass gauge, eps columns are skewed-stream ingest throughput on the uniform vs rebalanced map.",
		"shards", "skew-before", "skew-after", "moves", "moved-verts", "reb-ms",
		"eps-uniform", "eps-rebalanced", "speedup")

	n := uint32(1) << (s.Base + 3)
	workers := s.Workers
	batch := 0
	for _, c := range s.BatchSizes {
		if batch < c {
			batch = c
		}
	}
	if batch > int(n) {
		batch = int(n)
	}

	for _, S := range []int{2, 4, 8} {
		z := gen.NewZipf(n, 1.2, 42+uint64(S))
		st := serve.New(core.NewPaged(n, S, workers), serve.Options{})

		// Preload so the rebalancer has mass to measure, then stream the
		// measured batches on the uniform map.
		ps, pd := z.Batch(batch * 4)
		st.InsertBatch(ps, pd)
		st.Flush()
		epsUniform := ingestSkewed(st, z, batch)

		before := st.Partition()
		res, err := st.Rebalance()
		if err != nil {
			t.Row(S, "-", "-", "-", "-", "-", "-", "-", err.Error())
			st.Close()
			continue
		}
		epsRebalanced := ingestSkewed(st, z, batch)
		st.Close()

		speedup := 0.0
		if epsUniform > 0 {
			speedup = epsRebalanced / epsUniform
		}
		t.Row(S, before.SkewPct, res.SkewPctAfter, res.Moves, res.MovedVertices,
			float64(res.Duration.Microseconds())/1000.0,
			epsUniform, epsRebalanced, speedup)
	}
	t.WriteTo(w)
}

// ingestSkewed streams rebalanceBatches Zipf batches through the store
// and returns edges/second from enqueue of the first to publish of the
// last.
func ingestSkewed(st *serve.Store, z *gen.Zipf, batch int) float64 {
	t0 := time.Now()
	for k := 0; k < rebalanceBatches; k++ {
		bs, bd := z.Batch(batch)
		st.InsertBatch(bs, bd)
	}
	st.Flush()
	return throughput(batch*rebalanceBatches, time.Since(t0))
}
