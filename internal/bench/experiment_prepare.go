package bench

import (
	"fmt"
	"io"
	"time"

	"lsgraph/internal/core"
	"lsgraph/internal/obs"
)

// batchPhases are the stages the core engine times per batch
// (lsgraph_batch_phase_nanos): wall-clock, back to back, so they sum to the
// batch.
var batchPhases = []string{"pack", "partition", "apply"}

// rangeSortKey is the histogram of the per-range sort time inside apply, the
// slowest worker's accumulated share per batch.
const rangeSortKey = "lsgraph_batch_range_sort_nanos"

// phaseSums reads the per-phase nanosecond totals, and the range-sort share
// under "sort", out of the obs registry snapshot.
func phaseSums() map[string]uint64 {
	snap := obs.Default.Snapshot()
	out := make(map[string]uint64, len(batchPhases)+1)
	sum := func(name, key string) {
		if h, ok := snap[key].(map[string]any); ok {
			if s, ok := h["sum"].(uint64); ok {
				out[name] = s
			}
		}
	}
	for _, ph := range batchPhases {
		sum(ph, fmt.Sprintf("lsgraph_batch_phase_nanos{phase=%q}", ph))
	}
	sum("sort", rangeSortKey)
	return out
}

// Prepare profiles the batch-update pipeline: insert throughput on the OR
// stand-in across a worker sweep, with the per-phase breakdown (pack,
// partition, apply) read back from the engine's own obs instrumentation
// rather than external timers. Pack and partition are the two passes over
// the whole batch; everything else — per-range sort, dedup, group discovery
// and the structure updates — happens inside apply on ranges a worker keeps
// in cache, and "sort" is the part of apply the slowest worker spent
// sorting. speedup is the whole pipeline's improvement over the same run at
// one worker, where the batch is a single range.
func Prepare(s Scale, w io.Writer) {
	t := NewTable("Batch pipeline: insert phases (ns/edge) vs workers on OR",
		"Range-partitioned apply: every phase should shrink as workers grow; sort is a share of apply, not an extra phase.",
		"workers", "insert-throughput", "pack", "partition", "apply", "sort", "speedup")
	or, _ := MakeDataset("OR-sim", s)
	b := paperBatch(or, s)

	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(wasEnabled)

	var baseAll float64 // ns/edge of the three phases at workers=1
	for _, workers := range workerSweep() {
		g := core.New(or.N, core.Config{Workers: workers})
		src, dst := Split(or.Edges)
		g.InsertBatch(src, dst)

		var total time.Duration
		phases := map[string]uint64{}
		for trial := 0; trial < s.Trials; trial++ {
			bs, bd := or.UpdateBatch(b, trial)
			before := phaseSums()
			t0 := time.Now()
			g.InsertBatch(bs, bd)
			total += time.Since(t0)
			after := phaseSums()
			for ph := range after {
				phases[ph] += after[ph] - before[ph]
			}
			g.DeleteBatch(bs, bd) // restore, outside the snapshot window
		}

		edges := float64(b * s.Trials)
		perEdge := func(ph string) float64 { return float64(phases[ph]) / edges }
		all := perEdge("pack") + perEdge("partition") + perEdge("apply")
		if baseAll == 0 {
			baseAll = all
		}
		speedup := 0.0
		if all > 0 {
			speedup = baseAll / all
		}
		t.Row(workers, throughput(b, total/time.Duration(s.Trials)),
			perEdge("pack"), perEdge("partition"), perEdge("apply"), perEdge("sort"),
			speedup)
	}
	t.WriteTo(w)
}
