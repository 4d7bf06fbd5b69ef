package bench

import (
	"fmt"
	"io"
	"strings"

	"lsgraph/internal/algo"
	"lsgraph/internal/core"
	"lsgraph/internal/obs"
	"lsgraph/internal/serve"
)

// traceDemoShards is the shard count the demo drives; coverage is asserted
// per shard for the per-shard phases.
const traceDemoShards = 4

// TraceDemo exercises the flight recorder end to end: a 4-shard Store with
// MaxQueue=1 (so backpressure coalescing fires), one large batch followed by
// a burst of small ones, a boundary move, a kernel run on a pinned view, and
// deletes. It then reads the recorded events back and reports coverage of
// every phase in obs's layer table — event counts, total time, and how many
// shards each phase was seen on — failing visibly ("phase coverage:
// INCOMPLETE") if any went unrecorded. The workload retries a few times
// because coalescing depends on catching a writer mid-apply.
func TraceDemo(s Scale, w io.Writer) {
	prevMode, prevN := obs.CurrentTraceMode(), obs.TraceSampleN()
	obs.SetTraceMode(obs.TraceAll, 1)
	defer obs.SetTraceMode(prevMode, prevN)

	d, _ := MakeDataset("LJ-sim", s)
	src, dst := Split(d.Edges)
	cut := len(src) * 9 / 10

	phases := obs.Phases()
	var evs []obs.Event
	var missing []obs.Phase
	for attempt := 0; attempt < 3; attempt++ {
		runTraceDemoWorkload(s, d, src, dst, cut)
		evs = obs.Events()
		missing = missingPhases(phases, evs)
		if len(missing) == 0 {
			break
		}
	}

	t := NewTable("Flight-recorder demo: batch-lifecycle phase coverage (4 shards, MaxQueue=1)",
		"every phase of the layer table must appear; shards counts distinct shard tracks the phase was recorded on (engine-level events report '-').",
		"phase", "events", "total", "shards", "one event covers")
	for _, p := range phases {
		n, total, shards := 0, int64(0), map[int]bool{}
		for _, ev := range evs {
			if ev.Phase != p {
				continue
			}
			n++
			total += ev.Dur
			if ev.Shard >= 0 {
				shards[ev.Shard] = true
			}
		}
		sh := "-"
		if len(shards) > 0 {
			sh = fmt.Sprintf("%d", len(shards))
		}
		t.Row(p.String(), n, fmtTraceNs(total), sh, p.Help())
	}
	t.WriteTo(w)

	if len(missing) == 0 {
		fmt.Fprintf(w, "phase coverage: OK (%d/%d phases recorded)\n\n", len(phases), len(phases))
	} else {
		names := make([]string, len(missing))
		for i, p := range missing {
			names[i] = p.String()
		}
		fmt.Fprintf(w, "phase coverage: INCOMPLETE — missing %s\n\n", strings.Join(names, ", "))
	}
	obs.WriteAutopsy(w)
	fmt.Fprintln(w)
}

// runTraceDemoWorkload drives one traced pass of the demo workload.
func runTraceDemoWorkload(s Scale, d *Dataset, src, dst []uint32, cut int) {
	g := core.NewPaged(d.N, traceDemoShards, s.Workers)
	st := serve.New(g, serve.Options{MaxQueue: 1})
	defer st.Close()

	// One large batch to occupy the writers, then a burst of small batches
	// that pile up behind it: with MaxQueue=1 the second and later queued
	// small batches merge, recording coalesce events.
	st.InsertBatch(src[:cut], dst[:cut])
	small := 1 << 10
	for k := 0; len(d.Edges) > small && k < 32; k++ {
		bs, bd := d.UpdateBatch(small, k)
		st.InsertBatch(bs, bd)
	}
	st.Flush()
	// One boundary move records the rebalance layer.
	st.MoveBoundary(0, uint32(d.N)/(2*traceDemoShards))

	// A pinned view held across a kernel run records viewpin and kernel
	// spans; holding it across the deletes below keeps snapshots retired
	// while pinned, so the writers' reclaim pass later frees a drained one.
	v := st.View()
	algo.BFS(v, 0, s.Workers)
	for k := 32; k < 36; k++ {
		bs, bd := d.UpdateBatch(small, k)
		st.DeleteBatch(bs, bd)
	}
	st.Flush()
	v.Release()

	// One more round after the release so reclaim observes the drained
	// epoch refcounts.
	bs, bd := d.UpdateBatch(small, 36)
	st.InsertBatch(bs, bd)
	st.Flush()
}

// missingPhases returns the phases absent from evs.
func missingPhases(phases []obs.Phase, evs []obs.Event) []obs.Phase {
	seen := map[obs.Phase]bool{}
	for _, ev := range evs {
		seen[ev.Phase] = true
	}
	var missing []obs.Phase
	for _, p := range phases {
		if !seen[p] {
			missing = append(missing, p)
		}
	}
	return missing
}

func fmtTraceNs(ns int64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}
