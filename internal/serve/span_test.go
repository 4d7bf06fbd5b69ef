package serve

import (
	"testing"

	"lsgraph/internal/core"
	"lsgraph/internal/obs"
)

// TestOneSpanFeedsBothSinks: a layer reads one clock per end and hands the
// same duration to both sinks, so with metrics and tracing on, the apply
// event a Store batch records has exactly the Dur its apply histogram sum
// grew by; with one sink on, only that sink moves.
func TestOneSpanFeedsBothSinks(t *testing.T) {
	applySum := func() uint64 {
		h, _ := obs.Default.Snapshot()[`lsgraph_phase_nanos{phase="apply"}`].(map[string]any)
		return h["sum"].(uint64)
	}
	applyEvents := func() (evs []obs.Event) {
		for _, ev := range obs.Events() {
			if ev.Phase == obs.PhaseApply {
				evs = append(evs, ev)
			}
		}
		return evs
	}
	prevMetrics, prevMode, prevN := obs.Enabled(), obs.CurrentTraceMode(), obs.TraceSampleN()
	t.Cleanup(func() {
		obs.SetEnabled(prevMetrics)
		obs.SetTraceMode(prevMode, prevN)
	})

	st := New(core.NewPaged(64, 1, 1), Options{})
	defer st.Close()
	for i, c := range []struct{ metrics, tracing bool }{{true, true}, {true, false}, {false, true}} {
		obs.SetEnabled(c.metrics)
		mode := obs.TraceOff
		if c.tracing {
			mode = obs.TraceAll
		}
		obs.SetTraceMode(mode, 1)
		sum0, n0 := applySum(), len(applyEvents())

		src, dst := pairBatch(uint32(i+1), uint32(i+10))
		st.InsertBatch(src, dst)
		st.Flush()

		grew, evs := applySum()-sum0, applyEvents()[n0:]
		if c.metrics != (grew > 0) {
			t.Errorf("metrics=%v tracing=%v: apply histogram sum grew by %d", c.metrics, c.tracing, grew)
		}
		want := 0
		if c.tracing {
			want = 1
		}
		if len(evs) != want {
			t.Fatalf("metrics=%v tracing=%v: %d new apply events, want %d", c.metrics, c.tracing, len(evs), want)
		}
		if c.metrics && c.tracing && uint64(evs[0].Dur) != grew {
			t.Errorf("apply event Dur %d ns, histogram sum grew by %d ns: the sinks read different clocks", evs[0].Dur, grew)
		}
	}
}
