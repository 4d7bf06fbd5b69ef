package obs

import (
	"fmt"
	"math"
	"runtime/metrics"
)

// Go runtime cost, read from runtime/metrics when the registry is exported
// and never in between: what the heap holds live, what the collector is
// aiming for, how long it has stopped the world, how long runnable
// goroutines waited for a P, how many goroutines exist.
// They sit in Default beside the engine's own series so that a byte or a
// stall seen there can be told from one the runtime caused, from the running
// process alone.
func init() {
	for _, g := range []struct{ name, key, help string }{
		{"lsgraph_go_heap_live_bytes", "/gc/heap/live:bytes",
			"heap bytes the last garbage collection found live"},
		{"lsgraph_go_heap_goal_bytes", "/gc/heap/goal:bytes",
			"heap size the collector lets the heap reach before the next collection ends"},
		{"lsgraph_go_goroutines", "/sched/goroutines:goroutines",
			"goroutines that currently exist"},
	} {
		NewFunc(g.name, "", "gauge", g.help, "", func(dst []uint64) []uint64 {
			if v := readRuntime(g.key); v.Kind() == metrics.KindUint64 {
				return append(dst, v.Uint64())
			}
			return dst // a runtime that does not have the sample
		})
	}
	for _, h := range []struct{ name, key, help string }{
		{"lsgraph_go_gc_pause_nanos", "/sched/pauses/total/gc:seconds",
			"stop-the-world pauses of the garbage collector since process start; the sum is estimated from bucket midpoints (ns)"},
		{"lsgraph_go_sched_latency_nanos", "/sched/latencies:seconds",
			"time goroutines spent runnable before they ran, since process start; the sum is estimated from bucket midpoints (ns)"},
	} {
		Default.register(&runtimeHist{desc{name: h.name, typ: "histogram", help: h.help}, h.key})
	}
}

// readRuntime reads one runtime/metrics sample.
func readRuntime(key string) metrics.Value {
	s := []metrics.Sample{{Name: key}}
	metrics.Read(s)
	return s[0].Value
}

// runtimeHist exports one of the runtime's histograms of durations, seconds
// there, as nanoseconds in the registry's histogram form.
type runtimeHist struct {
	desc
	key string // the runtime/metrics name
}

// read returns the non-empty buckets (upper bound in ns, count), the total
// count and the estimated sum.
func (p *runtimeHist) read() (le []uint64, counts []uint64, total uint64, sum float64) {
	v := readRuntime(p.key)
	if v.Kind() != metrics.KindFloat64Histogram {
		return nil, nil, 0, 0
	}
	h := v.Float64Histogram()
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		le, counts = append(le, uint64(hi*1e9)), append(counts, c)
		total += c
		sum += float64(c) * (lo + hi) / 2 * 1e9
	}
	return le, counts, total, sum
}

func (p *runtimeHist) promLines(dst []string) []string {
	le, counts, total, sum := p.read()
	var cum uint64
	for i, c := range counts {
		cum += c
		dst = append(dst, fmt.Sprintf("%s_bucket{le=\"%d\"} %d", p.name, le[i], cum))
	}
	return append(dst,
		fmt.Sprintf("%s_bucket{le=\"+Inf\"} %d", p.name, total),
		fmt.Sprintf("%s_sum %d", p.name, uint64(sum)),
		fmt.Sprintf("%s_count %d", p.name, total))
}

func (p *runtimeHist) snapshotValue() any {
	le, counts, total, sum := p.read()
	bs := map[string]uint64{}
	for i, c := range counts {
		bs[fmt.Sprintf("le_%d", le[i])] = c
	}
	return map[string]any{"count": total, "sum": uint64(sum), "unit": "ns", "buckets": bs}
}
