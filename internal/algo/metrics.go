package algo

import (
	"time"

	"lsgraph/internal/engine"
	"lsgraph/internal/obs"
	"lsgraph/internal/trace"
)

// kernelObs bundles one kernel's wall-time histogram, traversed-edge
// counter, and interned flight-recorder label. Kernels call begin at entry
// and done at exit; both are near-free when collection and tracing are
// disabled (a zero timer short-circuits done).
type kernelObs struct {
	nanos *obs.Histogram
	edges *obs.Counter
	name  uint32 // interned kernel name for trace.SpanNamed
}

func newKernelObs(kernel string) kernelObs {
	l := `kernel="` + kernel + `"`
	return kernelObs{
		nanos: obs.NewHistogram("lsgraph_algo_nanos", l, "ns", "wall time per kernel run"),
		edges: obs.NewCounter("lsgraph_algo_traversed_edges_total", l,
			"edges traversed per kernel (frontier-degree or iteration estimates)"),
		name: trace.InternName(kernel),
	}
}

var (
	obsBFS    = newKernelObs("bfs")
	obsBFSLvl = newKernelObs("bfs_levels")
	obsBC     = newKernelObs("bc")
	obsPR     = newKernelObs("pagerank")
	obsCC     = newKernelObs("cc")
	obsTC     = newKernelObs("tc")
	obsKCore  = newKernelObs("kcore")
)

// kernelTimer is a begin result: the obs wall-clock start and the trace
// timestamp, each zero when its collector was off at kernel entry.
type kernelTimer struct {
	obsT time.Time
	trT  int64
}

// active reports whether either collector wants per-round edge estimates;
// kernels gate their frontier degree sums on it so the all-off path pays
// nothing.
func (t kernelTimer) active() bool { return !t.obsT.IsZero() || t.trT != 0 }

// begin opens a kernel run measurement; pair with done.
func (k kernelObs) begin() kernelTimer {
	return kernelTimer{obsT: obs.StartTimer(), trT: trace.Start()}
}

// done records one finished kernel run: the obs histogram/counter when
// collection was on at entry, and a named kernel span in the flight
// recorder when tracing was (SpanNamed ignores the zero timestamp).
func (k kernelObs) done(t kernelTimer, edges uint64) {
	if !t.obsT.IsZero() {
		k.nanos.ObserveSince(t.obsT)
		k.edges.Add(edges)
	}
	trace.SpanNamed(trace.PhaseKernel, -1, 0, 0, edges, k.name, t.trT)
}

// frontierDegrees is what a frontier-synchronous kernel hands
// collectFrontier for its per-round traversed-edge estimate, with the
// degree total of its first frontier: the degree read while a collector is
// on, and nothing — so the all-off path pays nothing — while none is.
func frontierDegrees(t kernelTimer, g engine.Graph, frontier []uint32) (func(uint32) uint32, uint64) {
	if !t.active() {
		return nil, 0
	}
	var s uint64
	for _, v := range frontier {
		s += uint64(g.Degree(v))
	}
	return g.Degree, s
}
