package algo

import (
	"lsgraph/internal/engine"
	"lsgraph/internal/obs"
)

// kernelObs is one kernel's obs layer — a span per run, observed as
// lsgraph_phase_nanos{phase="kernel",kernel=…} and recorded as a named
// kernel event — and its traversed-edge counter. Kernels call begin at entry
// and done at exit; both are near-free while metrics and tracing are off.
type kernelObs struct {
	layer *obs.Layer
	edges *obs.Counter
}

func newKernelObs(kernel string) kernelObs {
	return kernelObs{
		layer: obs.KernelLayer(kernel),
		edges: obs.NewCounter("lsgraph_algo_traversed_edges_total", obs.Label("kernel", kernel),
			"edges traversed per kernel (frontier-degree or iteration estimates)"),
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

// begin opens a kernel run's span; pair with done.
func (k kernelObs) begin() obs.Span { return k.layer.Begin() }

// done closes a kernel run's span, counting its traversed edges when
// metrics were on at begin.
func (k kernelObs) done(sp obs.Span, edges uint64) {
	if sp.Metrics() {
		k.edges.Add(edges)
	}
	sp.End(-1, 0, 0, edges)
}

// frontierDegrees is the degree read BC's claims and CC's collectFrontier
// sum into each next frontier's traversed-edge estimate, with the degree
// total of the first frontier: the degree read while a collector is on, and
// nil — so the all-off path pays nothing — while none is. BFS reads
// degrees whatever the collectors, because its direction heuristic needs
// them.
func frontierDegrees(sp obs.Span, g engine.Graph, frontier []uint32) (func(uint32) uint32, uint64) {
	if !sp.On() {
		return nil, 0
	}
	var s uint64
	for _, v := range frontier {
		s += uint64(g.Degree(v))
	}
	return g.Degree, s
}
