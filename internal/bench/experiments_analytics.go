package bench

import (
	"io"
	"runtime"
	"time"

	"lsgraph/internal/algo"
	"lsgraph/internal/core"
	"lsgraph/internal/engine"
)

// availableWorkers caps the scalability sweep at the machine's cores.
func availableWorkers() int { return runtime.GOMAXPROCS(0) }

// Fig13 reproduces the analytics comparison: BFS and BC time on every
// graph and system, normalized to LSGraph (lower is worse for baselines).
func Fig13(s Scale, w io.Writer) {
	t := NewTable("Figure 13: BFS and BC time normalized to LSGraph",
		"Paper: LSGraph ahead of Terrace up to 1.16x/1.21x, Aspen up to 3.55x, PaC-tree up to 2.72x.",
		"graph", "algo", "LSGraph", "Terrace", "Aspen", "PaC-tree")
	for _, d := range AllDatasets(s) {
		engines := loadedAll(d, s.Workers)
		src := maxDegreeVertex(engines[0])
		var bfs, bc [4]time.Duration
		for i, e := range engines {
			bfs[i] = timeIt(s.Trials, func() { algo.BFS(e, src, s.Workers) })
			bc[i] = timeIt(s.Trials, func() { algo.BC(e, src, s.Workers) })
		}
		t.Row(d.Name, "BFS", 1.0,
			bfs[1].Seconds()/bfs[0].Seconds(),
			bfs[2].Seconds()/bfs[0].Seconds(),
			bfs[3].Seconds()/bfs[0].Seconds())
		t.Row(d.Name, "BC", 1.0,
			bc[1].Seconds()/bc[0].Seconds(),
			bc[2].Seconds()/bc[0].Seconds(),
			bc[3].Seconds()/bc[0].Seconds())
	}
	t.WriteTo(w)
}

// maxDegreeVertex returns the highest-degree vertex, the conventional BFS/
// BC source for power-law graphs (guarantees a large reachable set).
func maxDegreeVertex(g engine.Graph) uint32 {
	var best uint32
	var bestDeg uint32
	for v := uint32(0); v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}

// Table2 reproduces the PR / CC / TC comparison between LSGraph and
// Terrace, including TC's traversal-share column.
func Table2(s Scale, w io.Writer) {
	t := NewTable("Table 2: PR, CC, TC execution times (s), LSGraph vs Terrace",
		"Paper: T/L speedups 1.24x-1.69x (PR), 1.04x-1.53x (CC), 1.45x-4.28x (TC); Tra/L 0.64%-19.48%.",
		"graph", "PR-LS", "PR-Terr", "CC-LS", "CC-Terr",
		"TC-LS", "TC-traversal", "TC-Terr", "Tra/L")
	for _, d := range AllDatasets(s) {
		ls := Loaded("LSGraph", d, s.Workers)
		tr := Loaded("Terrace", d, s.Workers)
		prLS := timeIt(s.Trials, func() { algo.PageRank(ls, 10, s.Workers) })
		prTR := timeIt(s.Trials, func() { algo.PageRank(tr, 10, s.Workers) })
		ccLS := timeIt(s.Trials, func() { algo.CC(ls, s.Workers) })
		ccTR := timeIt(s.Trials, func() { algo.CC(tr, s.Workers) })
		tcResLS := algo.TriangleCount(ls, s.Workers)
		tcResTR := algo.TriangleCount(tr, s.Workers)
		t.Row(d.Name, prLS, prTR, ccLS, ccTR,
			tcResLS.Total, tcResLS.Traversal, tcResTR.Total,
			tcResLS.Traversal.Seconds()/tcResLS.Total.Seconds())
	}
	t.WriteTo(w)
}

// Table3 reproduces the memory-footprint comparison, including LSGraph's
// index overhead ratio.
func Table3(s Scale, w io.Writer) {
	t := NewTable("Table 3: memory usage (MB) and LSGraph index overhead",
		"Paper: Terrace 1.98x-3.18x above LSGraph; index overhead 2.90%-5.43%.",
		"graph", "LSGraph", "Terrace", "Aspen", "PaC-tree", "T/L", "I/L")
	for _, d := range AllDatasets(s) {
		var mem [4]float64
		var lsIdx float64
		for i, e := range loadedAll(d, s.Workers) {
			if g, ok := e.(*core.Graph); ok {
				// MemoryUsage counts the update pipeline's buffers, and the
				// bulk load just sized them to the whole graph; the table
				// compares what the graphs themselves hold.
				g.ReleaseScratch()
				lsIdx = float64(g.IndexMemory()) / (1 << 20)
			}
			mem[i] = float64(e.MemoryUsage()) / (1 << 20)
		}
		t.Row(d.Name, mem[0], mem[1], mem[2], mem[3],
			mem[1]/mem[0], lsIdx/mem[0])
	}
	t.WriteTo(w)
}

// Fig15 reproduces the analytics-side sensitivity analysis: PageRank time
// for the α and M grid of Fig14.
func Fig15(s Scale, w io.Writer) {
	alphas, ms := sensitivityGrid()
	t := NewTable("Figure 15: PageRank time (s) vs alpha and M",
		"Paper: analytics slow down with large alpha; flat in M beyond 2^12.",
		"graph", "alpha", "M", "pr-time")
	for _, name := range []string{"LJ-sim", "RM-sim", "TW-sim"} {
		d, _ := MakeDataset(name, s)
		for _, a := range alphas {
			for _, m := range ms {
				g := loadedCore(d, core.Config{Alpha: a, M: m, Workers: s.Workers})
				pr := timeIt(s.Trials, func() { algo.PageRank(g, 10, s.Workers) })
				t.Row(d.Name, a, m, pr)
			}
		}
	}
	t.WriteTo(w)
}
