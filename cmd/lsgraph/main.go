// Command lsgraph is an interactive front end for the engine: it loads an
// edge list (or generates one), applies streamed update batches, and runs
// analytics, printing timings for each phase.
//
// Usage:
//
//	lsgraph -load g.txt -algos bfs,pr,cc
//	lsgraph -gen rmat -scale 14 -edges 500000 -batch 100000 -rounds 5 -algos bfs,tc
//
// Edge-list files contain one "src dst" pair of decimal vertex IDs per
// line; lines starting with '#' or '%' are comments.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"lsgraph"
	"lsgraph/internal/gen"
	"lsgraph/internal/graphio"
	"lsgraph/internal/obs"
)

func main() {
	var (
		load    = flag.String("load", "", "edge-list file to load (one 'src dst' per line)")
		loadBin = flag.String("loadbin", "", "binary CSR snapshot to load (written by -savebin)")
		saveBin = flag.String("savebin", "", "write a binary CSR snapshot of the final graph")
		genKind = flag.String("gen", "rmat", "generator when no -load file: rmat | graph500 | uniform")
		scale   = flag.Uint("scale", 14, "log2 vertex count for generated graphs")
		edges   = flag.Int("edges", 200000, "generated edge count")
		seed    = flag.Uint64("seed", 42, "generator seed")
		sym     = flag.Bool("sym", true, "symmetrize the input")
		batch   = flag.Int("batch", 100000, "streamed update batch size")
		rounds  = flag.Int("rounds", 3, "streamed update rounds (insert+delete each)")
		algos   = flag.String("algos", "bfs,pr,cc", "comma-separated: bfs,bc,pr,cc,tc")
		alpha   = flag.Float64("alpha", 1.2, "space amplification factor")
		mFlag   = flag.Int("m", 4096, "RIA-to-HITree threshold")
		traceF  = flag.String("runtimetrace", "", "write a Go runtime/trace of the whole run to this file (view with 'go tool trace')")
	)
	var of obs.Flags
	of.Register(flag.CommandLine,
		"record the batch-lifecycle flight recorder and write Chrome trace-event JSON (load in ui.perfetto.dev) to this file on exit",
		"serve Prometheus /metrics, /metrics.json, /debug/pprof and /debug/trace on this address (e.g. :6060); implies metric collection")
	flag.Parse()

	if err := of.Start("lsgraph"); err != nil {
		fmt.Fprintln(os.Stderr, "lsgraph:", err)
		os.Exit(2)
	}
	if *traceF != "" {
		f, err := os.Create(*traceF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsgraph:", err)
			os.Exit(1)
		}
		if err := trace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, "lsgraph:", err)
			os.Exit(1)
		}
		defer func() {
			trace.Stop()
			f.Close()
			fmt.Printf("trace written to %s (inspect with: go tool trace %s)\n", *traceF, *traceF)
		}()
	}

	var es []gen.Edge
	switch {
	case *loadBin != "":
		f, err := os.Open(*loadBin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsgraph:", err)
			os.Exit(1)
		}
		csr, err := graphio.ReadCSR(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsgraph:", err)
			os.Exit(1)
		}
		es = csr.Edges()
	case *load != "":
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsgraph:", err)
			os.Exit(1)
		}
		es, err = graphio.ReadEdgeList(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsgraph:", err)
			os.Exit(1)
		}
	default:
		switch *genKind {
		case "rmat":
			es = gen.NewRMatPaper(*scale, *seed).Edges(*edges)
		case "graph500":
			es = gen.NewGraph500(*scale, *seed).Edges(*edges)
		case "uniform":
			es = gen.Uniform(1<<*scale, *edges, *seed)
		default:
			fmt.Fprintf(os.Stderr, "lsgraph: unknown generator %q\n", *genKind)
			os.Exit(2)
		}
	}
	if *sym {
		es = gen.Symmetrize(es)
	}
	// Round the vertex space up to a power of two so streamed rMat update
	// batches (drawn over 2^ceil(log2 n) vertices) stay in range.
	n := uint32(1) << log2(gen.MaxVertex(es))
	pub := make([]lsgraph.Edge, len(es))
	for i, e := range es {
		pub[i] = lsgraph.Edge{Src: e.Src, Dst: e.Dst}
	}

	t0 := time.Now()
	g := lsgraph.New(n, lsgraph.WithAlpha(*alpha), lsgraph.WithM(*mFlag))
	phase("load", func() { g.InsertEdges(pub) })
	loadDur := time.Since(t0)
	fmt.Printf("loaded  %d vertices, %d directed edges in %v (%.3g edges/s)\n",
		g.NumVertices(), g.NumEdges(), loadDur.Round(time.Millisecond),
		float64(g.NumEdges())/loadDur.Seconds())
	fmt.Printf("memory  %.1f MB (index overhead %.2f%%)\n",
		float64(g.MemoryUsage())/(1<<20),
		100*float64(g.IndexMemory())/float64(g.MemoryUsage()))

	// Streamed update rounds: insert a fresh batch, run analytics, delete
	// it again — the alternation of §1. Each phase runs under a pprof label
	// and a trace region, so CPU profiles split by phase and 'go tool
	// trace' shows the alternating update/analytics phases by name.
	rm := gen.NewRMatPaper(log2(n), *seed+1)
	for r := 0; r < *rounds; r++ {
		ub := rm.Edges(*batch)
		pubB := make([]lsgraph.Edge, len(ub))
		for i, e := range ub {
			pubB[i] = lsgraph.Edge{Src: e.Src, Dst: e.Dst}
		}
		t1 := time.Now()
		phase("update-insert", func() { g.InsertEdges(pubB) })
		ins := time.Since(t1)
		phase("analytics", func() { runAlgos(g, *algos) })
		t2 := time.Now()
		phase("update-delete", func() { g.DeleteEdges(pubB) })
		fmt.Printf("round %d: insert %d in %v (%.3g e/s), delete in %v\n",
			r, *batch, ins.Round(time.Microsecond),
			float64(*batch)/ins.Seconds(), time.Since(t2).Round(time.Microsecond))
	}

	if err := of.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "lsgraph:", err)
		os.Exit(1)
	}

	if *saveBin != "" {
		f, err := os.Create(*saveBin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsgraph:", err)
			os.Exit(1)
		}
		if err := graphio.WriteCSR(f, g.Engine()); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "lsgraph:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "lsgraph:", err)
			os.Exit(1)
		}
		fmt.Printf("snapshot written to %s\n", *saveBin)
	}
}

func runAlgos(g *lsgraph.Graph, list string) {
	for _, a := range strings.Split(list, ",") {
		t0 := time.Now()
		switch strings.TrimSpace(a) {
		case "bfs":
			parent := lsgraph.BFS(g, 0)
			reached := 0
			for _, p := range parent {
				if p >= 0 {
					reached++
				}
			}
			fmt.Printf("  bfs: reached %d vertices in %v\n", reached, time.Since(t0).Round(time.Microsecond))
		case "bc":
			lsgraph.BC(g, 0)
			fmt.Printf("  bc:  %v\n", time.Since(t0).Round(time.Microsecond))
		case "pr":
			lsgraph.PageRank(g, 10)
			fmt.Printf("  pr:  10 iters in %v\n", time.Since(t0).Round(time.Microsecond))
		case "cc":
			comp := lsgraph.ConnectedComponents(g)
			set := map[uint32]struct{}{}
			for _, c := range comp {
				set[c] = struct{}{}
			}
			fmt.Printf("  cc:  %d components in %v\n", len(set), time.Since(t0).Round(time.Microsecond))
		case "tc":
			tri, trav, total := lsgraph.TriangleCount(g)
			fmt.Printf("  tc:  %d triangles in %v (traversal %v)\n", tri,
				total.Round(time.Microsecond), trav.Round(time.Microsecond))
		case "":
		default:
			fmt.Printf("  unknown algorithm %q\n", a)
		}
	}
}

// phase runs f under a pprof label and a runtime/trace region named after
// the streaming phase, so profiles and traces attribute work to the
// update/analytics alternation. Goroutines spawned inside inherit the
// label.
func phase(name string, f func()) {
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(ctx context.Context) {
		defer trace.StartRegion(ctx, "phase:"+name).End()
		f()
	})
}

func log2(n uint32) uint {
	s := uint(0)
	for 1<<s < n {
		s++
	}
	return s
}
