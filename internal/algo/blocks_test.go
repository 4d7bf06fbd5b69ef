package algo

import (
	"fmt"
	"slices"
	"testing"

	"lsgraph/internal/core"
	"lsgraph/internal/gen"
	"lsgraph/internal/refgraph"
)

// symmetricEdges returns a seeded symmetrized power-law edge list in
// columnar form.
func symmetricEdges(scale uint, seed uint64, edges int) (src, dst []uint32) {
	es := gen.Symmetrize(gen.NewRMatPaper(scale, seed).Edges(edges))
	src = make([]uint32, len(es))
	dst = make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	return src, dst
}

// buildCoreCfg loads a symmetrized power-law graph into the native
// engine under cfg.
func buildCoreCfg(n uint32, scale uint, seed uint64, edges int, cfg core.Config) *core.Graph {
	g := core.New(n, cfg)
	g.InsertBatch(symmetricEdges(scale, seed, edges))
	return g
}

// TestKernelsMatchAcrossReadPaths runs every kernel on a native graph
// whose thresholds are small enough that adjacency spans inline, array,
// RIA and HITree storage — every way the engine cuts a neighbor list into
// blocks — and requires the results the refgraph oracle (one flat block
// per vertex) gives, sequentially and in parallel.
func TestKernelsMatchAcrossReadPaths(t *testing.T) {
	const n = 512
	g := buildCoreCfg(n, 9, 77, 4000, core.Config{Workers: 2, ArrayMax: 8, M: 64})
	ref := refgraph.New(n)
	src, dst := symmetricEdges(9, 77, 4000)
	for i := range src {
		ref.Insert(src[i], dst[i])
	}
	want := runKernels(ref, 1)
	for _, p := range []int{1, 4} {
		requireSameResults(t, fmt.Sprintf("p=%d", p), runKernels(g, p), want)
	}
}

// TestCollectFrontier checks CC's parallel frontier rebuild against the
// sequential scan it replaces, including sizes straddling the sequential
// threshold and dense/sparse flag patterns, and its degree total against
// the frontier's.
func TestCollectFrontier(t *testing.T) {
	deg := func(v uint32) uint32 { return v%5 + 1 }
	for _, n := range []int{0, 1, 100, collectSeqThreshold - 1, collectSeqThreshold * 8} {
		for _, p := range []int{1, 3, 8} {
			next := make([]uint32, n)
			var want []uint32
			var wantDeg uint64
			for v := 0; v < n; v++ {
				if v%7 == 0 || v%1000 < 3 {
					next[v] = 1
					want = append(want, uint32(v))
					wantDeg += uint64(deg(uint32(v)))
				}
			}
			bufs := frontierBufs(p)
			got, gotDeg := collectFrontier(nil, next, bufs, p, deg)
			if !slices.Equal(got, want) || gotDeg != wantDeg {
				t.Fatalf("n=%d p=%d: collected %d vertices of degree %d, want %d of degree %d", n, p, len(got), gotDeg, len(want), wantDeg)
			}
			if again, d := collectFrontier(got, next, bufs, p, nil); !slices.Equal(again, want) || d != 0 {
				t.Fatalf("n=%d p=%d: without a degree read: %d vertices, degree %d", n, p, len(again), d)
			}
		}
	}
}
