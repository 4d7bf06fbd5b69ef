package check

import (
	"fmt"
	"math/rand"
	"testing"

	"lsgraph/internal/algo"
	"lsgraph/internal/core"
	"lsgraph/internal/engine"
	"lsgraph/internal/serve"
)

// Metamorphic kernel oracles: none of the analytics kernels may care how a
// graph was built — only which edges it holds. Each test constructs the
// same logical edge set along two different build paths (permuted insert
// order, different batch boundaries, insert-then-delete noise, live graph
// vs pinned serving-layer view) and requires every kernel to agree. All
// kernels run single-worker so float accumulation order is deterministic.

const (
	metaVerts = 64
	metaEdges = 400
)

// randomEdges returns a deterministic pseudo-random directed edge list
// over metaVerts vertices (duplicates possible; set semantics dedupe).
func randomEdges(seed int64, n int) (src, dst []uint32) {
	rng := rand.New(rand.NewSource(seed))
	src = make([]uint32, n)
	dst = make([]uint32, n)
	for i := range src {
		src[i] = uint32(rng.Intn(metaVerts))
		dst[i] = uint32(rng.Intn(metaVerts))
	}
	return src, dst
}

// buildGraph inserts the edges into a fresh core.Graph in batches of the
// given size (0 means one batch).
func buildGraph(t *testing.T, src, dst []uint32, batch int) *core.Graph {
	t.Helper()
	g := core.New(metaVerts, core.Config{Workers: 2})
	if batch <= 0 {
		batch = len(src)
	}
	for i := 0; i < len(src); i += batch {
		j := i + batch
		if j > len(src) {
			j = len(src)
		}
		g.InsertBatch(src[i:j], dst[i:j])
	}
	return g
}

// kernelFingerprints runs every kernel on g and returns the results as
// comparable strings keyed by kernel name.
func kernelFingerprints(g engine.Graph) map[string]string {
	return map[string]string{
		"BFSLevels": fmt.Sprint(algo.BFSLevels(g, 0, 1)),
		"CC":        fmt.Sprint(algo.CC(g, 1)),
		"PageRank":  fmt.Sprint(algo.PageRank(g, 5, 1)),
		"KCore":     fmt.Sprint(algo.KCore(g, 1)),
		"TC":        fmt.Sprint(algo.TriangleCount(g, 1).Triangles),
	}
}

func requireSameKernels(t *testing.T, what string, a, b engine.Graph) {
	t.Helper()
	fa, fb := kernelFingerprints(a), kernelFingerprints(b)
	for k := range fa {
		if fa[k] != fb[k] {
			t.Errorf("%s: %s diverges:\n  a: %.120s\n  b: %.120s", what, k, fa[k], fb[k])
		}
	}
}

// TestMetamorphicEdgePermutation: inserting the same edge list in a
// shuffled order must leave every kernel result unchanged.
func TestMetamorphicEdgePermutation(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		src, dst := randomEdges(seed, metaEdges)
		a := buildGraph(t, src, dst, 0)

		rng := rand.New(rand.NewSource(seed + 100))
		ps := append([]uint32{}, src...)
		pd := append([]uint32{}, dst...)
		rng.Shuffle(len(ps), func(i, j int) {
			ps[i], ps[j] = ps[j], ps[i]
			pd[i], pd[j] = pd[j], pd[i]
		})
		b := buildGraph(t, ps, pd, 0)
		requireSameKernels(t, fmt.Sprintf("seed %d permuted insert order", seed), a, b)
	}
}

// TestMetamorphicBatchBoundaries: how the edge stream is chopped into
// batches (including many tiny batches) must not change any kernel result.
func TestMetamorphicBatchBoundaries(t *testing.T) {
	src, dst := randomEdges(7, metaEdges)
	a := buildGraph(t, src, dst, 0)
	for _, batch := range []int{7, 64, 1, 33} {
		b := buildGraph(t, src, dst, batch)
		requireSameKernels(t, fmt.Sprintf("batch=%d vs single batch", batch), a, b)
	}
}

// TestMetamorphicInsertDeleteNoop: inserting extra edges and then deleting
// exactly those extras is a no-op for every kernel.
func TestMetamorphicInsertDeleteNoop(t *testing.T) {
	src, dst := randomEdges(11, metaEdges)
	a := buildGraph(t, src, dst, 0)

	// Extras are drawn disjoint from the base set so deleting them cannot
	// remove a base edge.
	base := make(map[uint64]bool, len(src))
	for i := range src {
		base[uint64(src[i])<<32|uint64(dst[i])] = true
	}
	rng := rand.New(rand.NewSource(12))
	var xs, xd []uint32
	for len(xs) < 100 {
		u, v := uint32(rng.Intn(metaVerts)), uint32(rng.Intn(metaVerts))
		if !base[uint64(u)<<32|uint64(v)] {
			xs = append(xs, u)
			xd = append(xd, v)
		}
	}
	b := buildGraph(t, src, dst, 0)
	b.InsertBatch(xs, xd)
	b.DeleteBatch(xs, xd)
	requireSameKernels(t, "insert-then-delete of disjoint extras", a, b)
}

// TestMetamorphicLiveVsPinnedView: a kernel must not care whether it runs
// on the live core.Graph or a pinned serving-layer View composed of
// per-shard snapshots.
func TestMetamorphicLiveVsPinnedView(t *testing.T) {
	src, dst := randomEdges(23, metaEdges)
	live := buildGraph(t, src, dst, 50)
	for _, S := range []int{1, 4} {
		st := serve.New(core.NewPaged(metaVerts, S, 2),
			serve.Options{MaxQueue: 2})
		for i := 0; i < len(src); i += 50 {
			j := i + 50
			if j > len(src) {
				j = len(src)
			}
			st.InsertBatch(src[i:j], dst[i:j])
		}
		st.Flush()
		v := st.View()
		requireSameKernels(t, fmt.Sprintf("S=%d live vs pinned view", S), live, v)
		v.Release()
		st.Close()
	}
}
