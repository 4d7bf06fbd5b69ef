package core

import (
	"math/rand"
	"testing"

	"lsgraph/internal/gen"
	"lsgraph/internal/refgraph"
)

func TestShardOfCoversVertexSpace(t *testing.T) {
	for _, tc := range []struct{ n, s uint32 }{
		{16, 1}, {16, 4}, {17, 4}, {3, 4}, {1, 8}, {0, 4}, {1000, 7},
	} {
		g := New(tc.n, Config{Shards: int(tc.s)})
		if got := g.NumShards(); got != int(tc.s) {
			t.Fatalf("n=%d S=%d: NumShards=%d", tc.n, tc.s, got)
		}
		// Every vertex (and IDs past the initial space) routes to a valid
		// shard; in-space IDs land inside their shard's materialized range.
		total := uint32(0)
		for i := 0; i < g.NumShards(); i++ {
			sh := g.Shard(i)
			if sh.NumVertices() == 0 {
				continue
			}
			if sh.Base() != total {
				t.Fatalf("n=%d S=%d: shard %d base %d, want contiguous", tc.n, tc.s, i, sh.Base())
			}
			total = sh.Base() + sh.NumVertices()
		}
		if tc.n > 0 && total != tc.n {
			t.Fatalf("n=%d S=%d: shards cover [0,%d)", tc.n, tc.s, total)
		}
		for v := uint32(0); v < tc.n+64; v++ {
			i := g.ShardOf(v)
			if i < 0 || i >= g.NumShards() {
				t.Fatalf("ShardOf(%d)=%d out of range", v, i)
			}
			if v < tc.n {
				sh := g.Shard(i)
				if v < sh.Base() || v-sh.Base() >= sh.NumVertices() {
					t.Fatalf("n=%d S=%d: vertex %d routed to shard %d [%d,%d)",
						tc.n, tc.s, v, i, sh.Base(), sh.Base()+sh.NumVertices())
				}
			}
		}
	}
}

// TestShardedGraphMatchesOracle runs identical interleaved insert/delete
// batches through engines at several shard counts and checks each against
// the reference implementation — the cross-representation equivalence
// guarantee that Shards is a pure partitioning of the same graph.
func TestShardedGraphMatchesOracle(t *testing.T) {
	const nv = 1 << 11
	rm := gen.NewRMatPaper(11, 77)
	for _, S := range []int{1, 2, 3, 4, 8} {
		g := New(nv, Config{Shards: S, Workers: 8})
		ref := refgraph.New(nv)
		for round := 0; round < 3; round++ {
			es := rm.Edges(40000)
			src := make([]uint32, len(es))
			dst := make([]uint32, len(es))
			for i, e := range es {
				src[i], dst[i] = e.Src, e.Dst
				ref.Insert(e.Src, e.Dst)
			}
			g.InsertBatch(src, dst)

			del := es[:len(es)/3]
			dsrc := make([]uint32, 0, len(del))
			ddst := make([]uint32, 0, len(del))
			for _, e := range del {
				dsrc = append(dsrc, e.Src)
				ddst = append(ddst, e.Dst)
				ref.Delete(e.Src, e.Dst)
			}
			g.DeleteBatch(dsrc, ddst)
		}
		checkAgainstOracle(t, g, ref)
	}
}

// TestShardedGrowth exercises EnsureVertices and per-shard growth: edges
// stream over an ever-growing ID range at S=4 and the engine keeps
// matching the oracle.
func TestShardedGrowth(t *testing.T) {
	g := New(8, Config{Shards: 4})
	ref := refgraph.New(8)
	bound := uint32(8)
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 20; round++ {
		bound += uint32(rng.Intn(50))
		g.EnsureVertices(bound)
		ref.EnsureVertices(bound)
		src := make([]uint32, 200)
		dst := make([]uint32, 200)
		for i := range src {
			src[i] = uint32(rng.Intn(int(bound)))
			dst[i] = uint32(rng.Intn(int(bound)))
			ref.Insert(src[i], dst[i])
		}
		g.InsertBatch(src, dst)
	}
	checkAgainstOracle(t, g, ref)
}
