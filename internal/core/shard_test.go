package core

import (
	"math/rand"
	"slices"
	"testing"

	"lsgraph/internal/gen"
	"lsgraph/internal/refgraph"
)

// TestShardOfCoversVertexSpace: the partition map a Graph cuts its Shard
// handles' ranges by tiles the vertex space from 0, every ID routes to a
// range (IDs past the initial space to the last), in-space IDs to the one
// holding them, and each handle's Base is its range's start.
func TestShardOfCoversVertexSpace(t *testing.T) {
	for _, tc := range []struct{ n, s uint32 }{
		{16, 1}, {16, 4}, {17, 4}, {3, 4}, {1, 8}, {0, 4}, {1000, 7},
	} {
		g := New(tc.n, Config{Shards: int(tc.s)})
		pm := g.PartitionMap()
		if got := len(pm.Starts); got != int(tc.s) {
			t.Fatalf("n=%d S=%d: %d ranges", tc.n, tc.s, got)
		}
		if pm.Starts[0] != 0 {
			t.Fatalf("n=%d S=%d: the first range starts at %d", tc.n, tc.s, pm.Starts[0])
		}
		for i, start := range pm.Starts {
			if i > 0 && start <= pm.Starts[i-1] {
				t.Fatalf("n=%d S=%d: starts %v not strictly increasing", tc.n, tc.s, pm.Starts)
			}
			if b := g.Shard(i).Base(); b != start {
				t.Fatalf("n=%d S=%d: handle %d base %d, range starts at %d", tc.n, tc.s, i, b, start)
			}
		}
		for v := uint32(0); v < tc.n+64; v++ {
			i := pm.ShardOf(v)
			if i < 0 || i >= len(pm.Starts) || v < pm.Starts[i] || i+1 < len(pm.Starts) && v >= pm.Starts[i+1] {
				t.Fatalf("n=%d S=%d: vertex %d routed to range %d of %v", tc.n, tc.s, v, i, pm.Starts)
			}
		}
	}
}

// TestShardHandlesMatchGraph drives a Graph's Shard handles the way the
// benchmark's per-layer timings do: scatter a batch, and for each range
// grow the vertex space, insert its part and flatten it. Each range's local
// CSR must be that range's slice of the whole graph's CSR and hold the
// oracle's neighbors; the handles' batches must leave no scratch but the
// graph's one pipeline's, which MemoryBreakdown reports; deleting every part
// again, one handle after another, must give back the base graph. The batch
// names vertices past the initial space, so the last range grows.
func TestShardHandlesMatchGraph(t *testing.T) {
	const n = 1 << 12
	for _, S := range []int{2, 3} {
		ref, want := refgraph.New(n), refgraph.New(n) // the base graph; base and batch
		base := gen.NewRMatPaper(12, 5).Edges(30000)
		src, dst := make([]uint32, len(base)), make([]uint32, len(base))
		for i, e := range base {
			src[i], dst[i] = e.Src, e.Dst
			ref.Insert(e.Src, e.Dst)
			want.Insert(e.Src, e.Dst)
		}
		g := NewFromEdges(n, src, dst, Config{Shards: S, Workers: 4, ArrayMax: 8, M: 64})

		// The batch: fresh edges only, so deleting it restores the base.
		src, dst = src[:0], dst[:0]
		for _, e := range gen.NewRMatPaper(13, uint64(7+S)).Edges(24000) {
			if e.Src >= n || !ref.Has(e.Src, e.Dst) {
				src, dst = append(src, e.Src), append(dst, e.Dst)
			}
		}
		bound := uint32(0)
		for i := range src {
			bound = max(bound, src[i]+1, dst[i]+1)
		}
		want.EnsureVertices(bound)
		for i := range src {
			want.Insert(src[i], dst[i])
		}

		parts, b := g.ScatterBatch(src, dst)
		if b != bound || len(parts) != S {
			t.Fatalf("S=%d: %d parts, bound %d, want %d and %d", S, len(parts), b, S, bound)
		}
		snaps := make([]*Snapshot, S)
		for k, p := range parts {
			sh := g.Shard(k)
			sh.EnsureVertices(b)
			sh.InsertBatch(p.Src, p.Dst)
			snaps[k] = sh.SnapshotInto(snaps[k])
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("S=%d: %v", S, err)
		}
		checkAgainstOracle(t, g, want)
		offs, adj := g.Snapshot().CSR()
		for k, snap := range snaps {
			lo := g.Shard(k).Base()
			hi := b
			if k+1 < S {
				hi = g.Shard(k + 1).Base()
			}
			lOffs, lAdj := snap.CSR()
			if len(lOffs) != int(hi-lo)+1 {
				t.Fatalf("S=%d: range %d [%d,%d) flattened %d vertices", S, k, lo, hi, len(lOffs)-1)
			}
			for v := lo; v < hi; v++ {
				got := lAdj[lOffs[v-lo]:lOffs[v-lo+1]]
				if !slices.Equal(got, adj[offs[v]:offs[v+1]]) || !slices.Equal(got, want.Neighbors(v)) {
					t.Fatalf("S=%d: range %d vertex %d: local CSR %v, graph CSR %v, oracle %v",
						S, k, v, got, adj[offs[v]:offs[v+1]], want.Neighbors(v))
				}
			}
		}

		if got, want := g.MemoryBreakdown().Scratch, g.pc.scratchBytes(); got != want {
			t.Fatalf("S=%d: the graph holds %d bytes of scratch after the handles' batches, its pipeline %d", S, got, want)
		}

		for k, p := range parts {
			g.Shard(k).DeleteBatch(p.Src, p.Dst)
		}
		ref.EnsureVertices(b)
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("S=%d after the deletes: %v", S, err)
		}
		checkAgainstOracle(t, g, ref)
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
