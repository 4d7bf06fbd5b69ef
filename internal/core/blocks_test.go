package core

import (
	"math/rand"
	"testing"

	"lsgraph/internal/engine"
	"lsgraph/internal/gen"
	"lsgraph/internal/refgraph"
)

// requireBlocksMatchOracle checks every vertex's block walk on g against
// the oracle's adjacency: non-empty blocks, strictly ascending across
// block boundaries, early stop honoured, Degree(v) elements in all.
func requireBlocksMatchOracle(t *testing.T, g engine.Graph, ref *refgraph.Graph) {
	t.Helper()
	for v := uint32(0); v < ref.NumVertices(); v++ {
		want := ref.Neighbors(v)
		if d := g.Degree(v); int(d) != len(want) {
			t.Fatalf("vertex %d: Degree %d, oracle %d", v, d, len(want))
		}
		walk := func(y func([]uint32) bool) { g.NeighborBlocks(v, y) }
		if err := engine.CheckBlocks(walk, want); err != nil {
			t.Fatalf("vertex %d: %v", v, err)
		}
	}
}

// TestNeighborBlocksMatchForEachUnderChurn runs randomized batch churn —
// small thresholds force inline→array→RIA→HITree promotions — across all
// shard counts, checking the block walk of the live graph and of its CSR
// snapshot against the oracle after every batch.
func TestNeighborBlocksMatchForEachUnderChurn(t *testing.T) {
	const n = 512
	for _, shards := range []int{1, 2, 4, 7} {
		cfg := Config{Shards: shards, Workers: 2, ArrayMax: 8, M: 64}
		g := New(n, cfg)
		ref := refgraph.New(n)
		rm := gen.NewRMatPaper(9, uint64(31+shards))
		rng := rand.New(rand.NewSource(int64(shards)))
		for round := 0; round < 5; round++ {
			batch := rm.Edges(2500)
			src := make([]uint32, len(batch))
			dst := make([]uint32, len(batch))
			for i, e := range batch {
				src[i], dst[i] = e.Src, e.Dst
				ref.Insert(e.Src, e.Dst)
			}
			g.InsertBatch(src, dst)
			// Delete a random slice of the batch again.
			k := rng.Intn(len(batch))
			g.DeleteBatch(src[:k], dst[:k])
			for i := 0; i < k; i++ {
				ref.Delete(src[i], dst[i])
			}
			requireBlocksMatchOracle(t, g, ref)
			// The snapshot serves the same block contract from CSR.
			requireBlocksMatchOracle(t, g.Snapshot(), ref)
		}
	}
}

// TestNeighborBlocksEarlyStop checks that yield returning false stops
// iteration mid-adjacency, including across the inline/overflow seam.
func TestNeighborBlocksEarlyStop(t *testing.T) {
	g := New(1024, Config{ArrayMax: 8, M: 64})
	var src, dst []uint32
	for u := uint32(1); u < 1000; u++ {
		src = append(src, 0)
		dst = append(dst, u)
	}
	g.InsertBatch(src, dst) // vertex 0 holds inline + HITree overflow
	calls := 0
	g.NeighborBlocks(0, func(bs []uint32) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("yield called %d times after returning false", calls)
	}
}
