package lsgraph

import (
	"testing"
	"time"
)

// TestGraphIgnoresWithShards: WithShards partitions a Store only; a Graph
// built with it is the paper's engine of one vertex range.
func TestGraphIgnoresWithShards(t *testing.T) {
	for _, g := range []*Graph{New(64, WithShards(4)), NewFromEdges(64, []Edge{{1, 2}, {60, 3}}, WithShards(4))} {
		if n := len(g.g.PartitionMap().Starts); n != 1 {
			t.Fatalf("a Graph built WithShards(4) has %d ranges, want 1", n)
		}
	}
}

// TestShardedGraphAndStoreEquivalence builds the same graph through the
// phase-alternating Graph, which ignores WithShards, and through the
// concurrent Store at several shard counts, and checks that structure and
// kernel results are identical — WithShards is a pure partitioning of the
// same graph.
func TestShardedGraphAndStoreEquivalence(t *testing.T) {
	es := symEdges(t, 9, 4000, 21)
	base := NewFromEdges(512, es)
	wantCC := ConnectedComponents(base)
	wantBFS := BFSLevels(base, 0)

	for _, S := range []int{2, 4, 8} {
		g := NewFromEdges(512, es, WithShards(S), WithWorkers(4))
		if g.NumEdges() != base.NumEdges() {
			t.Fatalf("S=%d: graph m=%d want %d", S, g.NumEdges(), base.NumEdges())
		}
		for v := uint32(0); v < 512; v++ {
			if g.Degree(v) != base.Degree(v) {
				t.Fatalf("S=%d: deg(%d)=%d want %d", S, v, g.Degree(v), base.Degree(v))
			}
		}

		st := NewStore(512, WithShards(S), WithWorkers(4))
		if st.Shards() != S {
			t.Fatalf("Shards()=%d want %d", st.Shards(), S)
		}
		st.InsertEdges(es)
		st.Flush()
		v := st.View()
		if v.NumEdges() != base.NumEdges() {
			t.Fatalf("S=%d: view m=%d want %d", S, v.NumEdges(), base.NumEdges())
		}
		gotCC := ConnectedComponents(v)
		gotBFS := BFSLevels(v, 0)
		for u := uint32(0); u < 512; u++ {
			if gotCC[u] != wantCC[u] {
				t.Fatalf("S=%d: CC label of %d differs", S, u)
			}
			if gotBFS[u] != wantBFS[u] {
				t.Fatalf("S=%d: BFS level of %d differs", S, u)
			}
		}
		v.Release()
		st.Close()
	}
}

// TestStoreAutoGrowPublic checks the public-surface auto-grow contract:
// inserting an edge beyond the store's vertex space grows it instead of
// panicking, and the new vertices are readable after flush.
func TestStoreAutoGrowPublic(t *testing.T) {
	st := NewStore(4, WithShards(2))
	defer st.Close()
	st.InsertEdges([]Edge{{Src: 1000, Dst: 2}, {Src: 2, Dst: 1000}})
	st.Flush()
	if st.NumVertices() < 1001 {
		t.Fatalf("NumVertices=%d, want >= 1001", st.NumVertices())
	}
	v := st.View()
	defer v.Release()
	if v.Degree(1000) != 1 || v.Neighbors(1000)[0] != 2 {
		t.Fatalf("grown vertex: deg=%d ns=%v", v.Degree(1000), v.Neighbors(1000))
	}
	if got := BFS(v, 2); got[1000] != 2 {
		t.Fatalf("BFS across grown space: parent[1000]=%d", got[1000])
	}
}

// TestStoreRebalancePublic exercises the public rebalancing surface:
// Partition introspection, an explicit Rebalance on a skewed store, and
// kernel agreement with an unsharded baseline after the map changes.
func TestStoreRebalancePublic(t *testing.T) {
	const n = 2048
	st := NewStore(n, WithShards(4))
	defer st.Close()
	// Skew: every source in the first shard's range.
	var es []Edge
	for i := uint32(0); i < 6000; i++ {
		es = append(es, Edge{Src: i % 64, Dst: (i*31 + 1) % n})
	}
	st.InsertEdges(es)
	st.Flush()

	before := st.Partition()
	if before.Epoch != 0 || len(before.Starts) != 4 {
		t.Fatalf("initial partition %+v", before)
	}
	res, err := st.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves == 0 || res.SkewPctAfter > res.SkewPctBefore/2 {
		t.Fatalf("rebalance ineffective: %+v", res)
	}
	if p := st.Partition(); p.Epoch == 0 {
		t.Fatal("partition epoch did not advance")
	}

	base := NewFromEdges(n, es)
	v := st.View()
	defer v.Release()
	if v.NumEdges() != base.NumEdges() {
		t.Fatalf("rebalanced store has %d edges, baseline %d", v.NumEdges(), base.NumEdges())
	}
	want := ConnectedComponents(base)
	got := ConnectedComponents(v)
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("CC label of %d differs after rebalance", u)
		}
	}
}

// TestStoreAutoRebalancePublic checks the WithAutoRebalance option end to
// end: a skewed ingest stream triggers background boundary moves without
// any explicit Rebalance call.
func TestStoreAutoRebalancePublic(t *testing.T) {
	st := NewStore(2048, WithShards(4), WithAutoRebalance(1.3))
	defer st.Close()
	var es []Edge
	for i := uint32(0); i < 8000; i++ {
		es = append(es, Edge{Src: i % 32, Dst: (i*17 + 1) % 2048})
	}
	st.InsertEdges(es)
	st.Flush()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st.Stats().BoundaryMoves > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("auto-rebalancer never moved a boundary on a skewed store")
}
