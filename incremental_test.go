package lsgraph

import (
	"fmt"
	"math/rand"
	"testing"
)

// Differential tests for the incremental maintainers: after every
// randomized insert/delete batch on a symmetrized graph, IncrementalCC
// and IncrementalBFS must agree exactly with the from-scratch kernels on
// the same graph. This is the streaming-analytics contract of §3.1: the
// incremental path is an optimization, never a different answer.

const incrTestVerts = 80

// symmetrize returns es with the reverse of every edge appended, the
// undirected representation the maintainers require.
func symmetrize(es []Edge) []Edge {
	out := make([]Edge, 0, 2*len(es))
	for _, e := range es {
		out = append(out, e, Edge{Src: e.Dst, Dst: e.Src})
	}
	return out
}

// canonicalLabels rewrites arbitrary component labels into
// min-vertex-ID-per-component form so two labelings can be compared
// regardless of which representative each algorithm picked.
func canonicalLabels(labels []uint32) []uint32 {
	min := map[uint32]uint32{}
	for v, l := range labels {
		if m, ok := min[l]; !ok || uint32(v) < m {
			min[l] = uint32(v)
		}
	}
	out := make([]uint32, len(labels))
	for v, l := range labels {
		out[v] = min[l]
	}
	return out
}

// incrWorkload drives one seeded random insert/delete stream into a Graph
// and checks both maintainers after every batch against the from-scratch
// kernels on a pinned view of a Store of shards shards fed the same batches.
func incrWorkload(t *testing.T, seed int64, shards int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(incrTestVerts)
	cc := NewIncrementalCC(g)
	bfs := NewIncrementalBFS(g, 0)
	st := NewStore(incrTestVerts, WithShards(shards))
	defer st.Close()

	// present tracks live undirected edges (smaller endpoint first) so
	// delete batches can target real edges.
	type ukey struct{ u, v uint32 }
	present := map[ukey]bool{}
	live := func() []ukey {
		ks := make([]ukey, 0, len(present))
		for k := range present {
			ks = append(ks, k)
		}
		return ks
	}

	verify := func(round int, what string) {
		t.Helper()
		ctx := fmt.Sprintf("seed %d shards %d round %d after %s", seed, shards, round, what)
		st.Flush()
		view := st.View()
		defer view.Release()
		got := canonicalLabels(cc.Labels())
		want := canonicalLabels(ConnectedComponents(view))
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: CC label of %d: incremental %d, from-scratch %d", ctx, v, got[v], want[v])
			}
		}
		gd, wd := bfs.Depths(), BFSLevels(view, 0)
		for v := range wd {
			if gd[v] != wd[v] {
				t.Fatalf("%s: BFS depth of %d: incremental %d, from-scratch %d", ctx, v, gd[v], wd[v])
			}
		}
	}

	for round := 0; round < 12; round++ {
		// Insert batch: random undirected edges, duplicates possible.
		var ins []Edge
		for i := 0; i < 10+rng.Intn(30); i++ {
			u := uint32(rng.Intn(incrTestVerts))
			v := uint32(rng.Intn(incrTestVerts))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			ins = append(ins, Edge{Src: u, Dst: v})
			present[ukey{u, v}] = true
		}
		ins = symmetrize(ins)
		g.InsertEdges(ins)
		st.InsertEdges(ins)
		cc.OnInsert(ins)
		bfs.OnInsert(ins)
		verify(round, "insert")

		// Delete batch: mostly live edges (so components can split and
		// shortest paths can lengthen), plus a few absent no-ops.
		var del []Edge
		for _, k := range live() {
			if rng.Intn(4) == 0 {
				del = append(del, Edge{Src: k.u, Dst: k.v})
				delete(present, k)
			}
		}
		for i := 0; i < 3; i++ {
			u := uint32(rng.Intn(incrTestVerts))
			v := uint32(rng.Intn(incrTestVerts))
			if u != v && !present[ukey{min32(u, v), max32(u, v)}] {
				del = append(del, Edge{Src: u, Dst: v})
			}
		}
		if len(del) == 0 {
			continue
		}
		del = symmetrize(del)
		g.DeleteEdges(del)
		st.DeleteEdges(del)
		cc.OnDelete(del)
		bfs.OnDelete(del)
		verify(round, "delete")
	}
}

func min32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

// TestIncrementalDifferential sweeps seeds and the shard count of the
// reference Store: incremental CC and BFS must match their from-scratch
// counterparts after every batch.
func TestIncrementalDifferential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for seed := int64(0); seed < 4; seed++ {
			shards, seed := shards, seed
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				t.Parallel()
				incrWorkload(t, seed, shards)
			})
		}
	}
}

// TestIncrementalDeleteFallback pins the safety property behind the
// fallback heuristic: randomized delete-heavy streams must stay exact even
// when some deletions are repairable without a full recomputation (the
// maintainers may recompute, but never return a stale answer).
func TestIncrementalDeleteFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := New(16)
	cc := NewIncrementalCC(g)
	bfs := NewIncrementalBFS(g, 0)

	// A path 0-1-2-...-15: every interior deletion splits a component and
	// lengthens distances, forcing the recomputation path.
	var path []Edge
	for u := uint32(0); u < 15; u++ {
		path = append(path, Edge{Src: u, Dst: u + 1})
	}
	path = symmetrize(path)
	g.InsertEdges(path)
	cc.OnInsert(path)
	bfs.OnInsert(path)

	for i := 0; i < 8; i++ {
		u := uint32(1 + rng.Intn(13))
		cut := symmetrize([]Edge{{Src: u, Dst: u + 1}})
		g.DeleteEdges(cut)
		cc.OnDelete(cut)
		bfs.OnDelete(cut)

		got := canonicalLabels(cc.Labels())
		want := canonicalLabels(ConnectedComponents(g))
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("cut %d: CC label of %d: incremental %d, from-scratch %d", i, v, got[v], want[v])
			}
		}
		gd, wd := bfs.Depths(), BFSLevels(g, 0)
		for v := range wd {
			if gd[v] != wd[v] {
				t.Fatalf("cut %d: BFS depth of %d: incremental %d, from-scratch %d", i, v, gd[v], wd[v])
			}
		}
		// Reconnect so later cuts keep hitting live edges.
		g.InsertEdges(cut)
		cc.OnInsert(cut)
		bfs.OnInsert(cut)
	}
	if cc.Recomputes() == 0 && bfs.Recomputes() == 0 {
		t.Error("delete-heavy stream never exercised the recomputation fallback")
	}
}
