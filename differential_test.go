package lsgraph

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Differential test of the CC and BFS kernels on the two readers a caller
// hands them: after every randomized insert or delete batch on a
// symmetrized graph, ConnectedComponents and BFSLevels on a Graph and on a
// pinned view of a Store fed the same batches must equal a serial oracle
// computed here from the live edge set. The oracle is what makes a kernel
// fault fail: the Graph and the Store run the same kernel body.

const diffTestVerts = 80

// ukey is a live undirected edge, smaller endpoint first.
type ukey struct{ u, v uint32 }

// symmetrize returns es with the reverse of every edge appended, the
// undirected representation the kernels under test assume.
func symmetrize(es []Edge) []Edge {
	out := make([]Edge, 0, 2*len(es))
	for _, e := range es {
		out = append(out, e, Edge{Src: e.Dst, Dst: e.Src})
	}
	return out
}

// oracleCC labels every vertex of [0, n) with the smallest vertex ID of its
// component in the undirected edge set present: a union-find whose union
// keeps the smaller root, so each root is its set's minimum.
func oracleCC(n int, present map[ukey]bool) []uint32 {
	parent := make([]uint32, n)
	for v := range parent {
		parent[v] = uint32(v)
	}
	find := func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for k := range present {
		a, b := find(k.u), find(k.v)
		parent[max(a, b)] = min(a, b)
	}
	labels := make([]uint32, n)
	for v := range labels {
		labels[v] = find(uint32(v))
	}
	return labels
}

// oracleBFS returns every vertex's hop distance from src over the
// undirected edge set present, -1 if unreached: a serial queue BFS.
func oracleBFS(n int, present map[ukey]bool, src uint32) []int32 {
	adj := make([][]uint32, n)
	for k := range present {
		adj[k.u] = append(adj[k.u], k.v)
		adj[k.v] = append(adj[k.v], k.u)
	}
	depth := make([]int32, n)
	for v := range depth {
		depth[v] = -1
	}
	depth[src] = 0
	for queue := []uint32{src}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		for _, u := range adj[v] {
			if depth[u] == -1 {
				depth[u] = depth[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return depth
}

// checkEqual fails t at the first vertex where got and want differ.
func checkEqual[T comparable](t *testing.T, ctx string, got, want []T) {
	t.Helper()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d: kernel %v, oracle %v", ctx, v, got[v], want[v])
		}
	}
}

// kernelWorkload drives one seeded random insert/delete stream into a
// Graph and a Store of shards shards, and checks both readers' CC labels
// and BFS depths against the oracle after every batch.
func kernelWorkload(t *testing.T, seed int64, shards int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(diffTestVerts)
	st := NewStore(diffTestVerts, WithShards(shards))
	defer st.Close()

	// present tracks live undirected edges so delete batches can target
	// real edges; live lists them in a fixed order, so a seed replays.
	present := map[ukey]bool{}
	live := func() []ukey {
		ks := make([]ukey, 0, len(present))
		for k := range present {
			ks = append(ks, k)
		}
		slices.SortFunc(ks, func(a, b ukey) int { return cmp.Or(cmp.Compare(a.u, b.u), cmp.Compare(a.v, b.v)) })
		return ks
	}

	verify := func(round int, what string) {
		t.Helper()
		st.Flush()
		view := st.View()
		defer view.Release()
		wantCC, wantBFS := oracleCC(diffTestVerts, present), oracleBFS(diffTestVerts, present, 0)
		for _, r := range []struct {
			name string
			g    Reader
		}{{"graph", g}, {"store view", view}} {
			ctx := fmt.Sprintf("seed %d shards %d round %d after %s, %s", seed, shards, round, what, r.name)
			checkEqual(t, ctx+": CC label", ConnectedComponents(r.g), wantCC)
			checkEqual(t, ctx+": BFS depth", BFSLevels(r.g, 0), wantBFS)
		}
	}

	for round := 0; round < 12; round++ {
		// Insert batch: random undirected edges, duplicates possible.
		var ins []Edge
		for i := 0; i < 10+rng.Intn(30); i++ {
			u := uint32(rng.Intn(diffTestVerts))
			v := uint32(rng.Intn(diffTestVerts))
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
			u := uint32(rng.Intn(diffTestVerts))
			v := uint32(rng.Intn(diffTestVerts))
			if u != v && !present[ukey{min(u, v), max(u, v)}] {
				del = append(del, Edge{Src: u, Dst: v})
			}
		}
		if len(del) == 0 {
			continue
		}
		del = symmetrize(del)
		g.DeleteEdges(del)
		st.DeleteEdges(del)
		verify(round, "delete")
	}
}

// TestKernelDifferential sweeps seeds and the Store's shard count: CC and
// BFS on a Graph and on a Store view must match the oracle after every
// batch.
func TestKernelDifferential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				t.Parallel()
				kernelWorkload(t, seed, shards)
			})
		}
	}
}
