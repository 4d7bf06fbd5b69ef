package serve

import (
	"fmt"
	"slices"
	"testing"

	"lsgraph/internal/core"
	"lsgraph/internal/engine"
	"lsgraph/internal/refgraph"
)

// rangeCall is one yield of a NeighborRange walk, its block copied.
type rangeCall struct {
	v     uint32
	block []uint32
}

// checkRangeAgainst walks g.NeighborRange(lo, hi) with a yield that returns
// false at call stopAt (never when stopAt is 0) and compares the calls with
// what adj says a one-block-per-vertex reader yields: each vertex of [lo,
// min(hi, nv)) once, with its whole adjacency.
func checkRangeAgainst(g engine.Graph, nv uint32, adj func(u uint32) []uint32, lo, hi uint32, stopAt int) error {
	var want []rangeCall
	for u := lo; u < min(hi, nv) && (stopAt == 0 || len(want) < stopAt); u++ {
		want = append(want, rangeCall{u, adj(u)})
	}
	var got []rangeCall
	g.NeighborRange(lo, hi, func(u uint32, b []uint32) bool {
		got = append(got, rangeCall{u, slices.Clone(b)})
		return len(got) != stopAt
	})
	if len(got) != len(want) {
		return fmt.Errorf("NeighborRange(%d, %d) stopping at call %d made %d calls, want %d", lo, hi, stopAt, len(got), len(want))
	}
	for i := range want {
		if got[i].v != want[i].v || !slices.Equal(got[i].block, want[i].block) {
			return fmt.Errorf("NeighborRange(%d, %d): call %d yields vertex %d %v, want vertex %d %v",
				lo, hi, i, got[i].v, got[i].block, want[i].v, want[i].block)
		}
	}
	return nil
}

// frozenAdj copies the oracle's adjacency, for checking a view pinned
// before later updates; IDs past the copy have none.
func frozenAdj(ref *refgraph.Graph) func(u uint32) []uint32 {
	adj := make([][]uint32, ref.NumVertices())
	for u := range adj {
		adj[u] = slices.Clone(ref.Neighbors(uint32(u)))
	}
	return func(u uint32) []uint32 {
		if int(u) < len(adj) {
			return adj[u]
		}
		return nil
	}
}

// runRangeProgram drives a Store through a byte program and checks
// NeighborRange on its views and on the Store itself against refgraph. The
// first byte picks the shard count (1–4) over 16 initial vertices; then
// each op is a byte and its operands:
//
//	b%6 == 0, 1: an insert (0) or delete (1) batch of 1+next%8 edges, a byte
//	             per endpoint, over vertices [0, 40), flushed;
//	b%6 == 2:    a boundary move of boundary next%(shards-1) to next%48;
//	b%6 == 3:    a reservation of next%16 more vertex IDs, which no shard
//	             materializes until a batch reaches them;
//	b%6 == 4:    pin a view and a copy of the oracle (if none is pinned),
//	             kept across every later op;
//	b%6 == 5:    a range check: lo = next%44, hi = lo+next%44, a stop at
//	             call next%8 (0: none), on a fresh view, the pinned view and
//	             the Store.
//
// At the end every view held passes engine.CheckRange and a whole-range
// check.
func runRangeProgram(t *testing.T, prog []byte) {
	shards := 1
	if len(prog) > 0 {
		shards, prog = 1+int(prog[0])%4, prog[1:]
	}
	st := New(core.NewPaged(16, core.Config{Workers: 2, Shards: shards}), Options{})
	defer st.Close()
	ref := refgraph.New(16)
	next := func() uint32 {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return uint32(b)
	}
	var pinned *View
	var pinnedAdj func(uint32) []uint32
	defer func() {
		if pinned != nil {
			pinned.Release()
		}
	}()
	current := func(u uint32) []uint32 {
		if u < ref.NumVertices() {
			return ref.Neighbors(u)
		}
		return nil
	}
	check := func(g engine.Graph, nv uint32, adj func(uint32) []uint32, lo, hi uint32, stop int, what string) {
		t.Helper()
		if err := checkRangeAgainst(g, nv, adj, lo, hi, stop); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	for len(prog) > 0 {
		switch op := next(); op % 6 {
		case 0, 1:
			k := 1 + int(next())%8
			src, dst := make([]uint32, k), make([]uint32, k)
			for i := range src {
				src[i], dst[i] = next()%40, next()%40
			}
			ref.EnsureVertices(max(slices.Max(src), slices.Max(dst)) + 1)
			for i := range src {
				if op%6 == 0 {
					ref.Insert(src[i], dst[i])
					continue
				}
				ref.Delete(src[i], dst[i])
			}
			if op%6 == 0 {
				st.InsertBatch(src, dst)
			} else {
				st.DeleteBatch(src, dst)
			}
			st.Flush()
		case 2:
			k, to := next(), next()%48
			if shards > 1 {
				st.MoveBoundary(int(k)%(shards-1), to) // a refused move is a no-op
			}
		case 3:
			st.g.ReserveVertices(st.NumVertices() + next()%16)
		case 4:
			if pinned == nil {
				pinned, pinnedAdj = st.View(), frozenAdj(ref)
			}
		case 5:
			lo := next() % 44
			hi, stop := lo+next()%44, int(next()%8)
			v := st.View()
			check(v, v.NumVertices(), current, lo, hi, stop, "fresh view")
			v.Release()
			if pinned != nil {
				check(pinned, pinned.NumVertices(), pinnedAdj, lo, hi, stop, "pinned view")
			}
			check(st, st.NumVertices(), current, lo, hi, stop, "store")
		}
	}
	v := st.View()
	defer v.Release()
	for _, c := range []struct {
		v   *View
		adj func(uint32) []uint32
	}{{v, current}, {pinned, pinnedAdj}} {
		if c.v == nil {
			continue
		}
		if err := engine.CheckRange(c.v); err != nil {
			t.Fatal(err)
		}
		check(c.v, c.v.NumVertices(), c.adj, 0, c.v.NumVertices(), 0, "whole range")
	}
}

// FuzzViewRange is the differential check of the sweep read: a random
// insert/delete/boundary-move/growth stream (runRangeProgram), then random
// ranges with random early stops on fresh and long-pinned views and on the
// Store, against refgraph. The seeds under testdata/fuzz/FuzzViewRange
// cover moves under a pinned view, reserved IDs past every shard's
// materialized range, and stops at first, middle and last calls.
func FuzzViewRange(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			return // longer programs add time, not coverage
		}
		runRangeProgram(t, prog)
	})
}

// TestViewRangeAcrossMovesAndGrowth pins a three-shard view, moves both
// boundaries and grows the vertex space past what any shard has
// materialized, and requires the pinned view, a fresh one and the Store to
// keep the NeighborRange contract (engine.CheckRange) with the oracle's
// adjacency.
func TestViewRangeAcrossMovesAndGrowth(t *testing.T) {
	const n = 300
	st := New(core.NewPaged(n, core.Config{Workers: 2, Shards: 3}), Options{})
	defer st.Close()
	ref := refgraph.New(n)
	var src, dst []uint32
	for i := uint32(0); i < 4*n; i++ {
		u, w := (i*7919)%n, (i*104729+13)%n
		if u%5 == 0 {
			continue // leave vertices without edges in every shard
		}
		src, dst = append(src, u), append(dst, w)
		ref.Insert(u, w)
	}
	st.InsertBatch(src, dst)
	st.Flush()
	pinned, pinnedAdj := st.View(), frozenAdj(ref)
	defer pinned.Release()

	starts := st.Partition().Starts
	for k, to := range []uint32{starts[1] - 37, starts[2] + 41} {
		if _, _, err := st.MoveBoundary(k, to); err != nil {
			t.Fatalf("move boundary %d to %d: %v", k, to, err)
		}
	}
	st.InsertBatch([]uint32{1, 2}, []uint32{2, 1})
	st.Flush()
	ref.Insert(1, 2)
	ref.Insert(2, 1)
	st.g.ReserveVertices(n + 40)

	fresh := st.View()
	defer fresh.Release()
	if fresh.NumVertices() != n+40 {
		t.Fatalf("fresh view has %d vertices, want %d", fresh.NumVertices(), n+40)
	}
	current := func(u uint32) []uint32 {
		if u < ref.NumVertices() {
			return ref.Neighbors(u)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		g    engine.Graph
		nv   uint32
		adj  func(uint32) []uint32
	}{
		{"pinned view", pinned, pinned.NumVertices(), pinnedAdj},
		{"fresh view", fresh, fresh.NumVertices(), current},
		{"store", st, st.NumVertices(), current},
	} {
		if err := engine.CheckRange(c.g); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, r := range [][2]uint32{{0, c.nv}, {starts[1] - 50, starts[2] + 50}, {n - 5, n + 100}} {
			if err := checkRangeAgainst(c.g, c.nv, c.adj, r[0], r[1], 0); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
	}
}
