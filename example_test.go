package lsgraph_test

import (
	"fmt"

	"lsgraph"
)

// sym returns both directions of the given undirected edges.
func sym(pairs ...[2]uint32) []lsgraph.Edge {
	var es []lsgraph.Edge
	for _, p := range pairs {
		es = append(es,
			lsgraph.Edge{Src: p[0], Dst: p[1]},
			lsgraph.Edge{Src: p[1], Dst: p[0]})
	}
	return es
}

func Example() {
	g := lsgraph.NewFromEdges(5, sym([2]uint32{0, 1}, [2]uint32{1, 2}, [2]uint32{2, 3}))
	fmt.Println("edges:", g.NumEdges())
	fmt.Println("neighbors of 1:", g.Neighbors(1))
	g.DeleteEdges(sym([2]uint32{1, 2}))
	fmt.Println("after delete:", g.Neighbors(1))
	// Output:
	// edges: 6
	// neighbors of 1: [0 2]
	// after delete: [0]
}

func ExampleBFS() {
	g := lsgraph.NewFromEdges(5, sym([2]uint32{0, 1}, [2]uint32{1, 2}))
	depth := lsgraph.BFSLevels(g, 0)
	fmt.Println(depth)
	// Output: [0 1 2 -1 -1]
}

func ExampleConnectedComponents() {
	g := lsgraph.NewFromEdges(6, sym([2]uint32{0, 1}, [2]uint32{3, 4}))
	fmt.Println(lsgraph.ConnectedComponents(g))
	// Output: [0 0 2 3 3 5]
}

func ExampleTriangleCount() {
	// A triangle plus a dangling edge.
	g := lsgraph.NewFromEdges(5, sym(
		[2]uint32{0, 1}, [2]uint32{1, 2}, [2]uint32{0, 2}, [2]uint32{2, 3}))
	tri, _, _ := lsgraph.TriangleCount(g)
	fmt.Println(tri)
	// Output: 1
}

func ExampleGraph_InsertEdges() {
	g := lsgraph.New(4)
	g.InsertEdges([]lsgraph.Edge{{Src: 2, Dst: 3}, {Src: 2, Dst: 3}}) // duplicates collapse
	fmt.Println(g.NumEdges(), g.Has(2, 3))
	// Output: 1 true
}

func ExampleGraph_Snapshot() {
	g := lsgraph.NewFromEdges(3, sym([2]uint32{0, 1}))
	snap := g.Snapshot()
	g.InsertEdges(sym([2]uint32{1, 2}))
	fmt.Println(snap.Degree(1), g.Degree(1))
	// Output: 1 2
}
