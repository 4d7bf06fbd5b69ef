// Package engine defines the interface every streaming graph engine in this
// repository implements — LSGraph itself and the three baselines (Terrace,
// Aspen, PaC-tree). The analytics kernels and the benchmark harness are
// written against this interface so all four systems run identical code
// above the storage layer, mirroring how the paper layers Ligra-style
// primitives over each system.
package engine

import (
	"fmt"
	"math"
	"slices"
)

// Graph is the analytics-facing read interface. Every engine keeps
// adjacency in contiguous runs (that is the paper's locality argument, and
// equally true of Aspen's chunks, PaC-tree's leaves and Terrace's tiers), so
// readers see runs, not edges, through two neighbour reads: NeighborBlocks,
// the point read, for loops driven by a frontier or any other vertex list;
// and NeighborRange, the sweep read, for loops over every vertex in ID order
// (one call per parallel chunk), which pays the engine's per-vertex routing
// once per range instead of once per vertex. Code that wants one call per
// edge uses the ForEachNeighbor helper.
type Graph interface {
	// NumVertices returns the number of vertex slots (IDs are dense
	// [0, NumVertices)).
	NumVertices() uint32
	// NumEdges returns the number of directed edges currently stored.
	NumEdges() uint64
	// Degree returns the out-degree of v.
	Degree(v uint32) uint32
	// NeighborBlocks yields v's out-neighbors as a sequence of non-empty
	// []uint32 blocks, strictly ascending within and across blocks: the
	// paper's analytics (notably triangle counting's set intersections)
	// rely on ordered neighbors. A block normally aliases the engine's
	// backing storage (or, where the stored form is not a []uint32, a
	// per-call staging buffer the engine refills): it is valid only until
	// yield returns and must not be mutated or retained. Returning false
	// from yield stops the iteration. It must be safe to call concurrently
	// from multiple goroutines for distinct or identical v as long as no
	// update is in flight.
	NeighborBlocks(v uint32, yield func(block []uint32) bool)
	// NeighborRange walks the vertices [lo, min(hi, NumVertices())) in
	// ascending order, yielding (v, block) once per block NeighborBlocks(v)
	// would yield, in the same order; a vertex with no edges — including
	// one past a pinned snapshot's materialized range — is yielded exactly
	// once, with an empty block. Blocks follow NeighborBlocks' aliasing
	// rules, and returning false from yield stops the whole walk. A sweep
	// over all vertices in ID order uses it, one call per chunk.
	NeighborRange(lo, hi uint32, yield func(v uint32, block []uint32) bool)
}

// Update is the mutation interface. Batches may contain duplicates and
// edges already present (for insert) or absent (for delete); engines must
// tolerate both, applying set semantics.
type Update interface {
	// InsertBatch adds the directed edges (src[i] -> dst[i]).
	InsertBatch(src, dst []uint32)
	// DeleteBatch removes the directed edges.
	DeleteBatch(src, dst []uint32)
}

// Engine is a complete streaming graph system.
type Engine interface {
	Graph
	Update
	// MemoryUsage returns the engine's estimated resident bytes for graph
	// storage (Table 3).
	MemoryUsage() uint64
	// Name identifies the engine in benchmark output.
	Name() string
}

// ForEachNeighbor applies f to each out-neighbor of v in ascending order:
// a range over v's blocks, for callers whose per-edge work dwarfs the call.
func ForEachNeighbor(g Graph, v uint32, f func(u uint32)) {
	g.NeighborBlocks(v, func(block []uint32) bool {
		for _, u := range block {
			f(u)
		}
		return true
	})
}

// Neighbors collects v's neighbors into a fresh slice (copying, unlike the
// yielded blocks).
func Neighbors(g Graph, v uint32) []uint32 {
	out := make([]uint32, 0, g.Degree(v))
	g.NeighborBlocks(v, func(block []uint32) bool {
		out = append(out, block...)
		return true
	})
	return out
}

// CheckBlocks reports the first way a block walk departs from the
// NeighborBlocks contract, or nil. walk is a NeighborBlocks call (or a
// container's Blocks) bound to its receiver; want is the expected content
// in ascending order. It checks that no block is empty, that elements are
// strictly ascending within and across blocks, that the concatenation is
// exactly want, and that a yield returning false — tried at the first and
// at a middle block — is the last call the walk makes.
func CheckBlocks(walk func(yield func(block []uint32) bool), want []uint32) error {
	var got []uint32
	blocks := 0
	var err error
	walk(func(b []uint32) bool {
		blocks++
		if len(b) == 0 {
			err = fmt.Errorf("block %d is empty", blocks-1)
			return false
		}
		got = append(got, b...)
		return true
	})
	if err != nil {
		return err
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			return fmt.Errorf("not strictly ascending at %d: %d after %d", i, got[i], got[i-1])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("walk yields %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("element %d is %d, want %d", i, got[i], want[i])
		}
	}
	for _, stopAt := range []int{1, blocks/2 + 1} {
		if stopAt > blocks {
			continue
		}
		calls := 0
		walk(func([]uint32) bool {
			calls++
			return calls < stopAt
		})
		if calls != stopAt {
			return fmt.Errorf("yield returned false at call %d of %d but the walk made %d calls", stopAt, blocks, calls)
		}
	}
	return nil
}

// CheckRange reports the first way g's NeighborRange departs from its
// contract, or nil, taking per-vertex NeighborBlocks as the truth. Over the
// whole vertex space, empty ranges (lo == hi), ranges reaching past
// NumVertices and ranges starting past it, it checks that every vertex is
// yielded in ascending order with exactly NeighborBlocks' blocks, that a
// vertex without edges is yielded once with an empty block, and that a
// yield returning false — tried at the first and at a middle block — is
// the last call the walk makes.
func CheckRange(g Graph) error {
	n := g.NumVertices()
	for _, r := range [][2]uint32{
		{0, n}, {0, 0}, {n / 2, n / 2}, {n, n}, {n / 3, n - n/3},
		{n / 2, n + 7}, {n, n + 3}, {0, math.MaxUint32},
	} {
		if err := checkRange(g, r[0], r[1]); err != nil {
			return fmt.Errorf("NeighborRange(%d, %d) of %d vertices: %w", r[0], r[1], n, err)
		}
	}
	return nil
}

func checkRange(g Graph, lo, hi uint32) error {
	type call struct {
		v     uint32
		block []uint32
	}
	var got []call
	g.NeighborRange(lo, hi, func(v uint32, b []uint32) bool {
		got = append(got, call{v, slices.Clone(b)})
		return true
	})
	i := 0
	for v := lo; v < min(hi, g.NumVertices()); v++ {
		var want [][]uint32
		g.NeighborBlocks(v, func(b []uint32) bool {
			want = append(want, slices.Clone(b))
			return true
		})
		if len(want) == 0 {
			want = [][]uint32{nil}
		}
		for _, w := range want {
			if i == len(got) {
				return fmt.Errorf("walk ends before vertex %d", v)
			}
			c := got[i]
			i++
			if c.v != v {
				return fmt.Errorf("call %d yields vertex %d, want %d", i-1, c.v, v)
			}
			if !slices.Equal(c.block, w) {
				return fmt.Errorf("vertex %d: block %v, NeighborBlocks yields %v", v, c.block, w)
			}
		}
	}
	if i < len(got) {
		return fmt.Errorf("walk goes on past the range: call %d yields vertex %d", i, got[i].v)
	}
	for _, stopAt := range []int{1, len(got)/2 + 1} {
		if stopAt > len(got) {
			continue
		}
		calls := 0
		g.NeighborRange(lo, hi, func(uint32, []uint32) bool {
			calls++
			return calls < stopAt
		})
		if calls != stopAt {
			return fmt.Errorf("yield returned false at call %d of %d but the walk made %d calls", stopAt, len(got), calls)
		}
	}
	return nil
}
