// Package engine defines the interface every streaming graph engine in this
// repository implements — LSGraph itself and the three baselines (Terrace,
// Aspen, PaC-tree). The analytics kernels and the benchmark harness are
// written against this interface so all four systems run identical code
// above the storage layer, mirroring how the paper layers Ligra-style
// primitives over each system.
package engine

import "fmt"

// Graph is the analytics-facing read interface. It has one neighbour-read
// primitive, NeighborBlocks: every engine keeps adjacency in contiguous
// runs (that is the paper's locality argument, and equally true of Aspen's
// chunks, PaC-tree's leaves and Terrace's tiers), so readers see runs, not
// edges. Code that wants one call per edge uses the ForEachNeighbor helper.
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
