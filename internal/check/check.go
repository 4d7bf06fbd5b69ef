// Package check is the engine-wide randomized correctness harness: deep
// invariant validators over every live structure, a seeded differential
// workload simulator that drives the engine and serving layer in lockstep
// against the internal/refgraph oracle, automatic shrinking of failing
// programs to a minimal replayable op sequence, and metamorphic oracles
// for the analytics kernels.
//
// The validators (RIA, HITree, Shards, Snapshot) are callable from any
// test; core.SetDebugValidate can install them as a post-batch debug hook
// so a corrupting batch fails at the batch that caused it. The simulator
// (RunSeed, RunBytes) is what the TestSimSeeds sweep, make soak, and the
// FuzzEngineOps/FuzzStoreOps targets all share.
package check

import (
	"fmt"
	"slices"

	"lsgraph/internal/core"
	"lsgraph/internal/engine"
	"lsgraph/internal/hitree"
	"lsgraph/internal/refgraph"
	"lsgraph/internal/ria"
)

// RIA validates every documented invariant of an RIA: block shape,
// no-empty-block, within- and cross-block ordering, index redundancy, and
// the reserved-value exclusion.
func RIA(r *ria.RIA) error { return r.CheckInvariants() }

// HITree validates every documented invariant of a HITree: per-node-kind
// structure (array thresholds, RIA invariants, LIA block typing and model
// placement, bnode separators) plus tree-wide ordering and counts.
func HITree(t *hitree.Tree) error { return t.CheckInvariants() }

// Shards validates every documented invariant of a paged graph's shards:
// the partition map, each shard's base, extent and routing — boundaries are
// map-derived, not span multiples, so a rebalanced graph must pass
// identically — and its table and arena: every run in one page, strictly
// ascending and in range, page live counts, the edge counter. Like updates,
// it must not run concurrently with them.
func Shards(g *core.Paged) error { return g.CheckInvariants() }

// Snapshot validates CSR well-formedness of snap — non-decreasing offsets
// (checked indirectly: any inversion corrupts a Neighbors slice or
// panics, which is caught and reported), strictly ascending adjacency
// per vertex, neighbor IDs inside the vertex space, degree sums matching
// NumEdges, and a block read path that yields exactly the CSR runs — and,
// when ref is non-nil, exact vertex-count, degree, and adjacency agreement
// with ref.
func Snapshot(snap *core.Snapshot, ref *refgraph.Graph) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("check: snapshot walk panicked (corrupt offsets?): %v", r)
		}
	}()
	n := snap.NumVertices()
	if ref != nil && ref.NumVertices() != n {
		return fmt.Errorf("check: snapshot has %d vertices, reference %d", n, ref.NumVertices())
	}
	var m uint64
	for v := uint32(0); v < n; v++ {
		ns := snap.Neighbors(v)
		if uint32(len(ns)) != snap.Degree(v) {
			return fmt.Errorf("check: vertex %d: %d neighbors but degree %d", v, len(ns), snap.Degree(v))
		}
		for _, u := range ns {
			if u >= n {
				return fmt.Errorf("check: vertex %d neighbor %d outside [0,%d)", v, u, n)
			}
		}
		want := ns
		if ref != nil {
			if want = ref.Neighbors(v); !slices.Equal(ns, want) {
				return fmt.Errorf("check: vertex %d adjacency %v, reference %v", v, ns, want)
			}
		}
		if err := engine.CheckBlocks(func(y func([]uint32) bool) { snap.NeighborBlocks(v, y) }, want); err != nil {
			return fmt.Errorf("check: vertex %d: %w", v, err)
		}
		m += uint64(len(ns))
	}
	if m != snap.NumEdges() {
		return fmt.Errorf("check: degree sum %d != NumEdges %d", m, snap.NumEdges())
	}
	return nil
}

// Blocks validates g's neighbour-read path against the oracle: for every
// vertex, NeighborBlocks must honour the engine.Graph contract
// (engine.CheckBlocks) and yield exactly ref's adjacency.
func Blocks(g engine.Graph, ref *refgraph.Graph) error {
	for v := uint32(0); v < ref.NumVertices(); v++ {
		walk := func(y func([]uint32) bool) { g.NeighborBlocks(v, y) }
		if err := engine.CheckBlocks(walk, ref.Neighbors(v)); err != nil {
			return fmt.Errorf("check: vertex %d: %w", v, err)
		}
	}
	return nil
}

// Oracle re-exports the reference graph type so harness callers can build
// lockstep oracles without importing refgraph directly.
type Oracle = refgraph.Graph
