package core

import (
	"fmt"
	"slices"
	"sort"
)

// PartitionMap is the vertex→shard routing table: an immutable, epoch-
// versioned set of sorted range boundaries. Shard i owns the contiguous
// vertex range [Starts[i], Starts[i+1]), the last shard open-ended, so a
// lookup is a binary search over Starts. Maps are never mutated in place;
// a boundary move builds a successor map (epoch+1) and the graph swaps an
// atomic pointer to it, exactly like snapshot publication. The map routes
// updates to storage; the serving layer's readers never consult it — every
// snapshot it publishes records the range it was built from.
type PartitionMap struct {
	// Epoch increments by one per boundary move. The initial map is epoch 0.
	Epoch uint64
	// Starts[i] is the first vertex ID of shard i's range. Starts[0] is
	// always 0 and the values are strictly increasing, so no shard's range
	// is ever empty.
	Starts []uint32
}

// NewUniformMap returns the epoch-0 map splitting [0, n) into s equal
// contiguous ranges (the last open-ended), matching the fixed-span layout
// earlier revisions hard-coded: span = ceil(n/s), at least 1.
func NewUniformMap(n uint32, s int) *PartitionMap {
	span := n
	if s > 1 {
		span = (n + uint32(s) - 1) / uint32(s)
	}
	if span == 0 {
		span = 1
	}
	pm := &PartitionMap{Starts: make([]uint32, s)}
	for i := range pm.Starts {
		pm.Starts[i] = uint32(i) * span
	}
	return pm
}

// ShardOf returns the index of the shard owning vertex v: the greatest i
// with Starts[i] <= v. Every ID has an owning shard because Starts[0] is 0
// and the last range is open-ended.
func (pm *PartitionMap) ShardOf(v uint32) int {
	s := pm.Starts
	if len(s) == 1 {
		return 0
	}
	// sort.Search for the first start > v; the owner is the range before it.
	lo, hi := 1, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// RangeLen returns the length of shard i's slice of the logical vertex
// space [0, n): the storage size a fully materialized shard i needs.
func (pm *PartitionMap) RangeLen(i int, n uint32) int {
	base := pm.Starts[i]
	if n <= base {
		return 0
	}
	end := n
	if i+1 < len(pm.Starts) && pm.Starts[i+1] < n {
		end = pm.Starts[i+1]
	}
	return int(end - base)
}

// WithBoundary returns the successor map moving the boundary between
// shards k and k+1 to newStart, at epoch+1. It validates the move against
// this map.
func (pm *PartitionMap) WithBoundary(k int, newStart uint32) (*PartitionMap, error) {
	if err := pm.validateMove(k, newStart); err != nil {
		return nil, err
	}
	next := &PartitionMap{
		Epoch:  pm.Epoch + 1,
		Starts: append([]uint32(nil), pm.Starts...),
	}
	next.Starts[k+1] = newStart
	return next, nil
}

// validateMove checks that moving boundary k→newStart keeps Starts
// strictly increasing and actually moves it.
func (pm *PartitionMap) validateMove(k int, newStart uint32) error {
	if k < 0 || k+1 >= len(pm.Starts) {
		return fmt.Errorf("core: boundary %d out of range (S=%d)", k, len(pm.Starts))
	}
	if newStart == pm.Starts[k+1] {
		return ErrNoMove
	}
	if newStart <= pm.Starts[k] {
		return fmt.Errorf("core: new start %d would empty shard %d (start %d)", newStart, k, pm.Starts[k])
	}
	if k+2 < len(pm.Starts) && newStart >= pm.Starts[k+2] {
		return fmt.Errorf("core: new start %d would empty shard %d (next start %d)", newStart, k+1, pm.Starts[k+2])
	}
	return nil
}

// CheckInvariants validates the map's structural invariants.
func (pm *PartitionMap) CheckInvariants(shards int) error {
	if len(pm.Starts) != shards {
		return fmt.Errorf("core: partition map has %d entries, want %d", len(pm.Starts), shards)
	}
	if pm.Starts[0] != 0 {
		return fmt.Errorf("core: partition map Starts[0] = %d, want 0", pm.Starts[0])
	}
	if !sort.SliceIsSorted(pm.Starts, func(a, b int) bool { return pm.Starts[a] < pm.Starts[b] }) {
		return fmt.Errorf("core: partition map starts not strictly increasing: %v", pm.Starts)
	}
	for i := 1; i < len(pm.Starts); i++ {
		if pm.Starts[i] == pm.Starts[i-1] {
			return fmt.Errorf("core: partition map starts not strictly increasing: %v", pm.Starts)
		}
	}
	return nil
}

// ErrNoMove is returned by boundary-move operations when newStart equals
// the current boundary: the map would be unchanged.
var ErrNoMove = fmt.Errorf("core: boundary already at requested start")

// PartitionMap returns the graph's current routing map. The pointer is
// immutable; successive calls may return different maps after MoveBoundary.
func (g *Graph) PartitionMap() *PartitionMap { return g.pmap.Load() }

// MoveBoundary moves the boundary between shards k and k+1 to newStart,
// splicing the transferred sub-range's storage between the two shardStates
// and installing the successor map (epoch+1): vertex blocks in a live graph;
// in a paged one table entries, each moved run copied to the kept tail of
// the receiver's arena and dropped from the donor's. It returns the number
// of materialized vertices and directed edges that changed owner.
//
// The caller must hold both affected shards quiescent — no concurrent
// update, snapshot, or direct-Graph read may touch shards k and k+1 for
// the duration (other shards may keep working: the splice touches only
// the two shardStates and the map pointer). internal/serve enforces this
// by parking both shard writers on a rendezvous control entry.
func (g *Graph) MoveBoundary(k int, newStart uint32) (movedVerts uint32, movedEdges uint64, err error) {
	pm := g.pmap.Load()
	next, err := pm.WithBoundary(k, newStart)
	if err != nil {
		return 0, 0, err
	}
	a, b := &g.shards[k], &g.shards[k+1]
	// The boundary moves down: a gives its tail to b's front; or up: b gives
	// its front to a's tail.
	old := pm.Starts[k+1]
	from, to := a, b
	if newStart > old {
		from, to = b, a
	}
	if a.paged {
		movedVerts, movedEdges = spliceTables(a, b, from, to, old, newStart)
	} else {
		movedVerts, movedEdges = spliceBlocks(a, b, old, newStart)
	}
	b.base = newStart
	from.subEdges(movedEdges)
	to.m.Add(movedEdges)
	g.pmap.Store(next)
	return movedVerts, movedEdges, nil
}

// splice lays out the two shards' storage — vertex blocks or table entries —
// for the boundary between a and b moving from old to newStart, where aBase
// is a's first vertex. It returns both shards' new storage and the moved
// elements twice: where they were in the donor (to be released) and where
// they are in the receiver. Materialized storage is always a prefix of a
// shard's range, so the receiver is zero-filled up to the moved elements
// where it was shorter.
func splice[T any](av, bv []T, aBase, old, newStart uint32) (na, nb, was, now []T) {
	if newStart < old {
		lo := min(int(newStart-aBase), len(av))
		was = av[lo:]
		switch gap := int(old - newStart); {
		case len(was) == 0 && len(bv) == 0:
			// Nothing materialized on either side of the new boundary.
			return av, bv, nil, nil
		case len(bv) == 0:
			nb = make([]T, len(was))
		default:
			nb = make([]T, gap+len(bv))
			copy(nb[gap:], bv)
		}
		return av[:lo], nb, was, nb[:copy(nb, was)]
	}
	was = bv[:min(int(newStart-old), len(bv))]
	if len(was) == 0 {
		return av, bv, nil, nil
	}
	full := int(old - aBase)
	na = make([]T, full+len(was))
	copy(na, av)
	// b keeps its own array, not the tail of one whose front moved away.
	return na, slices.Clone(bv[len(was):]), was, na[full:][:copy(na[full:], was)]
}

// spliceBlocks moves the vertex blocks of the transferred range between two
// live shards and returns their number and summed out-degrees.
func spliceBlocks(a, b *shardState, old, newStart uint32) (uint32, uint64) {
	var was []vertex
	a.verts, b.verts, was, _ = splice(a.verts, b.verts, a.base, old, newStart)
	var edges uint64
	for i := range was {
		edges += uint64(was[i].degree())
	}
	clear(was) // drop the overflow pointers from the donor's array
	return uint32(len(was)), edges
}

// spliceTables moves the table entries of the transferred range between two
// paged shards, and the runs they name from the donor's arena to the
// receiver's, and returns their number and summed degrees.
func spliceTables(a, b, from, to *shardState, old, newStart uint32) (uint32, uint64) {
	capA, capB := cap(a.table()), cap(b.table())
	var was, now []vref
	a.tab, b.tab, was, now = splice(a.tab, b.tab, a.base, old, newStart)
	a.tabEntries += cap(a.tab) - capA
	b.tabEntries += cap(b.tab) - capB
	var edges uint64
	for _, r := range was {
		edges += uint64(r.deg)
	}
	// Sized before the runs are placed, as for a batch (mergeRuns). The pages
	// the moved runs leave retire as any emptied page does; what the receiver
	// now holds beyond its bound the next publish cleans.
	to.pub.m = to.m.Load() + edges
	for i, r := range was {
		now[i] = to.pub.place(r.deg, tailKept)
		copy(to.pub.read(now[i]), from.pub.read(r))
		from.pub.drop(r)
	}
	return uint32(len(was)), edges
}
