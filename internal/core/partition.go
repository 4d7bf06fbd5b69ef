package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"lsgraph/internal/obs"
	"lsgraph/internal/parallel"
)

// PartitionMap is the vertex→shard routing table: an immutable, epoch-
// versioned set of sorted range boundaries. Shard i owns the contiguous
// vertex range [Starts[i], Starts[i+1]), the last shard open-ended, so a
// lookup is a binary search over Starts. Maps are never mutated in place;
// a boundary move (Paged.MoveBoundary) builds a successor map (epoch+1) and
// swaps an atomic pointer to it, exactly like snapshot publication. The map routes
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

// space is what the two storage forms — Graph's vertex blocks and Paged's
// runs — share about their vertex space: the partition map that routes a
// vertex to its shard, the logical bound on its IDs, and the worker budget
// the shards' update pipelines split.
type space struct {
	// pmap is the current routing map (immutable, swapped whole on
	// Paged.MoveBoundary — see PartitionMap): shard i owns [Starts[i],
	// Starts[i+1]), the last shard open-ended, so growth always lands in the
	// last shard's range. Loads are cheap enough for hot routing paths; bulk
	// paths hoist one load per batch.
	pmap atomic.Pointer[PartitionMap]
	// n is the logical vertex-space bound: IDs are valid in [0, n). It is
	// atomic because concurrent shard writers raise it via EnsureVertices
	// while others validate batches against it.
	n atomic.Uint32
	// p bounds update parallelism (0: GOMAXPROCS).
	p int
}

// init sets up a space of n vertex slots over shards uniform ranges (at
// least one) and returns its map.
func (sp *space) init(n uint32, shards, workers int) *PartitionMap {
	pm := NewUniformMap(n, max(shards, 1))
	sp.pmap.Store(pm)
	sp.n.Store(n)
	sp.p = workers
	obs.EnsureRings(len(pm.Starts))
	return pm
}

// NumVertices returns the number of vertex slots.
func (sp *space) NumVertices() uint32 { return sp.n.Load() }

// ReserveVertices raises the logical vertex-space bound to at least n
// without materializing storage (an atomic max, safe to call concurrently
// with shard updates). Reads treat reserved-but-unmaterialized vertices as
// degree 0; updates must still materialize the owning shard's storage via
// the shard's EnsureVertices before touching them. The serving layer
// reserves at enqueue time so every published view's vertex count already
// covers every destination ID any in-flight batch references.
func (sp *space) ReserveVertices(n uint32) { sp.raiseBound(n) }

// raiseBound lifts the logical vertex-space bound to at least n (atomic
// max, so concurrent shard writers may race to raise it).
func (sp *space) raiseBound(n uint32) {
	for {
		cur := sp.n.Load()
		if n <= cur || sp.n.CompareAndSwap(cur, n) {
			return
		}
	}
}

// grow raises the bound to at least n and returns the slots shard i needs
// materialized to cover its slice of it.
func (sp *space) grow(n uint32, i int32) int {
	sp.raiseBound(n)
	return sp.pmap.Load().RangeLen(int(i), sp.n.Load())
}

// NumShards returns the number of vertex-range partitions.
func (sp *space) NumShards() int { return len(sp.pmap.Load().Starts) }

// ShardOf returns the index of the shard owning vertex v under the
// current partition map. The last shard's range is open-ended, so IDs
// beyond the initial vertex space still belong to the last shard.
func (sp *space) ShardOf(v uint32) int { return sp.pmap.Load().ShardOf(v) }

// PartitionMap returns the current routing map. The pointer is immutable;
// successive calls may return different maps after Paged.MoveBoundary.
func (sp *space) PartitionMap() *PartitionMap { return sp.pmap.Load() }

// workers returns the effective update parallelism.
func (sp *space) workers() int {
	if sp.p > 0 {
		return sp.p
	}
	return parallel.Procs
}

// shardWorkers returns the per-shard update parallelism: the worker budget
// split evenly across shards, at least one. Shard pipelines run
// concurrently, so giving each the full budget would oversubscribe.
func (sp *space) shardWorkers() int { return max(sp.workers()/sp.NumShards(), 1) }

// checkShards runs the part of CheckInvariants both forms share: the map is
// structurally valid for the count shards, and for each shard i — the
// pipeline, materialized slots and summed degrees shard returns after its
// own checks — its base is its map start, its storage lies within its owned
// slice of [0, NumVertices), the first and last IDs it materializes route
// back to it, and its edge counter equals the sum.
func (sp *space) checkShards(count int, shard func(i int) (pc *pipe, slots int, edges uint64, err error)) error {
	n, pm := sp.n.Load(), sp.pmap.Load()
	if err := pm.CheckInvariants(count); err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		pc, slots, edges, err := shard(i)
		if err != nil {
			return err
		}
		if want := pm.Starts[i]; pc.base != want {
			return fmt.Errorf("core: shard %d base %d != map start %d (epoch %d)", i, pc.base, want, pm.Epoch)
		}
		if max := pm.RangeLen(i, n); slots > max {
			return fmt.Errorf("core: shard %d materializes %d slots, owns at most %d of [0,%d)", i, slots, max, n)
		}
		if slots > 0 {
			for _, v := range []uint32{pc.base, pc.base + uint32(slots) - 1} {
				if pm.ShardOf(v) != i {
					return fmt.Errorf("core: ID %d owned by shard %d routes elsewhere", v, i)
				}
			}
		}
		if m := pc.m.Load(); m != edges {
			return fmt.Errorf("core: shard %d edge counter %d != degree sum %d", i, m, edges)
		}
	}
	return nil
}

// SubBatch is one shard's routed slice of a mixed batch; indexes align
// with the shard order of ScatterBatch's result.
type SubBatch struct {
	Src, Dst []uint32
}

// ScatterBatch routes a mixed batch to shards by source vertex: parts[i]
// holds exactly the edges whose source ShardOf maps to shard i, in their
// original relative order. bound is 1 + the largest vertex ID referenced
// by either endpoint (0 for an empty batch) — the vertex-space size the
// batch requires, which the serving layer feeds to the shard's
// EnsureVertices. The returned sub-batches are freshly allocated and do not
// alias src/dst, so callers may retain them after the input buffers are
// reused. Parts share one backing array, but each part's capacity is pinned
// to its length, so appending to a retained part reallocates rather than
// writing into a sibling part.
// ScatterBatch does not validate IDs against the current vertex space.
func (sp *space) ScatterBatch(src, dst []uint32) (parts []SubBatch, bound uint32) {
	return sp.ScatterBatchWith(sp.pmap.Load(), src, dst)
}

// ScatterBatchWith is ScatterBatch routing by an explicit partition map
// instead of the current one. The serving layer uses it to pin a whole
// batch's routing to the map that was current when the batch entered the
// queue, so a concurrent boundary move cannot split one batch's routing
// across two maps.
func (sp *space) ScatterBatchWith(pm *PartitionMap, src, dst []uint32) (parts []SubBatch, bound uint32) {
	validateBatch("ScatterBatch", src, dst)
	S := len(pm.Starts)
	parts = make([]SubBatch, S)
	n := len(src)
	if n == 0 {
		return parts, 0
	}
	if S == 1 {
		return scatterOne(src, dst, parts)
	}
	p := sp.workers()
	if n < parPrepMin || p <= 1 {
		return scatterSeq(pm, src, dst, parts)
	}

	// Pass 1: per-worker, per-shard counts over static ranges (cuts must
	// be deterministic across passes, so no dynamic chunk claiming here).
	counts := make([]int, p*S)
	maxes := make([]uint32, p)
	parallel.ForBlockedW(p, p, func(_, w int) {
		lo, hi := w*n/p, (w+1)*n/p
		c := counts[w*S : w*S+S]
		max := uint32(0)
		for i := lo; i < hi; i++ {
			s, d := src[i], dst[i]
			c[pm.ShardOf(s)]++
			if s > max {
				max = s
			}
			if d > max {
				max = d
			}
		}
		maxes[w] = max
	})

	// Exclusive prefix sums, shard-major then worker: worker w's output
	// for shard s starts where worker w-1's ends, preserving input order.
	total := 0
	sizes := make([]int, S)
	for s := 0; s < S; s++ {
		for w := 0; w < p; w++ {
			c := counts[w*S+s]
			counts[w*S+s] = total
			total += c
			sizes[s] += c
		}
	}
	srcOut := make([]uint32, n)
	dstOut := make([]uint32, n)

	// Pass 2: write each edge at its final offset.
	parallel.ForBlockedW(p, p, func(_, w int) {
		lo, hi := w*n/p, (w+1)*n/p
		c := counts[w*S : w*S+S]
		for i := lo; i < hi; i++ {
			s := src[i]
			sh := pm.ShardOf(s)
			j := c[sh]
			c[sh] = j + 1
			srcOut[j] = s
			dstOut[j] = dst[i]
		}
	})

	off := 0
	for s := 0; s < S; s++ {
		// Full slice expressions pin each part's capacity: a retained part
		// that is appended to (serve's backpressure merge) reallocates
		// instead of overwriting the next shard's slice of the backing array.
		end := off + sizes[s]
		parts[s] = SubBatch{Src: srcOut[off:end:end], Dst: dstOut[off:end:end]}
		off = end
	}
	for _, m := range maxes {
		if m+1 > bound {
			bound = m + 1
		}
	}
	return parts, bound
}

// scatterOne is the scatter of a one-range map: there is nothing to route,
// so one pass copies the batch and finds its bound.
func scatterOne(src, dst []uint32, parts []SubBatch) ([]SubBatch, uint32) {
	max := uint32(0)
	cs, cd := make([]uint32, len(src)), make([]uint32, len(src))
	for i, s := range src {
		d := dst[i]
		cs[i], cd[i] = s, d
		if s > max {
			max = s
		}
		if d > max {
			max = d
		}
	}
	parts[0] = SubBatch{Src: cs, Dst: cd}
	return parts, max + 1
}

// scatterSeq is the one-worker scatter for small batches.
func scatterSeq(pm *PartitionMap, src, dst []uint32, parts []SubBatch) ([]SubBatch, uint32) {
	S := len(pm.Starts)
	sizes := make([]int, S)
	max := uint32(0)
	for i, s := range src {
		sizes[pm.ShardOf(s)]++
		if s > max {
			max = s
		}
		if d := dst[i]; d > max {
			max = d
		}
	}
	srcOut := make([]uint32, len(src))
	dstOut := make([]uint32, len(src))
	off := 0
	offs := make([]int, S)
	for s := 0; s < S; s++ {
		offs[s] = off
		off += sizes[s]
	}
	for i, s := range src {
		sh := pm.ShardOf(s)
		j := offs[sh]
		offs[sh] = j + 1
		srcOut[j] = s
		dstOut[j] = dst[i]
	}
	off = 0
	for s := 0; s < S; s++ {
		end := off + sizes[s]
		parts[s] = SubBatch{Src: srcOut[off:end:end], Dst: dstOut[off:end:end]}
		off = end
	}
	return parts, max + 1
}
