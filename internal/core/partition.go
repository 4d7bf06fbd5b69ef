package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"lsgraph/internal/parallel"
)

// PartitionMap is a vertex→shard routing table: sorted range boundaries.
// Shard i owns the contiguous vertex range [Starts[i], Starts[i+1]), the
// last shard open-ended, so a lookup is a binary search over Starts. A
// Graph's map is built with it and never moves. A Paged keeps no map: its
// shards own their ranges (Base, End), and Paged.Scatter routes by a map of
// them built for the batch, so a boundary move changes one layout fact.
type PartitionMap struct {
	// Starts[i] is the first vertex ID of shard i's range. Starts[0] is
	// always 0 and the values are strictly increasing, so no shard's range
	// is ever empty.
	Starts []uint32
}

// NewUniformMap returns the map splitting [0, n) into s equal
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
// with Starts[i] <= v, one less than the number of starts at or below v.
// Every ID has an owning shard because Starts[0] is 0 and the last range is
// open-ended.
func (pm *PartitionMap) ShardOf(v uint32) int { return below(pm.Starts, uint64(v)+1) - 1 }

// below returns how many of a's ascending entries are below x: the search
// the write path routes a batch with (ShardOf) and probes a run with
// (findKeys). Each step halves the window by arithmetic on the comparison,
// not a jump, and the number of steps depends on len(a) alone, so a search
// costs no branch the keys decide. x is 64-bit, at most 2³², so that "at or
// below v" is below(a, v+1) for every uint32 v.
func below(a []uint32, x uint64) int {
	if len(a) == 0 {
		return 0
	}
	// (e-x)>>63 is 1 exactly when e < x, as neither exceeds 2³².
	i, n := 0, len(a)
	for n > 1 {
		half := n >> 1
		i += half & -int((uint64(a[i+half])-x)>>63)
		n -= half
	}
	return i + int((uint64(a[i])-x)>>63)
}

// validateMove checks that moving boundary k of the ranges starting at
// starts to newStart keeps them strictly increasing and actually moves it.
func validateMove(starts []uint32, k int, newStart uint32) error {
	if k < 0 || k+1 >= len(starts) {
		return fmt.Errorf("core: boundary %d out of range (S=%d)", k, len(starts))
	}
	if newStart == starts[k+1] {
		return ErrNoMove
	}
	if newStart <= starts[k] {
		return fmt.Errorf("core: new start %d would empty shard %d (start %d)", newStart, k, starts[k])
	}
	if k+2 < len(starts) && newStart >= starts[k+2] {
		return fmt.Errorf("core: new start %d would empty shard %d (next start %d)", newStart, k+1, starts[k+2])
	}
	return nil
}

// ErrNoMove is returned by boundary-move operations when newStart equals
// the current boundary: the map would be unchanged.
var ErrNoMove = fmt.Errorf("core: boundary already at requested start")

// openEnd is the End of the last shard's range: above every vertex ID, so
// growth always lands in the last shard.
const openEnd = 1 << 32

// space is what the two storage forms — Graph's vertex blocks and Paged's
// runs — share about their vertex space: the logical bound on its IDs and
// the worker budget the shards' update pipelines split. Which IDs a shard
// holds is the shard's own (pipe's base and end).
type space struct {
	// n is the logical vertex-space bound: IDs are valid in [0, n). It is
	// atomic because shards applied side by side raise it via EnsureVertices
	// while others validate batches against it.
	n atomic.Uint32
	// p bounds update parallelism (0: GOMAXPROCS).
	p int
}

// init sets up a space of n vertex slots and returns the map splitting it
// into shards uniform ranges (at least one), for the caller to give each
// shard its range.
func (sp *space) init(n uint32, shards, workers int) *PartitionMap {
	pm := NewUniformMap(n, max(shards, 1))
	sp.n.Store(n)
	sp.p = workers
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
// max, so shards applied side by side may race to raise it).
func (sp *space) raiseBound(n uint32) {
	for {
		cur := sp.n.Load()
		if n <= cur || sp.n.CompareAndSwap(cur, n) {
			return
		}
	}
}

// grow raises the bound to at least n and returns the slots the shard of
// pipeline pc needs materialized to cover its slice of it.
func (sp *space) grow(n uint32, pc *pipe) int {
	sp.raiseBound(n)
	return pc.span(sp.n.Load())
}

// Workers returns the update parallelism: the goroutines a scatter or a
// load runs on, and what the shards' pipelines split.
func (sp *space) Workers() int {
	if sp.p > 0 {
		return sp.p
	}
	return parallel.Procs
}

// shardWorkers returns the per-shard update parallelism of shards shards:
// the worker budget split evenly across them, at least one. Shard pipelines
// run concurrently, so giving each the full budget would oversubscribe.
func (sp *space) shardWorkers(shards int) int { return max(sp.Workers()/shards, 1) }

// checkShards runs the part of CheckInvariants both forms share: the count
// shards' ranges tile [0, ∞) — shard 0 starts at 0, every range is
// non-empty and ends where the next begins, and the last is open — and for
// each shard i — the pipeline, materialized slots and summed degrees shard
// returns after its own checks — its storage lies within its slice of
// [0, NumVertices) and its edge counter equals the sum.
func (sp *space) checkShards(count int, shard func(i int) (pc *pipe, slots int, edges uint64, err error)) error {
	n, next := sp.n.Load(), uint64(0)
	for i := 0; i < count; i++ {
		pc, slots, edges, err := shard(i)
		if err != nil {
			return err
		}
		if uint64(pc.base) != next || pc.end <= next {
			return fmt.Errorf("core: shard %d range [%d,%d) does not continue the tiling at %d", i, pc.base, pc.end, next)
		}
		next = pc.end
		if max := pc.span(n); slots > max {
			return fmt.Errorf("core: shard %d materializes %d slots, owns at most %d of [0,%d)", i, slots, max, n)
		}
		if m := pc.m.Load(); m != edges {
			return fmt.Errorf("core: shard %d edge counter %d != degree sum %d", i, m, edges)
		}
	}
	if next != openEnd {
		return fmt.Errorf("core: the last shard's range ends at %d, not open-ended", next)
	}
	return nil
}

// SubBatch is one shard's routed slice of a mixed batch; indexes align
// with the shard order of Scatter's result.
type SubBatch struct {
	Src, Dst []uint32
}

// Scatter routes a mixed batch to pm's shards by source vertex on up to
// workers goroutines (at least one; one below parPrepMin edges): parts[i]
// holds exactly the edges whose source pm.ShardOf maps to shard i, in their
// original relative order. bound is 1 + the largest vertex ID referenced by
// either endpoint (0 for an empty batch) — the vertex-space size the batch
// requires; it exceeds every uint32 when an edge names vertex 2³²−1, which
// no vertex space holds. The returned sub-batches are freshly allocated and
// do not alias src/dst, so callers may retain them after the input buffers
// are reused. Parts share one backing array, but each part's capacity is
// pinned to its length, so appending to a retained part reallocates rather
// than writing into a sibling part. Scatter does not validate IDs against
// any vertex space.
func Scatter(pm *PartitionMap, src, dst []uint32, workers int) (parts []SubBatch, bound uint64) {
	validateBatch("ScatterBatch", src, dst)
	S, n := len(pm.Starts), len(src)
	parts = make([]SubBatch, S)
	if n == 0 {
		return parts, 0
	}
	p := workers
	if n < parPrepMin {
		p = 1
	}

	// Pass 1: per-worker, per-shard counts over static ranges (cuts must
	// be deterministic across passes, so no dynamic chunk claiming here).
	// A worker's row of counts, its cursors in pass 2, is padded by two
	// cache lines, so no two workers' counters share a line or a prefetched
	// pair of lines.
	row := S + 16
	counts := make([]int, p*row)
	maxes := make([]uint32, p)
	parallel.Workers(p, func(w int) {
		lo, hi := w*n/p, (w+1)*n/p
		c := counts[w*row : w*row+S]
		m := uint32(0)
		for i := lo; i < hi; i++ {
			s := src[i]
			c[pm.ShardOf(s)]++
			m = max(m, s, dst[i])
		}
		maxes[w] = m
	})

	// Exclusive prefix sums, shard-major then worker: worker w's output
	// for shard s starts where worker w-1's ends, preserving input order.
	total := 0
	sizes := make([]int, S)
	for s := 0; s < S; s++ {
		for w := 0; w < p; w++ {
			c := counts[w*row+s]
			counts[w*row+s] = total
			total += c
			sizes[s] += c
		}
	}
	srcOut := make([]uint32, n)
	dstOut := make([]uint32, n)

	// Pass 2: write each edge at its final offset.
	parallel.Workers(p, func(w int) {
		lo, hi := w*n/p, (w+1)*n/p
		c := counts[w*row : w*row+S]
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
		// that is appended to reallocates instead of overwriting the next
		// shard's slice of the backing array.
		end := off + sizes[s]
		parts[s] = SubBatch{Src: srcOut[off:end:end], Dst: dstOut[off:end:end]}
		off = end
	}
	return parts, uint64(slices.Max(maxes)) + 1
}
