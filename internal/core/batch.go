package core

import (
	"context"
	"fmt"
	"math/bits"
	rtrace "runtime/trace"
	"sync/atomic"
	"unsafe"

	"lsgraph/internal/engine"
	"lsgraph/internal/obs"
	"lsgraph/internal/parallel"
)

// parPrepMin is the smallest batch the pipeline partitions across workers;
// below it one worker owns the whole batch as a single range, since
// fork-join overhead would exceed the passes being split.
const parPrepMin = 1 << 12

const (
	// rangeKeys is the range length one partition pass aims for: short
	// enough that a range's keys and the vertices they touch stay in the
	// claiming worker's cache from sort to apply, long enough to amortize
	// the claim and to sort by radix. Measured on 25k- and 250k-edge rMat
	// batches at two workers: 128 keys 63 and 46 ns/edge, 256 57 and 38,
	// 512 54 and 35.5, 1024 56 and 38 (EXPERIMENTS.md).
	rangeKeys = 512
	// maxRangeBits caps one pass's fan-out at 2^11 ranges so the per-worker
	// histograms stay L1-resident (2048 ints = 16 KiB); a bulk load's
	// ranges are longer instead.
	maxRangeBits = 11
	// heavyDiv sets the longest range that is left whole: 1/heavyDiv of
	// one worker's even share of the batch. Longer ranges are split again
	// on their next source bits, so what a worker can claim last bounds the
	// apply phase's imbalance to that fraction.
	heavyDiv = 8
)

// pipe is one shard's update pipeline, the same in both storage forms: the
// shard's vertex range [base, end), its edge counter, and the scratch every
// batch runs in. Only the per-group stage (groupFunc) differs between a
// Graph's shard and a Paged one's.
type pipe struct {
	base  uint32
	end   uint64 // openEnd for the last shard
	idx   int32  // shard index, for flight-recorder attribution
	m     atomic.Uint64
	prep  prepScratch
	apply []applyScratch

	// traceBatch is the flight-recorder batch ID the shard's current update
	// is attributed to (see internal/obs). It is owned by whichever
	// goroutine owns the shard's update pipeline — the serve shard writer
	// sets it via BeginTrace before applying — so a plain field suffices
	// under the per-shard exclusivity contract.
	traceBatch uint64
}

// Base returns the first vertex ID of the shard's range.
func (pc *pipe) Base() uint32 { return pc.base }

// End returns the first vertex ID past the shard's range: 1<<32, above
// every ID, for the last shard, whose range is open-ended.
func (pc *pipe) End() uint64 { return pc.end }

// own makes pc shard i of pm: its index and its range.
func (pc *pipe) own(pm *PartitionMap, i int) {
	pc.idx, pc.base, pc.end = int32(i), pm.Starts[i], openEnd
	if i+1 < len(pm.Starts) {
		pc.end = uint64(pm.Starts[i+1])
	}
}

// span returns how many IDs of [0, n) lie in the shard's range: the slots a
// fully materialized shard holds.
func (pc *pipe) span(n uint32) int {
	if n <= pc.base {
		return 0
	}
	return int(min(uint64(n), pc.end) - uint64(pc.base))
}

// NumEdges returns the number of directed edges stored in the shard.
func (pc *pipe) NumEdges() uint64 { return pc.m.Load() }

// BeginTrace attributes the shard's subsequent updates to the given
// flight-recorder batch ID (internal/obs): the pack, partition and apply
// spans the pipeline records will carry it. Callers must own the shard
// exclusively, like every mutating method.
func (pc *pipe) BeginTrace(batch uint64) { pc.traceBatch = batch }

// subEdges subtracts removed from the shard's edge counter (two's-
// complement add, since atomic.Uint64 has no Sub).
func (pc *pipe) subEdges(removed uint64) { pc.m.Add(^removed + 1) }

// applied counts a batch of n updates, which changed changed edges, into the
// shard's edge counter and the engine metrics.
func (pc *pipe) applied(del bool, n int, changed uint64) {
	batches, updates, edges := obsBatchesIns, obsUpdatesIns, obsEdgesAdded
	if del {
		pc.subEdges(changed)
		batches, updates, edges = obsBatchesDel, obsUpdatesDel, obsEdgesRemoved
	} else {
		pc.m.Add(changed)
	}
	if obs.Enabled() {
		batches.Inc()
		updates.Add(uint64(n))
		edges.Add(changed)
	}
}

// keyRange is a source-aligned span of the batch's keys: every key of the
// sources it covers and no other, so a vertex's updates never straddle two
// ranges and the worker that claims a range owns its vertices (§5's
// lock-free one-vertex-one-worker invariant, by construction).
type keyRange struct {
	lo, hi int   // span in the key buffers
	nj     int   // merge jobs recorded for it (Paged), set by the applying worker
	top    uint8 // source bits from here up are equal across the range
	alt    bool  // the keys live in prepScratch.tmp, not ks
}

// prepScratch holds the pipeline's reusable buffers. Updates never run
// concurrently within one shard (the per-shard concurrency contract), so
// one arena per shard makes steady-state batches allocate no scratch: after
// the first batch of a given size every pass runs in retained memory.
type prepScratch struct {
	// ks holds the packed (src,dst) keys; partition passes scatter between
	// ks and tmp, and a range is sorted in the one it ended up in with its
	// span of the other as swap space.
	ks, tmp []uint64
	// jobs holds, for a batch applied to a Paged shard, one entry per
	// source vertex whose run the batch changes (merge.go). Each range writes
	// its vertices' at its own key offset, ascending; the paged stage sizes
	// it per batch.
	jobs   []mergeJob
	ranges []keyRange // ascending by source
	heavy  []uint32   // indexes of ranges over the split limit, claimed first
	hist   [][]int    // per-worker range histograms, one per split depth
}

// applyScratch is one worker's private state for a batch: the buffers of
// the bulk merge-and-rebuild paths and its accumulators. The padding keeps
// adjacent workers' fields on separate cache lines, since workers store
// them concurrently.
type applyScratch struct {
	old     []uint32 // current neighbor set of the vertex being rebuilt
	out     []uint32 // merged (insert) or kept (delete) neighbor set
	or, and uint64   // bit reduction over the keys this worker packed
	changed uint64   // edges added or removed by this worker
	sortNs  int64    // time in per-range sorts, kept while obs is enabled
	_       [128 - 2*24 - 4*8]byte
}

// Scratch retention. Buffers are kept across batches so a steady stream
// allocates nothing after its first batch, but a buffer sized by a much
// larger earlier batch — the bulk load — is not: on a graph that then
// takes 1000-edge batches it would pin 20 bytes per loaded edge forever.
// Before a batch of n edges, any buffer holding more than
// scratchTrimRatio*n entries is dropped and regrown to this batch's size,
// unless it is within scratchKeepMin entries, which keeps streams that mix
// batch sizes (25k and 1k, say) from reallocating at every change. No
// batch of n edges needs more than 5n entries of any buffer (a bulk
// rebuild is only taken when the group is a quarter of the degree), so a
// trim never drops what the batch itself is about to fill.
const (
	scratchTrimRatio = 8
	scratchKeepMin   = 1 << 15
)

// scratchLimit is the most entries a buffer may keep for a batch of n
// edges.
func scratchLimit(n int) int { return max(scratchTrimRatio*n, scratchKeepMin) }

// trimScratch drops the shard's scratch buffers that are oversized for a
// batch of n edges.
func (pc *pipe) trimScratch(n int) {
	limit := scratchLimit(n)
	ps := &pc.prep
	ps.ks, ps.tmp = trimmed(ps.ks, limit), trimmed(ps.tmp, limit)
	ps.jobs, ps.ranges, ps.heavy = trimmed(ps.jobs, limit), trimmed(ps.ranges, limit), trimmed(ps.heavy, limit)
	for i := range ps.hist {
		ps.hist[i] = trimmed(ps.hist[i], limit)
	}
	for i := range pc.apply {
		sc := &pc.apply[i]
		sc.old, sc.out = trimmed(sc.old, limit), trimmed(sc.out, limit)
	}
}

// ReleaseScratch drops every shard's scratch beyond scratchKeepMin entries,
// for a caller that has just applied a batch no later one will resemble — a
// bulk load (NewFromEdges) — which would otherwise pin 20 bytes per edge
// until a much smaller batch happened to follow. Must not run concurrently
// with updates.
func (g *Graph) ReleaseScratch() {
	for i := range g.shards {
		g.shards[i].trimScratch(0)
	}
}

// scratchBytes returns the bytes the shard's pipeline buffers hold.
func (pc *pipe) scratchBytes() uint64 {
	ps := &pc.prep
	b := 8*(cap(ps.ks)+cap(ps.tmp)) + 4*cap(ps.heavy) + cap(ps.jobs)*int(unsafe.Sizeof(mergeJob{})) +
		cap(ps.ranges)*int(unsafe.Sizeof(keyRange{})) + cap(pc.apply)*int(unsafe.Sizeof(applyScratch{}))
	for _, h := range ps.hist {
		b += 8 * cap(h)
	}
	for i := range pc.apply {
		b += 4 * (cap(pc.apply[i].old) + cap(pc.apply[i].out))
	}
	return uint64(b)
}

// trimmed returns s, or nil when s holds more than limit entries.
func trimmed[T any](s []T, limit int) []T {
	if cap(s) > limit {
		return nil
	}
	return s
}

// grown returns s with length n, reallocated only when it cannot hold n.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// validateBatch panics with a clear message when src and dst disagree in
// length, instead of an index-out-of-range deep inside the pipeline.
func validateBatch(op string, src, dst []uint32) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("core: %s: src/dst length mismatch (%d vs %d); every edge needs both endpoints",
			op, len(src), len(dst)))
	}
}

// groupFunc is a storage form's per-group stage: it applies one source
// vertex's sorted, duplicate-free keys ks — which start at offset at of the
// key buffer range r lies in — to the shard's slot lv as worker w, and
// returns the number of edges changed.
type groupFunc func(w int, r *keyRange, at int, lv uint32, ks []uint64) uint64

// applyBatch is the update pipeline of §5 "Batch Updates" for one shard's
// batch under the vertex bound n: pack the edges into (src<<32)|dst keys,
// partition the keys by source range, and let each worker take whole ranges
// through sort, dedup, group discovery and group, so a range's keys and
// vertices stay in one cache and the shard's vertices are walked in
// ascending order. When the groups changed anything, finish (if not nil)
// runs next, inside the apply phase, with the worker count and the split
// limit the ranges were cut to. It returns the number of edges the batch
// added or removed. With one worker, or a batch under parPrepMin, the same
// code runs with the whole batch as the only range. Callers must own the
// shard exclusively.
func (pc *pipe) applyBatch(n uint32, src, dst []uint32, p int, group groupFunc, finish func(p, limit int)) (changed uint64) {
	k := len(src)
	if p = min(p, k/1024); p < 1 || k < parPrepMin {
		p = 1
	}
	on := obs.Enabled()
	if on {
		obsPrepWorkers.Set(int64(p))
	}
	shard, batch, edges := int(pc.idx), pc.traceBatch, uint64(k)
	pc.trimScratch(k)
	if len(pc.apply) < p {
		pc.apply = make([]applyScratch, p)
	}
	ps := &pc.prep

	sp := obs.PhasePack.Begin()
	varying := pc.packKeys(n, src, dst, p) // panics on an out-of-range edge
	sp.End(shard, batch, 0, edges)

	// Ranges come from the source bits that vary in this batch, so updates
	// clustered in a narrow ID window (an append-mostly stream's newest
	// vertices) still spread over every worker.
	sp = obs.PhasePartition.Begin()
	ps.tmp = grown(ps.tmp, k)
	ps.ranges, ps.heavy = ps.ranges[:0], ps.heavy[:0]
	limit := splitLimit(k, p)
	ps.split(ps.ks, ps.tmp, 0, k, bits.Len64(varying>>32), 0, p, limit)
	sp.End(shard, batch, 0, edges)

	sp = obs.PhaseApply.Begin()
	for w := range pc.apply[:p] {
		pc.apply[w].changed, pc.apply[w].sortNs = 0, 0
	}
	ps.eachRange(p, limit, func(w int, r *keyRange) {
		pc.applyRange(w, r, varying, group, on)
	})
	sortNs := int64(0)
	for w := range pc.apply[:p] {
		changed += pc.apply[w].changed
		sortNs = max(sortNs, pc.apply[w].sortNs)
	}
	if on {
		obsRangeSort.Observe(uint64(sortNs))
	}
	if finish != nil && changed > 0 {
		finish(p, limit)
	}
	sp.End(shard, batch, 0, edges)
	return changed
}

// eachRange runs f on every range of the partitioned batch, p workers
// claiming them from one counter: the heavy ones first, so a hub starts at
// once and the rest back-fills around it, then all others in vertex order.
func (ps *prepScratch) eachRange(p, limit int, f func(w int, r *keyRange)) {
	nh, nr := len(ps.heavy), len(ps.ranges)
	var next atomic.Int64
	parallel.Workers(p, func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= nh+nr {
				return
			}
			ri := i - nh
			if i < nh {
				ri = int(ps.heavy[i])
			} else if r := &ps.ranges[ri]; r.hi-r.lo > limit {
				continue // claimed in the heavy round
			}
			f(w, &ps.ranges[ri])
		}
	})
}

// splitLimit returns the longest range a batch of n keys at p workers
// leaves whole. One worker takes the whole batch as its only range.
func splitLimit(n, p int) int {
	if p <= 1 {
		return n
	}
	return max(n/(heavyDiv*p), rangeKeys)
}

// packKeys validates every endpoint against the logical vertex bound n and
// packs src/dst into sortable (src<<32)|dst keys, p workers on static
// spans. It returns the bits in which two keys of the batch differ. An
// out-of-range edge is recorded by the worker that finds it and re-raised
// as a panic on the caller's goroutine, because a panic inside a worker
// goroutine could not be recovered by the caller.
func (pc *pipe) packKeys(n uint32, src, dst []uint32, p int) (varying uint64) {
	pc.prep.ks = grown(pc.prep.ks, len(src))
	ks := pc.prep.ks
	var bad atomic.Int64 // 1-based index of an out-of-range edge
	parallel.Workers(p, func(w int) {
		or, and := uint64(0), ^uint64(0)
		for i, hi := w*len(src)/p, (w+1)*len(src)/p; i < hi; i++ {
			s, d := src[i], dst[i]
			if s >= n || d >= n {
				bad.CompareAndSwap(0, int64(i)+1)
				return
			}
			k := uint64(s)<<32 | uint64(d)
			ks[i] = k
			or |= k
			and &= k
		}
		pc.apply[w].or, pc.apply[w].and = or, and
	})
	if i := bad.Load(); i != 0 {
		panic(fmt.Sprintf("core: edge (%d,%d) outside vertex space [0,%d); grow with EnsureVertices",
			src[i-1], dst[i-1], n))
	}
	or, and := uint64(0), ^uint64(0)
	for w := range pc.apply[:p] {
		or |= pc.apply[w].or
		and &= pc.apply[w].and
	}
	return or ^ and
}

// split appends the ranges of from[lo:hi] to ps.ranges in ascending source
// order. The span's keys agree on every source bit from bit top up; one
// count and one scatter pass (parallel.ScatterByDigit, stable) move them
// into to[lo:hi] grouped by their next source bits, about rangeKeys to a
// range. A range still longer
// than limit is split again on the bits below, down to single vertices; a
// range over limit that has no bits left is one vertex's group, indivisible,
// and is listed in ps.heavy. depth counts the passes above this one.
func (ps *prepScratch) split(from, to []uint64, lo, hi, top, depth, p, limit int) {
	m := hi - lo
	rb := min(top, maxRangeBits, bits.Len(uint((m-1)/rangeKeys)))
	if rb == 0 || m <= limit {
		if m > limit {
			ps.heavy = append(ps.heavy, uint32(len(ps.ranges)))
		}
		ps.ranges = append(ps.ranges, keyRange{lo: lo, hi: hi, top: uint8(top), alt: depth&1 == 1})
		return
	}
	R, shift := 1<<rb, uint(32+top-rb)
	pw := p
	if m < parPrepMin {
		pw = 1
	}
	for len(ps.hist) <= depth {
		ps.hist = append(ps.hist, nil)
	}
	hist := grown(ps.hist[depth], pw*R)
	ps.hist[depth] = hist
	parallel.ScatterByDigit(from[lo:hi], to[lo:hi], shift, R, pw, hist)
	start := lo
	for _, end := range hist[(pw-1)*R:] { // the ranges' ends, relative to lo
		if end += lo; end > start {
			ps.split(to, from, start, end, top-rb, depth+1, p, limit)
		}
		start = end
	}
}

// applyRange takes one range through sort, in-place dedup, group discovery
// and group as worker w. Keys of one source are adjacent once sorted, so
// each vertex's run is compacted and applied in one walk.
func (pc *pipe) applyRange(w int, r *keyRange, varying uint64, group groupFunc, on bool) {
	ps, sc := &pc.prep, &pc.apply[w]
	ks, swap := ps.ks[r.lo:r.hi], ps.tmp[r.lo:r.hi]
	if r.alt {
		ks, swap = swap, ks
	}
	varying &= 1<<(32+r.top) - 1
	if on {
		t := obs.Now()
		parallel.SortSeq(ks, swap, varying)
		sc.sortNs += obs.Now() - t
	} else {
		parallel.SortSeq(ks, swap, varying)
	}
	r.nj = 0
	for i := 0; i < len(ks); {
		v := uint32(ks[i] >> 32)
		e, j := i+1, i+1 // ks[i:e] is v's duplicate-free run so far
		for ; j < len(ks) && uint32(ks[j]>>32) == v; j++ {
			if ks[j] != ks[e-1] {
				ks[e] = ks[j]
				e++
			}
		}
		if on {
			obsGroupSize.Observe(uint64(e - i))
		}
		sc.changed += group(w, r, r.lo+i, v-pc.base, ks[i:e])
		i = j
	}
}

// bulkThreshold decides whether an insert group is large enough relative
// to the vertex's current degree that merging and rebuilding (O(deg +
// group) sequential work) beats one-at-a-time Algorithm 2 insertion
// (O(group) searches plus bounded movement): rebuild pays off once the
// group is about a quarter of the degree. Groups below 32 always take the
// per-edge path regardless of degree.
func bulkThreshold(groupLen int, deg uint32) bool {
	return groupLen >= 32 && 4*groupLen >= int(deg)
}

// deleteBulkThreshold rebuilds a vertex when the group removes at least
// half of it.
func deleteBulkThreshold(groupLen int, deg uint32) bool {
	return groupLen >= 32 && 2*groupLen >= int(deg)
}

// InsertBatch adds the directed edges (src[i] -> dst[i]). Duplicate and
// already-present edges are ignored. The batch is applied in parallel, one
// source range per worker at a time; with Shards > 1 it is first scattered
// by source vertex and the shards run their pipelines concurrently.
func (g *Graph) InsertBatch(src, dst []uint32) {
	validateBatch("InsertBatch", src, dst)
	if len(src) > 0 {
		defer rtrace.StartRegion(context.Background(), "lsgraph.InsertBatch").End()
		g.batch(src, dst, false)
	}
}

// DeleteBatch removes the directed edges (src[i] -> dst[i]). Absent edges
// are ignored.
func (g *Graph) DeleteBatch(src, dst []uint32) {
	validateBatch("DeleteBatch", src, dst)
	if len(src) > 0 {
		defer rtrace.StartRegion(context.Background(), "lsgraph.DeleteBatch").End()
		g.batch(src, dst, true)
	}
}

// batch applies a non-empty insert batch or, with del, delete batch to the
// whole graph.
func (g *Graph) batch(src, dst []uint32, del bool) {
	defer g.runDebugValidate()
	g.beginBatchTrace()
	if len(g.shards) == 1 {
		g.batchShard(&g.shards[0], src, dst, g.Workers(), del)
		return
	}
	g.eachShardPart(src, dst, func(sh *shardState, part SubBatch, p int) {
		g.batchShard(sh, part.Src, part.Dst, p, del)
	})
}

// beginBatchTrace stamps every shard with a fresh flight-recorder batch ID
// so phase spans from one direct-engine InsertBatch/DeleteBatch share an
// attribution. Direct batch calls own the whole graph, so plain stores are
// safe; the serving layer instead attributes per shard via Shard.BeginTrace.
func (g *Graph) beginBatchTrace() {
	if !obs.Tracing() {
		return
	}
	b := obs.NextBatchID()
	for i := range g.shards {
		g.shards[i].traceBatch = b
	}
}

// eachShardPart scatters a batch by source vertex and runs apply on every
// non-empty part, shards in parallel. Out-of-range endpoints are detected
// up front on the caller's goroutine (per-shard packKeys would panic
// inside a worker goroutine, where the caller could not recover it).
func (g *Graph) eachShardPart(src, dst []uint32, apply func(sh *shardState, part SubBatch, p int)) {
	parts, bound := Scatter(g.pmap, src, dst, g.Workers())
	if n := g.n.Load(); bound > uint64(n) {
		for i := range src {
			if src[i] >= n || dst[i] >= n {
				panic(fmt.Sprintf("core: edge (%d,%d) outside vertex space [0,%d); grow with EnsureVertices",
					src[i], dst[i], n))
			}
		}
	}
	p := g.shardWorkers(len(g.shards))
	parallel.Workers(len(parts), func(i int) {
		if len(parts[i].Src) > 0 {
			apply(&g.shards[i], parts[i], p)
		}
	})
}

// batchShard runs the insert or, with del, the delete pipeline for one
// shard's routed sub-batch with p workers: each group updates its vertex's
// block in place. Callers must own the shard exclusively.
func (g *Graph) batchShard(sh *shardState, src, dst []uint32, p int, del bool) {
	if len(src) == 0 {
		return
	}
	group := func(w int, _ *keyRange, _ int, lv uint32, ks []uint64) uint64 { return g.insertGroup(sh, w, lv, ks) }
	if del {
		group = func(w int, _ *keyRange, _ int, lv uint32, ks []uint64) uint64 { return g.deleteGroup(sh, w, lv, ks) }
	}
	sh.applied(del, len(src), sh.applyBatch(g.n.Load(), src, dst, p, group, nil))
}

// insertGroup adds one vertex's group, by merge-and-rebuild when the group
// is large against the vertex's degree, else edge by edge.
func (g *Graph) insertGroup(sh *shardState, w int, lv uint32, ks []uint64) (added uint64) {
	vb := &sh.verts[lv]
	if bulkThreshold(len(ks), vb.degree()) {
		if obs.Enabled() {
			obsGroupsBulk.AddShard(w, 1)
		}
		return g.insertGroupBulk(sh, w, vb, ks)
	}
	if obs.Enabled() {
		obsGroupsEdge.AddShard(w, 1)
	}
	for _, k := range ks {
		if g.insertOne(vb, uint32(k)) {
			added++
		}
	}
	return added
}

// insertGroupBulk merges a vertex's existing neighbors with its update
// group and rebuilds its storage in one pass, returning the number of new
// edges. This is the large-batch fast path that lets throughput keep
// climbing with batch size (Figure 12). The merge runs in worker w's
// scratch arena; every overflow builder copies its input, so the arena is
// safe to reuse for the worker's next group.
func (g *Graph) insertGroupBulk(sh *shardState, w int, vb *vertex, ks []uint64) uint64 {
	sc := &sh.apply[w]
	if obs.Enabled() {
		if cap(sc.old) >= int(vb.degree()) && cap(sc.out) >= int(vb.degree())+len(ks) {
			obsScratchHit.AddShard(w, 1)
		} else {
			obsScratchMiss.AddShard(w, 1)
		}
	}
	old := appendNeighborsVB(vb, sc.old[:0])
	merged := engine.MergeGroup(sc.out[:0], old, ks)
	added := uint64(len(merged) - len(old))
	g.rebuildVertex(vb, merged)
	sc.old, sc.out = old, merged // retain grown capacity for the next group
	return added
}

// deleteGroup removes one vertex's group, by rebuild when the group takes
// at least half the vertex, else edge by edge.
func (g *Graph) deleteGroup(sh *shardState, w int, lv uint32, ks []uint64) (removed uint64) {
	vb := &sh.verts[lv]
	if deleteBulkThreshold(len(ks), vb.degree()) {
		if obs.Enabled() {
			obsGroupsBulk.AddShard(w, 1)
		}
		return g.deleteGroupBulk(sh, w, vb, ks)
	}
	if obs.Enabled() {
		obsGroupsEdge.AddShard(w, 1)
	}
	for _, k := range ks {
		if g.deleteOne(vb, uint32(k)) {
			removed++
		}
	}
	return removed
}

// deleteGroupBulk subtracts a sorted update group from a vertex's neighbor
// set and rebuilds its storage, returning the number of removed edges. Like
// insertGroupBulk it runs in worker w's scratch arena.
func (g *Graph) deleteGroupBulk(sh *shardState, w int, vb *vertex, ks []uint64) uint64 {
	sc := &sh.apply[w]
	if obs.Enabled() {
		if cap(sc.old) >= int(vb.degree()) && cap(sc.out) >= int(vb.degree()) {
			obsScratchHit.AddShard(w, 1)
		} else {
			obsScratchMiss.AddShard(w, 1)
		}
	}
	old := appendNeighborsVB(vb, sc.old[:0])
	kept := engine.SubtractGroup(sc.out[:0], old, ks)
	removed := uint64(len(old) - len(kept))
	g.rebuildVertex(vb, kept)
	sc.old, sc.out = old, kept
	return removed
}
