package core

import (
	"context"
	"fmt"
	rtrace "runtime/trace"
	"sync/atomic"

	"lsgraph/internal/obs"
	"lsgraph/internal/parallel"
	"lsgraph/internal/trace"
)

// group is the contiguous run of one source vertex's updates inside the
// sorted, deduplicated batch. prepareBatch emits exactly one group per
// source vertex, which is what lets the apply phase hand each vertex to
// exactly one worker (§5's lock-free invariant).
type group struct {
	v      uint32
	lo, hi int
}

// parPrepMin is the smallest batch the prepare pipeline parallelizes;
// below it one worker owns the whole batch, since fork-join overhead would
// exceed the scan being split.
const parPrepMin = 1 << 12

// prepScratch holds the prepare pipeline's reusable buffers. Updates never
// run concurrently within one shard (the per-shard concurrency contract),
// so one arena per shard makes steady-state batches allocation-free: after
// the first batch of a given size, pack, dedup, group discovery, and the
// apply schedule all run in retained memory.
type prepScratch struct {
	ks     []uint64 // packed (src,dst) keys
	tmp    []uint64 // parallel-dedup scatter target; swapped with ks per batch
	groups []group  // per-vertex groups
	order  []uint64 // apply schedule keys, size<<32 | group index
	cuts   []int    // p+1 source-aligned range bounds
	kept   []int    // per-range deduped key count -> prefix offsets
	gcnt   []int    // per-range group count -> prefix offsets
}

// applyScratch is one worker's reusable buffers for the bulk
// merge-and-rebuild paths. The padding keeps adjacent workers' slice
// headers on separate cache lines, since workers store grown slices back
// concurrently.
type applyScratch struct {
	old []uint32 // current neighbor set of the vertex being rebuilt
	out []uint32 // merged (insert) or kept (delete) neighbor set
	_   [128 - 2*24]byte
}

// Scratch retention. Buffers are kept across batches so a steady stream
// allocates nothing after its first batch, but a buffer sized by a much
// larger earlier batch — the bulk load — is not: on a graph that then
// takes 1000-edge batches it would pin 16 bytes per loaded edge forever.
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

// trimScratch drops the shard's scratch buffers that are oversized for a
// batch of n edges.
func (sh *shardState) trimScratch(n int) {
	limit := max(scratchTrimRatio*n, scratchKeepMin)
	ps := &sh.prep
	ps.ks, ps.tmp, ps.order = trimmed(ps.ks, limit), trimmed(ps.tmp, limit), trimmed(ps.order, limit)
	ps.groups = trimmed(ps.groups, limit)
	for i := range sh.apply {
		sc := &sh.apply[i]
		sc.old, sc.out = trimmed(sc.old, limit), trimmed(sc.out, limit)
	}
}

// trimmed returns s, or nil when s holds more than limit entries.
func trimmed[T any](s []T, limit int) []T {
	if cap(s) > limit {
		return nil
	}
	return s
}

// workers returns the effective update parallelism for this graph.
func (g *Graph) workers() int {
	if g.cfg.Workers > 0 {
		return g.cfg.Workers
	}
	return parallel.Procs
}

// ensureApplyScratch sizes the shard's per-worker arenas for an apply
// phase with p workers.
func (sh *shardState) ensureApplyScratch(p int) {
	if len(sh.apply) < p {
		sh.apply = make([]applyScratch, p)
	}
}

// validateBatch panics with a clear message when src and dst disagree in
// length, instead of an index-out-of-range deep inside prepareBatch.
func validateBatch(op string, src, dst []uint32) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("core: %s: src/dst length mismatch (%d vs %d); every edge needs both endpoints",
			op, len(src), len(dst)))
	}
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growGroups(s []group, n int) []group {
	if cap(s) < n {
		return make([]group, n)
	}
	return s[:n]
}

// prepareBatch packs, sorts, deduplicates, and groups a batch by source
// vertex (§5 "Batch Updates") inside one shard's scratch arena. All three
// phases run in parallel for large batches: packing is a chunked
// parallel-for, the sort is the parallel MSD radix of internal/parallel,
// and dedup + group discovery split the sorted keys into source-aligned
// ranges so groups never straddle two workers.
func (g *Graph) prepareBatch(sh *shardState, src, dst []uint32, p int) ([]uint64, []group) {
	if obs.Enabled() {
		obsPrepWorkers.Set(int64(p))
	}
	shard, batch, edges := int(sh.idx), sh.traceBatch, uint64(len(src))
	trPrep := trace.Start()
	sh.trimScratch(len(src))

	tPack := obs.StartTimer()
	trPack := trace.Start()
	ks := g.packKeys(sh, src, dst, p)
	obsPhasePack.ObserveSince(tPack)
	trace.Span(trace.PhasePack, shard, batch, 0, edges, trPack)

	tSort := obs.StartTimer()
	trSort := trace.Start()
	parallel.SortUint64(ks, p)
	obsPhaseSort.ObserveSince(tSort)
	trace.Span(trace.PhaseSort, shard, batch, 0, edges, trSort)

	tGroup := obs.StartTimer()
	trGroup := trace.Start()
	keys, groups := dedupGroup(sh, ks, p)
	obsPhaseGroup.ObserveSince(tGroup)
	trace.Span(trace.PhaseGroup, shard, batch, 0, edges, trGroup)

	trace.Span(trace.PhasePrepare, shard, batch, 0, edges, trPrep)
	return keys, groups
}

// packKeys validates every endpoint against the logical vertex bound and
// packs src/dst into sortable (src<<32)|dst keys, in parallel for large
// batches. An out-of-range edge is recorded by the worker that finds it
// and re-raised as a panic on the caller's goroutine, because a panic
// inside a worker goroutine could not be recovered by the caller.
func (g *Graph) packKeys(sh *shardState, src, dst []uint32, p int) []uint64 {
	n := g.n.Load()
	sh.prep.ks = growU64(sh.prep.ks, len(src))
	ks := sh.prep.ks
	var bad atomic.Int64 // 1-based index of an out-of-range edge
	parallel.ForChunkW(len(src), p, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			s, d := src[i], dst[i]
			if s >= n || d >= n {
				bad.CompareAndSwap(0, int64(i)+1)
				return
			}
			ks[i] = uint64(s)<<32 | uint64(d)
		}
	})
	if i := bad.Load(); i != 0 {
		panic(fmt.Sprintf("core: edge (%d,%d) outside vertex space [0,%d); grow with EnsureVertices",
			src[i-1], dst[i-1], n))
	}
	return ks
}

// dedupGroup removes duplicate keys from the sorted ks and discovers the
// per-source-vertex groups. Small batches dedup in place on one worker.
// Large batches split into p ranges whose bounds are advanced to
// source-vertex boundaries — duplicates are equal keys and therefore share
// a source, so neither a duplicate run nor a group can straddle two ranges.
// One parallel pass counts each range's survivors and groups, a p-length
// prefix sum places them, and a second parallel pass writes keys (into tmp,
// never into another range's unread input) and groups at their final
// offsets.
func dedupGroup(sh *shardState, ks []uint64, p int) ([]uint64, []group) {
	n := len(ks)
	if n == 0 {
		return ks, sh.prep.groups[:0]
	}
	if maxP := n / 1024; p > maxP {
		p = maxP
	}
	if p <= 1 || n < parPrepMin {
		return dedupGroupSeq(sh, ks)
	}

	// Source-aligned range bounds. cuts is monotonic: a cut lands at the
	// next source boundary at or after w*n/p, never before the previous cut.
	cuts := growInt(sh.prep.cuts, p+1)
	cuts[0], cuts[p] = 0, n
	for w := 1; w < p; w++ {
		c := w * n / p
		if c < cuts[w-1] {
			c = cuts[w-1]
		}
		for c > 0 && c < n && ks[c]>>32 == ks[c-1]>>32 {
			c++
		}
		cuts[w] = c
	}

	// Pass 1: count survivors and groups per range.
	kept := growInt(sh.prep.kept, p)
	gcnt := growInt(sh.prep.gcnt, p)
	parallel.ForBlockedW(p, p, func(_, r int) {
		lo, hi := cuts[r], cuts[r+1]
		nk, ng := 0, 0
		var prev uint64
		for i := lo; i < hi; i++ {
			k := ks[i]
			if i > lo && k == prev {
				continue
			}
			if i == lo || k>>32 != prev>>32 {
				ng++
			}
			prev = k
			nk++
		}
		kept[r], gcnt[r] = nk, ng
	})

	// Exclusive prefix sums place each range's output.
	totalK, totalG := 0, 0
	for r := 0; r < p; r++ {
		kept[r], totalK = totalK, totalK+kept[r]
		gcnt[r], totalG = totalG, totalG+gcnt[r]
	}

	// Pass 2: write deduped keys and groups at their final offsets.
	tmp := growU64(sh.prep.tmp, n)
	groups := growGroups(sh.prep.groups, totalG)
	on := obs.Enabled()
	parallel.ForBlockedW(p, p, func(_, r int) {
		lo, hi := cuts[r], cuts[r+1]
		kw, gw := kept[r], gcnt[r]
		var prev uint64
		for i := lo; i < hi; i++ {
			k := ks[i]
			if i > lo && k == prev {
				continue
			}
			if i == lo || k>>32 != prev>>32 {
				if i > lo {
					groups[gw-1].hi = kw
				}
				groups[gw] = group{v: uint32(k >> 32), lo: kw}
				gw++
			}
			tmp[kw] = k
			kw++
			prev = k
		}
		if hi > lo {
			groups[gw-1].hi = kw
		}
		if on {
			for gi := gcnt[r]; gi < gw; gi++ {
				obsGroupSize.Observe(uint64(groups[gi].hi - groups[gi].lo))
			}
		}
	})

	sh.prep.cuts, sh.prep.kept, sh.prep.gcnt = cuts, kept, gcnt
	sh.prep.groups = groups
	// The deduped stream now lives in tmp; swap the arenas so the next
	// batch reuses both buffers.
	sh.prep.ks, sh.prep.tmp = tmp, ks
	return tmp[:totalK], groups
}

// dedupGroupSeq is the one-worker dedup + group discovery, in place.
func dedupGroupSeq(sh *shardState, ks []uint64) ([]uint64, []group) {
	w := 0
	for i, k := range ks {
		if i > 0 && k == ks[i-1] {
			continue
		}
		ks[w] = k
		w++
	}
	ks = ks[:w]
	groups := sh.prep.groups[:0]
	on := obs.Enabled()
	for i := 0; i < len(ks); {
		v := uint32(ks[i] >> 32)
		j := i
		for j < len(ks) && uint32(ks[j]>>32) == v {
			j++
		}
		groups = append(groups, group{v: v, lo: i, hi: j})
		if on {
			obsGroupSize.Observe(uint64(j - i))
		}
		i = j
	}
	sh.prep.groups = groups
	return ks, groups
}

// forEachGroupBySize applies f to every group exactly once, with p
// workers in the shard's apply arena. Scheduling is skew-aware: groups are
// ordered largest-first and workers claim them dynamically, so a hub
// vertex's huge group starts immediately instead of serializing whichever
// worker a static round-robin happened to assign it to, with the rest of
// the batch back-filling the other workers. Each group — and therefore
// each source vertex, since prepareBatch emits one group per vertex — is
// applied by exactly one worker, preserving the lock-free
// one-vertex-one-worker invariant the paper's update path relies on (§5).
func forEachGroupBySize(sh *shardState, groups []group, p int, f func(w, gi int)) {
	n := len(groups)
	if n == 0 {
		return
	}
	sh.ensureApplyScratch(p)
	if p <= 1 {
		// One worker applies in vertex order; sorting the schedule would be
		// pure overhead.
		parallel.ForDynamicW(n, 1, f)
		return
	}
	order := growU64(sh.prep.order, n)
	for i := range groups {
		order[i] = uint64(groups[i].hi-groups[i].lo)<<32 | uint64(i)
	}
	parallel.SortUint64(order, p)
	sh.prep.order = order
	parallel.ForDynamicW(n, p, func(w, i int) {
		f(w, int(uint32(order[n-1-i])))
	})
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
// vertex's group per worker, largest groups first; with Shards > 1 it is
// first scattered by source vertex and the shards run their pipelines
// concurrently.
func (g *Graph) InsertBatch(src, dst []uint32) {
	validateBatch("InsertBatch", src, dst)
	if len(src) == 0 {
		return
	}
	defer rtrace.StartRegion(context.Background(), "lsgraph.InsertBatch").End()
	defer g.runDebugValidate()
	g.beginBatchTrace()
	if len(g.shards) == 1 {
		g.insertBatchShard(&g.shards[0], src, dst, g.workers())
		return
	}
	g.eachShardPart(src, dst, func(sh *shardState, part SubBatch, p int) {
		g.insertBatchShard(sh, part.Src, part.Dst, p)
	})
}

// DeleteBatch removes the directed edges (src[i] -> dst[i]). Absent edges
// are ignored.
func (g *Graph) DeleteBatch(src, dst []uint32) {
	validateBatch("DeleteBatch", src, dst)
	if len(src) == 0 {
		return
	}
	defer rtrace.StartRegion(context.Background(), "lsgraph.DeleteBatch").End()
	defer g.runDebugValidate()
	g.beginBatchTrace()
	if len(g.shards) == 1 {
		g.deleteBatchShard(&g.shards[0], src, dst, g.workers())
		return
	}
	g.eachShardPart(src, dst, func(sh *shardState, part SubBatch, p int) {
		g.deleteBatchShard(sh, part.Src, part.Dst, p)
	})
}

// beginBatchTrace stamps every shard with a fresh flight-recorder batch ID
// so phase spans from one direct-engine InsertBatch/DeleteBatch share an
// attribution. Direct batch calls own the whole graph, so plain stores are
// safe; the serving layer instead attributes per shard via Shard.BeginTrace.
func (g *Graph) beginBatchTrace() {
	if !trace.Enabled() {
		return
	}
	b := trace.NextBatchID()
	for i := range g.shards {
		g.shards[i].traceBatch = b
	}
}

// eachShardPart scatters a batch by source vertex and runs apply on every
// non-empty part, shards in parallel. Out-of-range endpoints are detected
// up front on the caller's goroutine (per-shard packKeys would panic
// inside a worker goroutine, where the caller could not recover it).
func (g *Graph) eachShardPart(src, dst []uint32, apply func(sh *shardState, part SubBatch, p int)) {
	parts, bound := g.ScatterBatch(src, dst)
	if n := g.n.Load(); bound > n {
		for i := range src {
			if src[i] >= n || dst[i] >= n {
				panic(fmt.Sprintf("core: edge (%d,%d) outside vertex space [0,%d); grow with EnsureVertices",
					src[i], dst[i], n))
			}
		}
	}
	p := g.shardWorkers()
	var thunks []func()
	for i := range parts {
		if len(parts[i].Src) == 0 {
			continue
		}
		sh, part := &g.shards[i], parts[i]
		thunks = append(thunks, func() { apply(sh, part, p) })
	}
	parallel.Run(thunks...)
}

// insertBatchShard runs the full prepare+apply pipeline for one shard's
// routed sub-batch with p workers. Callers must own the shard exclusively.
func (g *Graph) insertBatchShard(sh *shardState, src, dst []uint32, p int) {
	if len(src) == 0 {
		return
	}
	ks, groups := g.prepareBatch(sh, src, dst, p)
	sh.unpub++
	on := obs.Enabled()
	tApply := obs.StartTimer()
	trApply := trace.Start()
	var added atomic.Uint64
	base := sh.base
	forEachGroupBySize(sh, groups, p, func(w, gi int) {
		gr := groups[gi]
		vb := &sh.verts[gr.v-base]
		n := uint64(0)
		if !g.cfg.NoBulkRebuild && bulkThreshold(gr.hi-gr.lo, vb.deg) {
			if on {
				obsGroupsBulk.AddShard(w, 1)
			}
			n = g.insertGroupBulk(sh, w, vb, gr, ks)
		} else {
			if on {
				obsGroupsEdge.AddShard(w, 1)
			}
			for i := gr.lo; i < gr.hi; i++ {
				if g.insertOne(vb, uint32(ks[i])) {
					n++
				}
			}
		}
		if n != 0 {
			added.Add(n)
		}
	})
	sh.m.Add(added.Load())
	obsPhaseApply.ObserveSince(tApply)
	trace.Span(trace.PhaseApply, int(sh.idx), sh.traceBatch, 0, uint64(len(src)), trApply)
	if on {
		obsBatchesIns.Inc()
		obsUpdatesIns.Add(uint64(len(src)))
		obsEdgesAdded.Add(added.Load())
	}
}

// insertGroupBulk merges a vertex's existing neighbors with its update
// group and rebuilds its storage in one pass, returning the number of new
// edges. This is the large-batch fast path that lets throughput keep
// climbing with batch size (Figure 12). The merge runs in worker w's
// scratch arena; every overflow builder copies its input, so the arena is
// safe to reuse for the worker's next group.
func (g *Graph) insertGroupBulk(sh *shardState, w int, vb *vertex, gr group, ks []uint64) uint64 {
	sc := &sh.apply[w]
	if obs.Enabled() {
		if cap(sc.old) >= int(vb.deg) && cap(sc.out) >= int(vb.deg)+gr.hi-gr.lo {
			obsScratchHit.AddShard(w, 1)
		} else {
			obsScratchMiss.AddShard(w, 1)
		}
	}
	old := appendNeighborsVB(vb, sc.old[:0])
	merged := sc.out[:0]
	if cap(merged) < len(old)+gr.hi-gr.lo {
		merged = make([]uint32, 0, len(old)+gr.hi-gr.lo)
	}
	i, j := 0, gr.lo
	for i < len(old) && j < gr.hi {
		a, b := old[i], uint32(ks[j])
		switch {
		case a < b:
			merged = append(merged, a)
			i++
		case a > b:
			merged = append(merged, b)
			j++
		default:
			merged = append(merged, a)
			i++
			j++
		}
	}
	merged = append(merged, old[i:]...)
	for ; j < gr.hi; j++ {
		u := uint32(ks[j])
		if len(merged) > 0 && merged[len(merged)-1] == u {
			continue
		}
		merged = append(merged, u)
	}
	added := uint64(len(merged) - len(old))
	g.rebuildVertex(vb, merged)
	sc.old, sc.out = old, merged // retain grown capacity for the next group
	return added
}

// deleteBatchShard runs the full prepare+apply delete pipeline for one
// shard's routed sub-batch with p workers. Callers must own the shard
// exclusively.
func (g *Graph) deleteBatchShard(sh *shardState, src, dst []uint32, p int) {
	if len(src) == 0 {
		return
	}
	ks, groups := g.prepareBatch(sh, src, dst, p)
	sh.unpub++
	on := obs.Enabled()
	tApply := obs.StartTimer()
	trApply := trace.Start()
	var removed atomic.Uint64
	base := sh.base
	forEachGroupBySize(sh, groups, p, func(w, gi int) {
		gr := groups[gi]
		vb := &sh.verts[gr.v-base]
		n := uint64(0)
		if !g.cfg.NoBulkRebuild && deleteBulkThreshold(gr.hi-gr.lo, vb.deg) {
			if on {
				obsGroupsBulk.AddShard(w, 1)
			}
			n = g.deleteGroupBulk(sh, w, vb, gr, ks)
		} else {
			if on {
				obsGroupsEdge.AddShard(w, 1)
			}
			for i := gr.lo; i < gr.hi; i++ {
				if g.deleteOne(vb, uint32(ks[i])) {
					n++
				}
			}
		}
		if n != 0 {
			removed.Add(n)
		}
	})
	sh.subEdges(removed.Load())
	obsPhaseApply.ObserveSince(tApply)
	trace.Span(trace.PhaseApply, int(sh.idx), sh.traceBatch, 0, uint64(len(src)), trApply)
	if on {
		obsBatchesDel.Inc()
		obsUpdatesDel.Add(uint64(len(src)))
		obsEdgesRemoved.Add(removed.Load())
	}
}

// deleteGroupBulk subtracts a sorted update group from a vertex's neighbor
// set and rebuilds its storage, returning the number of removed edges. Like
// insertGroupBulk it runs in worker w's scratch arena.
func (g *Graph) deleteGroupBulk(sh *shardState, w int, vb *vertex, gr group, ks []uint64) uint64 {
	sc := &sh.apply[w]
	if obs.Enabled() {
		if cap(sc.old) >= int(vb.deg) && cap(sc.out) >= int(vb.deg) {
			obsScratchHit.AddShard(w, 1)
		} else {
			obsScratchMiss.AddShard(w, 1)
		}
	}
	old := appendNeighborsVB(vb, sc.old[:0])
	kept := sc.out[:0]
	if cap(kept) < len(old) {
		kept = make([]uint32, 0, len(old))
	}
	j := gr.lo
	for _, a := range old {
		for j < gr.hi && uint32(ks[j]) < a {
			j++
		}
		if j < gr.hi && uint32(ks[j]) == a {
			j++
			continue
		}
		kept = append(kept, a)
	}
	removed := uint64(len(old) - len(kept))
	g.rebuildVertex(vb, kept)
	sc.old, sc.out = old, kept
	return removed
}
