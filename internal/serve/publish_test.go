package serve

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"lsgraph/internal/algo"
	"lsgraph/internal/core"
	"lsgraph/internal/gen"
	"lsgraph/internal/refgraph"
)

// heapInUse forces a collection and returns the live heap.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// sameKernels runs PageRank and BFS levels on two views of the same graph
// state and requires the same answers.
func sameKernels(t *testing.T, what string, a, b *View, src uint32) {
	t.Helper()
	pa, pb := algo.PageRank(a, 5, 2), algo.PageRank(b, 5, 2)
	if len(pa) != len(pb) {
		t.Fatalf("%s: PageRank over %d vs %d vertices", what, len(pa), len(pb))
	}
	for i := range pa {
		if math.Abs(pa[i]-pb[i]) > 1e-12 {
			t.Fatalf("%s: PageRank[%d] = %g vs %g", what, i, pa[i], pb[i])
		}
	}
	if !slices.Equal(algo.BFSLevels(a, src, 2), algo.BFSLevels(b, src, 2)) {
		t.Fatalf("%s: BFS levels from %d differ", what, src)
	}
}

// TestLongRunPublishStaysBoundedAndExact is the soak of the self-cleaning
// publish on one Store that is never restarted: 10 000 alternating
// insert/delete batches with a boundary move every 500, every batch
// followed by a pinned view compared in full against the refgraph oracle.
// No publish may refill an arena except each shard's first and the two
// after a boundary move; at every 1 000th batch each shard's pages in use
// plus free must be within the bound core states for its live entries, with
// nothing left retired; the live heap must not trend; and the kernels must
// give the same answers on the long-run layout — cleaned hundreds of times,
// never rebuilt into order — as on a store built from the same edges fresh.
func TestLongRunPublishStaysBoundedAndExact(t *testing.T) {
	const (
		nv      = 512
		batches = 10_000
		warm    = 2_000
	)
	if testing.Short() {
		t.Skip("10 000-batch soak")
	}
	st := New(core.New(nv, core.Config{Workers: 2, Shards: 2}), Options{})
	defer st.Close()
	ref := refgraph.New(nv)
	rm := gen.NewRMatPaper(9, 17)
	rng := rand.New(rand.NewSource(17))

	edges := func(k int) (src, dst []uint32) {
		src, dst = make([]uint32, k), make([]uint32, k)
		for i, e := range rm.Edges(k) {
			src[i], dst[i] = e.Src, e.Dst
		}
		return src, dst
	}
	baseSrc, baseDst := edges(30_000)
	for i := range baseSrc {
		ref.Insert(baseSrc[i], baseDst[i])
	}
	st.InsertBatch(baseSrc, baseDst)
	st.Flush()

	// compareWithFresh runs the kernels on the store as the stream has left
	// it and on one bulk-loaded from the oracle's edges just now.
	compareWithFresh := func() {
		var fs, fd []uint32
		for v := uint32(0); v < nv; v++ {
			for _, u := range ref.Neighbors(v) {
				fs, fd = append(fs, v), append(fd, u)
			}
		}
		fresh := New(core.NewFromEdges(nv, fs, fd, core.Config{Workers: 2, Shards: 2}), Options{})
		defer fresh.Close()
		a, b := st.View(), fresh.View()
		defer a.Release()
		defer b.Release()
		checkViewAgainstRef(t, b, ref)
		sameKernels(t, "long-run vs fresh layout", a, b, baseSrc[0])
	}

	var heapWarm uint64
	var bs, bd []uint32
	for b := 0; b < batches; b++ {
		if b%2 == 0 {
			bs, bd = edges(1 + rng.Intn(48))
			for i := range bs {
				ref.Insert(bs[i], bd[i])
			}
			st.InsertBatch(bs, bd)
		} else {
			// Delete what the previous batch inserted plus a few base edges.
			k := rng.Intn(8)
			for i := 0; i < k; i++ {
				j := rng.Intn(len(baseSrc))
				bs, bd = append(bs, baseSrc[j]), append(bd, baseDst[j])
			}
			for i := range bs {
				ref.Delete(bs[i], bd[i])
			}
			st.DeleteBatch(bs, bd)
		}
		st.Flush()
		v := st.View()
		checkViewAgainstRef(t, v, ref)
		v.Release()

		if b%500 == 250 {
			// Move the boundary back and forth across the middle.
			cut := uint32(nv/2 - 64 + rng.Intn(128))
			if _, _, err := st.MoveBoundary(0, cut); err != nil && err != core.ErrNoMove {
				t.Fatal(err)
			}
			v := st.View()
			checkViewAgainstRef(t, v, ref)
			v.Release()
		}
		if b%2500 == 1250 {
			compareWithFresh()
		}
		for _, w := range st.ws {
			// Nothing stays pinned between iterations, so a retired epoch
			// lives for at most one publish.
			if len(w.retired) > 2 {
				t.Fatalf("batch %d: shard %d holds %d retired epochs", b, w.idx, len(w.retired))
			}
			if ps := w.shard.Published(); b%1000 == 999 && (ps.InUse+ps.Free > ps.Bound || ps.Retired != 0) {
				t.Fatalf("batch %d: shard %d's arena %+v exceeds its bound", b, w.idx, ps)
			}
		}
		if b == warm {
			heapWarm = heapInUse()
		}
	}

	s := st.Stats()
	if want := uint64(st.Shards()) + 2*s.BoundaryMoves; s.SnapshotRebuilds != want || s.BoundaryMoves == 0 {
		t.Fatalf("%d rebuilds over %d boundary moves: want %d, the first publishes and two a move", s.SnapshotRebuilds, s.BoundaryMoves, want)
	}
	if s.ArenaCleanedEntries == 0 {
		t.Fatal("10 000 batches never cleaned a page")
	}
	// The graph ends where it was at warm-up give or take a few hundred
	// edges, so the heap may wobble by a few pages but must not trend:
	// 8 000 more batches of leaked runs, tables or pages would be megabytes.
	heapEnd := heapInUse()
	t.Logf("%d entries cleaned in %d publishes; live heap %d B at warm-up, %d B at the end", s.ArenaCleanedEntries, s.SnapshotsPublished, heapWarm, heapEnd)
	if heapEnd > heapWarm+heapWarm/4+(256<<10) {
		t.Fatalf("live heap grew from %d B at batch %d to %d B at batch %d", heapWarm, warm, heapEnd, batches)
	}
}

// TestCheckpointFromAppendedSnapshot takes a checkpoint while every shard's
// current snapshot has runs appended out of vertex order — the layout that
// is not a CSR until materialized — and requires the reopened store to
// come back from that checkpoint alone, edge for edge.
func TestCheckpointFromAppendedSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := openDur(t, dir, 256, 2, DurabilityOptions{})
	rng := rand.New(rand.NewSource(5))
	src, dst := make([]uint32, 3000), make([]uint32, 3000)
	for i := range src {
		src[i], dst[i] = uint32(rng.Intn(256)), uint32(rng.Intn(256))
	}
	st.InsertBatch(src, dst)
	st.Flush()
	rebuilds := st.Stats().SnapshotRebuilds
	for b := 0; b < 12; b++ {
		bs := []uint32{uint32(rng.Intn(256)), uint32(rng.Intn(256)), uint32(rng.Intn(256))}
		bd := []uint32{uint32(rng.Intn(256)), uint32(rng.Intn(256)), 300 + uint32(b)} // grows the vertex space too
		if b%3 == 2 {
			st.DeleteBatch(src[b*10:b*10+10], dst[b*10:b*10+10])
		} else {
			st.InsertBatch(bs, bd)
		}
	}
	st.Flush()
	if got := st.Stats().SnapshotRebuilds; got != rebuilds {
		t.Fatalf("small batches rebuilt %d times; the checkpoint would not see an appended snapshot", got-rebuilds)
	}
	want := edgeSet(st)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	re := openDur(t, dir, 256, 2, DurabilityOptions{})
	defer re.Close()
	rst := re.Recovery()
	if !rst.CheckpointLoaded || rst.ReplayedRecords != 0 {
		t.Fatalf("reopen did not come from the checkpoint alone: %+v", rst)
	}
	sameEdges(t, edgeSet(re), want, "store recovered from an appended snapshot's checkpoint")
}

// streamGraph draws the ruler's store-stream shape: a symmetrised rMat base
// graph of the given number of undirected pairs over 2^scale vertices, and
// nb batches of 500 pairs (1 000 directed edges) absent from the base and
// from each other.
func streamGraph(scale uint, pairs, nb int) (src, dst []uint32, batches [][2][]uint32) {
	rm := gen.NewRMatPaper(scale, 1)
	have := map[uint64]bool{}
	draw := func(n int) (src, dst []uint32) {
		for len(src) < 2*n {
			e := rm.Edge()
			u, v := min(e.Src, e.Dst), max(e.Src, e.Dst)
			if k := uint64(u)<<32 | uint64(v); u != v && !have[k] {
				have[k] = true
				src, dst = append(src, u, v), append(dst, v, u)
			}
		}
		return src, dst
	}
	src, dst = draw(pairs)
	for i := 0; i < nb; i++ {
		bs, bd := draw(500)
		batches = append(batches, [2][]uint32{bs, bd})
	}
	return src, dst, batches
}

// TestStorePublishedBytesMatchHeap holds a Store's accounting against the
// runtime's, as core's TestMemoryUsageMatchesHeap does for the bare engine:
// after the ruler's store-stream shape — a G15 graph in two shards, rounds
// of 1 000-edge batches inserted and deleted again — the engine's
// MemoryBreakdown plus Stats.PublishedBytes (snapshot tables; arena pages in
// use, free and retired) is within 10 % of what the heap holds for the
// store, right after the load and again once the arenas have been cleaning
// for three rounds.
func TestStorePublishedBytesMatchHeap(t *testing.T) {
	const scale, nb = 15, 64
	src, dst, batches := streamGraph(scale, 4<<scale, nb)

	heap0 := heapInUse()
	st := New(core.NewFromEdges(1<<scale, src, dst, core.Config{Workers: 2, Shards: 2}), Options{})
	defer st.Close()
	check := func(when string) {
		t.Helper()
		st.Flush()
		heap := heapInUse() - heap0
		b, s := st.g.MemoryBreakdown(), st.Stats()
		m := float64(b.Total() + s.PublishedBytes)
		t.Logf("%s: heap %d B, engine %d B + published %d B (%+.1f%%), %.2f B/edge; %d entries cleaned",
			when, heap, b.Total(), s.PublishedBytes, 100*(m/float64(heap)-1), float64(heap)/float64(len(src)), s.ArenaCleanedEntries)
		if math.Abs(m/float64(heap)-1) > 0.10 {
			t.Errorf("%s: engine %d B + published %d B is not within 10%% of the %d B the heap holds", when, b.Total(), s.PublishedBytes, heap)
		}
	}
	check("after load")
	for round := 0; round < 3; round++ {
		for _, b := range batches {
			st.InsertBatch(b[0], b[1])
			st.Flush()
		}
		for _, b := range batches {
			st.DeleteBatch(b[0], b[1])
			st.Flush()
		}
	}
	check("after three insert/delete rounds")
	if st.Stats().ArenaCleanedEntries == 0 {
		t.Error("three rounds never cleaned a page")
	}
	runtime.KeepAlive([]any{src, dst, batches})
}
