package serve

import (
	"fmt"
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

// pagedFromEdges is a Store's graph in the given number of shards, with two
// workers, bulk-loaded with the edges as recovery loads a checkpoint: their
// CSR copied to pages, in vertex order.
func pagedFromEdges(n uint32, src, dst []uint32, shards int) *core.Paged {
	offs, adj := core.NewFromEdges(n, src, dst, core.Config{}).Snapshot().CSR()
	g := core.NewPaged(n, shards, 2)
	if err := g.LoadCSR(0, offs, adj); err != nil {
		panic(err)
	}
	return g
}

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
// At every 1 000th batch each shard's pages in use plus free must be within
// the bound core states for its live entries, with nothing left retired; the
// shards must hold no live structure and pass the deep walk of their tables
// and pages at the end; the live heap must not trend; and the kernels must
// give the same answers on the long-run layout — merged into and cleaned
// thousands of times, never rebuilt into order — as on a store built from
// the same edges fresh.
func TestLongRunPublishStaysBoundedAndExact(t *testing.T) {
	const (
		nv      = 512
		batches = 10_000
		warm    = 2_000
	)
	if testing.Short() {
		t.Skip("10 000-batch soak")
	}
	st := New(core.NewPaged(nv, 2, 2), Options{})
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
		fresh := New(pagedFromEdges(nv, fs, fd, 2), Options{})
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
		// Nothing stays pinned between iterations, so a retired epoch lives
		// for at most one install, and a shard holds its current snapshot
		// and at most the one that epoch still held.
		if len(st.retired) > 1 {
			t.Fatalf("batch %d: the store holds %d retired epochs", b, len(st.retired))
		}
		for i := range st.shards {
			sh := &st.shards[i]
			if len(sh.held) > 2 {
				t.Fatalf("batch %d: shard %d holds %d unrecycled snapshots", b, i, len(sh.held))
			}
			if ps := sh.shard.Published(); b%1000 == 999 && (ps.InUse+ps.Free > ps.Bound || ps.Retired != 0) {
				t.Fatalf("batch %d: shard %d's arena %+v exceeds its bound", b, i, ps)
			}
		}
		if b == warm {
			heapWarm = heapInUse()
		}
	}

	s := st.Stats()
	if s.ArenaCleanedEntries == 0 || s.BoundaryMoves == 0 {
		t.Fatalf("10 000 batches cleaned %d entries over %d boundary moves: want some of both", s.ArenaCleanedEntries, s.BoundaryMoves)
	}
	if err := st.g.CheckInvariants(); err != nil {
		t.Fatal(err)
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

// TestStoreBytesPerEdgeBudget is the tripwire on what a Store holds per edge:
// a two-shard G13 store (65 536 directed edges, loaded as a checkpoint is)
// after 256 streamed 1 000-edge batches — 128 inserted, then deleted again,
// each flushed — must hold no more heap per edge than was measured when its
// graph became paged from birth, plus a tenth. At this size the constants
// weigh most of it — 17.8 B/edge: tables and pages in use, free and retired
// 17.0, the update pipeline's retained scratch 0.6 — which is the point of a
// small graph: a second copy of the edges, in any form, is +6 and trips it
// (built live and flattened at the first publish, as before, it read 24.2:
// the scratch of the live bulk load; with its live structures kept, 34.3).
func TestStoreBytesPerEdgeBudget(t *testing.T) {
	const scale, nb, budget = 13, 128, 17.8 * 1.10
	src, dst, batches := streamGraph(scale, 4<<scale, nb)
	heap0 := heapInUse()
	st := New(pagedFromEdges(1<<scale, src, dst, 2), Options{})
	defer st.Close()
	for _, b := range batches {
		st.InsertBatch(b[0], b[1])
		st.Flush()
	}
	for _, b := range batches {
		st.DeleteBatch(b[0], b[1])
		st.Flush()
	}
	m := float64(len(src))
	perEdge := float64(heapInUse()-heap0) / m
	t.Logf("%d edges after %d batches: %.2f B/edge of heap (budget %.2f); published %.2f, engine scratch %.2f",
		len(src), 2*nb, perEdge, budget, float64(st.Stats().PublishedBytes)/m, float64(st.g.ScratchBytes())/m)
	if perEdge > budget {
		t.Errorf("store holds %.2f B/edge, budget %.2f", perEdge, budget)
	}
	runtime.KeepAlive([]any{src, dst, batches})
}

// TestStorePublishedBytesMatchHeap holds a Store's accounting against the
// runtime's, as core's TestMemoryUsageMatchesHeap does for the bare engine:
// after the ruler's store-stream shape — a G15 graph in two shards, rounds
// of 1 000-edge batches inserted and deleted again — Stats.PublishedBytes
// (snapshot tables; arena pages in use, free and retired) plus the paged
// graph's ScratchBytes, the update pipeline's buffers, is within 10 % of
// what the heap holds
// for the store, right after the load and again once the arenas have been
// cleaning for three rounds.
func TestStorePublishedBytesMatchHeap(t *testing.T) {
	const scale, nb = 15, 64
	src, dst, batches := streamGraph(scale, 4<<scale, nb)

	heap0 := heapInUse()
	st := New(pagedFromEdges(1<<scale, src, dst, 2), Options{})
	defer st.Close()
	check := func(when string) {
		t.Helper()
		st.Flush()
		heap := heapInUse() - heap0
		scratch, s := st.g.ScratchBytes(), st.Stats()
		m := float64(scratch + s.PublishedBytes)
		t.Logf("%s: heap %d B, scratch %d B + published %d B (%+.1f%%), %.2f B/edge; %d entries cleaned",
			when, heap, scratch, s.PublishedBytes, 100*(m/float64(heap)-1), float64(heap)/float64(len(src)), s.ArenaCleanedEntries)
		if math.Abs(m/float64(heap)-1) > 0.10 {
			t.Errorf("%s: scratch %d B + published %d B is not within 10%% of the %d B the heap holds", when, scratch, s.PublishedBytes, heap)
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

// TestHeldViewReadsOldAdjacency pins a view and keeps two readers comparing
// it, word for word, against a copy taken at the pin while the writers merge
// 200 batches into the very pages it reads — new runs on the tails of pages
// it holds the front of, old runs it still reads used as merge input, pages
// cleaned and retired under it. Under -race any write to a word the view can
// reach is a reported race; without it, a changed word fails the comparison.
func TestHeldViewReadsOldAdjacency(t *testing.T) {
	const scale, nb, pre = 11, 104, 4
	src, dst, batches := streamGraph(scale, 4<<scale, nb)
	st := New(core.NewPaged(1<<scale, 2, 2), Options{})
	defer st.Close()
	st.InsertBatch(src, dst)
	for _, b := range batches[:pre] { // a fragmented epoch, sharing pages with its neighbours
		st.InsertBatch(b[0], b[1])
		st.Flush()
	}
	held := st.View()
	defer held.Release()
	want := make([][]uint32, held.NumVertices())
	for u := range want {
		want[u] = slices.Clone(held.Neighbors(uint32(u)))
	}
	compare := func() error {
		for u := range want {
			if !slices.Equal(held.Neighbors(uint32(u)), want[u]) {
				return fmt.Errorf("held view Neighbors(%d) = %v, read %v when pinned", u, held.Neighbors(uint32(u)), want[u])
			}
		}
		return nil
	}

	stop := make(chan struct{})
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func() {
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				if err := compare(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for _, b := range batches[pre:] {
		st.InsertBatch(b[0], b[1])
		st.Flush()
	}
	for _, b := range batches {
		st.DeleteBatch(b[0], b[1])
		st.Flush()
	}
	close(stop)
	for r := 0; r < 2; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := compare(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.BatchesApplied < 200 || s.SnapshotsPublished < 2*200 || s.ArenaCleanedEntries == 0 {
		t.Fatalf("%d batches applied, %d shard snapshots published, %d entries cleaned under the held view: want ≥ 200, ≥ 400, some",
			s.BatchesApplied, s.SnapshotsPublished, s.ArenaCleanedEntries)
	}
}
