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

// TestLongRunPublishStaysBoundedAndExact is the soak of the
// append-or-rebuild publish on one Store that is never restarted: 10 000
// alternating insert/delete batches with a boundary move every 500, every
// batch followed by a pinned view compared in full against the refgraph
// oracle. Retired epochs, rebuild frequency and the live heap must stop
// growing once the arenas have been through their first rebuild cycles,
// and the kernels must give the same answers on a view pinned just before
// a rebuild (the most fragmented layout) as just after it (compact).
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
	baseSrc, baseDst := edges(6000)
	for i := range baseSrc {
		ref.Insert(baseSrc[i], baseDst[i])
	}
	st.InsertBatch(baseSrc, baseDst)
	st.Flush()

	// compareAcrossRebuild re-inserts edges the graph already holds — the
	// state does not change, but each batch re-appends its vertices' runs —
	// until a publish finds the tail full and rebuilds, then compares the
	// view pinned just before that publish with the one just after.
	compareAcrossRebuild := func() {
		for try := 0; try < 1000; try++ {
			before := st.View()
			rb := st.Stats().SnapshotRebuilds
			lo := rng.Intn(len(baseSrc) - 64)
			for i := lo; i < lo+64; i++ {
				ref.Insert(baseSrc[i], baseDst[i]) // a deleted base edge may come back
			}
			st.InsertBatch(baseSrc[lo:lo+64], baseDst[lo:lo+64])
			st.Flush()
			after := st.View()
			if st.Stats().SnapshotRebuilds > rb && before.NumEdges() == after.NumEdges() {
				checkViewAgainstRef(t, after, ref)
				sameKernels(t, "fragmented vs rebuilt", before, after, baseSrc[0])
				before.Release()
				after.Release()
				return
			}
			before.Release()
			after.Release()
		}
		t.Fatal("1000 re-insert batches never filled an arena's tail")
	}

	var heapWarm uint64
	var rebuildsWarm, publishedWarm uint64
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
			compareAcrossRebuild()
		}
		for _, w := range st.ws {
			// Nothing stays pinned between iterations, so a retired epoch
			// lives for at most one publish.
			if len(w.retired) > 2 {
				t.Fatalf("batch %d: shard %d holds %d retired epochs", b, w.idx, len(w.retired))
			}
		}
		if b == warm {
			heapWarm = heapInUse()
			s := st.Stats()
			rebuildsWarm, publishedWarm = s.SnapshotRebuilds, s.SnapshotsPublished
		}
	}

	s := st.Stats()
	rebuilds, published := s.SnapshotRebuilds-rebuildsWarm, s.SnapshotsPublished-publishedWarm
	if rebuilds == 0 || rebuilds*4 > published {
		t.Fatalf("%d rebuilds in %d publishes after warm-up: want some, and well under a quarter", rebuilds, published)
	}
	// The graph ends where it was at warm-up give or take a few hundred
	// edges, so the heap may wobble by an arena's tail but must not trend:
	// 8 000 more batches of leaked runs, tables or arenas would be megabytes.
	heapEnd := heapInUse()
	t.Logf("%d rebuilds in %d publishes after warm-up; live heap %d B at warm-up, %d B at the end", rebuilds, published, heapWarm, heapEnd)
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
