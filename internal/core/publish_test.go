package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lsgraph/internal/gen"
)

// sameSnapshot reports the first vertex at which two snapshots differ.
func sameSnapshot(t *testing.T, what string, got, want *Snapshot) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d vertices / %d edges, want %d / %d", what,
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := uint32(0); v < want.NumVertices(); v++ {
		if got.Degree(v) != want.Degree(v) || !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("%s: vertex %d reads %v, want %v", what, v, got.Neighbors(v), want.Neighbors(v))
		}
	}
}

// frozen is a published snapshot together with a private rebuild of the
// same state: the snapshot must keep reading like the rebuild however many
// publishes follow it.
type frozen struct {
	snap, want *Snapshot
}

// randomBatch draws k edges whose sources fall in [lo, hi).
func randomBatch(rng *rand.Rand, k int, lo, hi, n uint32) (src, dst []uint32) {
	src, dst = make([]uint32, k), make([]uint32, k)
	for i := range src {
		src[i] = lo + uint32(rng.Intn(int(hi-lo)))
		dst[i] = uint32(rng.Intn(int(n)))
	}
	return src, dst
}

// TestPublishMatchesRebuild drives one shard through 2 400 insert and
// delete batches, publishing after each, and checks every published
// snapshot against a from-scratch rebuild of the same state — and that the
// snapshots still held, recycled in no particular order and one of them
// kept across hundreds of publishes, read exactly what they read when they
// were published, while the arena under them appends to shared pages,
// cleans, retires pages and reuses them. Only the first publish may rebuild.
//
// Mutation check (by hand, PR 22): freeing a retired page one snapshot early
// (drain comparing against out[0]+1) fails this test, and
// TestPublishRecyclePrograms, at the first reused page an older snapshot
// still reads.
func TestPublishMatchesRebuild(t *testing.T) {
	const n, sources, batches = 1 << 12, 256, 2400
	g := New(n, Config{Shards: 2, Workers: 2})
	sh := g.Shard(1)
	lo := sh.Base()
	rng := rand.New(rand.NewSource(11))
	sh.InsertBatch(randomBatch(rng, 100_000, lo, lo+sources, n))

	var prev, prevWant *Snapshot
	var olds []frozen
	var pinned frozen
	rebuilds, reused := 0, 0
	for b := 0; b < batches; b++ {
		src, dst := randomBatch(rng, 1+rng.Intn(24), lo, lo+sources, n)
		if b%3 == 2 {
			sh.DeleteBatch(src, dst)
		} else {
			sh.InsertBatch(src, dst)
		}
		free := len(sh.sh.pub.free)
		snap, rebuilt := sh.Publish(prev)
		if rebuilt {
			rebuilds++
		}
		reusedPage := len(sh.sh.pub.free) < free
		if reusedPage {
			reused++
		}
		want := sh.SnapshotInto(nil)
		sameSnapshot(t, "published", snap, want)
		if snap.NumEdges() != sh.NumEdges() {
			t.Fatalf("batch %d: snapshot has %d edges, shard %d", b, snap.NumEdges(), sh.NumEdges())
		}
		// A held snapshot can only change when a page it reads is written
		// again: check them all after every reuse, and now and then anyway.
		if reusedPage || b%16 == 0 {
			for _, o := range olds {
				sameSnapshot(t, "older epoch", o.snap, o.want)
			}
			if pinned.snap != nil {
				sameSnapshot(t, "long-pinned epoch", pinned.snap, pinned.want)
			}
		}
		if st := sh.Published(); pinned.snap == nil && len(olds) == 0 && st.InUse+st.Free > st.Bound {
			t.Fatalf("batch %d: %d B in use + %d B free exceed the bound %d", b, st.InUse, st.Free, st.Bound)
		}
		// The previous latest joins the held set; some held snapshot, not
		// necessarily the oldest, goes back; every 600th publish the
		// long-pinned one is swapped.
		if prev != nil {
			olds = append(olds, frozen{prev, prevWant})
		}
		for len(olds) > 6 || (len(olds) > 0 && rng.Intn(3) == 0) {
			i := rng.Intn(len(olds))
			if b%600 == 300 {
				if pinned.snap != nil {
					sh.Recycle(pinned.snap)
				}
				pinned = olds[i]
			} else {
				sh.Recycle(olds[i].snap)
			}
			olds = slices.Delete(olds, i, i+1)
		}
		prev, prevWant = snap, want
	}
	st := sh.Published()
	if rebuilds != 1 || st.Cleaned == 0 || reused < 50 {
		t.Fatalf("%d rebuilds, %d entries cleaned, %d publishes reused a page: want the first publish only, some, many",
			rebuilds, st.Cleaned, reused)
	}
}

// TestPublishMatchesRebuildAfterShapes publishes after the insert and after
// the delete of every partition-stressing batch shape, at 1, 2 and 4
// workers, on a preloaded shard whose arena tail is large enough that the
// shapes which fit it take the append path — the path that reads
// sh.prep.groups — and checks each snapshot against a from-scratch rebuild.
func TestPublishMatchesRebuildAfterShapes(t *testing.T) {
	appends := 0
	for _, shape := range batchShapes() {
		rng := rand.New(rand.NewSource(23))
		base, bdst := randomBatch(rng, 8*int(shape.nv), 0, shape.nv, shape.nv)
		for _, p := range []int{1, 2, 4} {
			sh := New(shape.nv, Config{Workers: p}).Shard(0)
			sh.InsertBatch(base, bdst)
			prev, _ := sh.Publish(nil)
			for step, del := range []bool{false, true} {
				if del {
					sh.DeleteBatch(shape.src[:len(shape.src)/3], shape.dst[:len(shape.src)/3])
				} else {
					sh.InsertBatch(shape.src, shape.dst)
				}
				snap, rebuilt := sh.Publish(prev)
				if !rebuilt {
					appends++
				}
				sameSnapshot(t, fmt.Sprintf("%s p=%d step %d (rebuilt=%v)", shape.name, p, step, rebuilt),
					snap, sh.SnapshotInto(nil))
				prev = snap
			}
		}
	}
	if appends < 12 {
		t.Fatalf("only %d publishes appended; the shapes must exercise the groups-driven path", appends)
	}
}

// TestPublishGrowth grows the vertex space between publishes: the table
// extends, the new vertices read as degree 0 until a batch names them, and
// a snapshot published before the growth keeps its own vertex count.
func TestPublishGrowth(t *testing.T) {
	g := New(8, Config{Workers: 1})
	sh := g.Shard(0)
	sh.InsertBatch([]uint32{1, 2}, []uint32{2, 1})
	s0, _ := sh.Publish(nil)

	sh.EnsureVertices(100)
	s1, rebuilt := sh.Publish(s0)
	if rebuilt {
		t.Fatal("growth alone forced a rebuild")
	}
	if s0.NumVertices() != 8 || s1.NumVertices() != 100 {
		t.Fatalf("vertex counts %d then %d, want 8 then 100", s0.NumVertices(), s1.NumVertices())
	}
	for v := uint32(8); v < 100; v++ {
		if s1.Degree(v) != 0 || len(s1.Neighbors(v)) != 0 {
			t.Fatalf("grown vertex %d has degree %d", v, s1.Degree(v))
		}
	}

	// A recycled table carries stale entries; growth must not read them.
	junk, _ := sh.Publish(s1)
	for v := range junk.tab {
		junk.tab[v] = vref{off: 1, deg: 1}
	}
	sh.Recycle(junk)
	sh.EnsureVertices(120)
	sh.InsertBatch([]uint32{99, 110}, []uint32{3, 99})
	s2, rebuilt := sh.Publish(s1)
	if rebuilt {
		t.Fatal("two-edge batch forced a rebuild")
	}
	sameSnapshot(t, "after growth + batch", s2, sh.SnapshotInto(nil))
	if got := s2.Neighbors(110); !slices.Equal(got, []uint32{99}) {
		t.Fatalf("Neighbors(110) = %v", got)
	}
	if s1.NumVertices() != 100 || s1.Degree(99) != 0 {
		t.Fatal("the snapshot published before the growth changed")
	}
}

// TestPublishRebuildRules pins when a publish refills the arena from the
// live structures: no previous snapshot, more than one batch since the
// previous publish, and a boundary move. Everything else appends — however
// much of the shard the batch names — and what a refill replaces retires
// through the same path as any emptied page.
func TestPublishRebuildRules(t *testing.T) {
	const n = 1 << 10
	g := New(n, Config{Shards: 2, Workers: 2})
	es := gen.Symmetrize(gen.NewRMatPaper(10, 5).Edges(6000))
	src, dst := make([]uint32, len(es)), make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	g.InsertBatch(src, dst)
	sh := g.Shard(0)
	a := &sh.sh.pub
	lo, hi := sh.Base(), sh.Base()+sh.NumVertices()
	rng := rand.New(rand.NewSource(3))

	s0, rebuilt := sh.Publish(nil)
	if !rebuilt {
		t.Fatal("first publish did not rebuild")
	}
	// A shard this small fills pages of a quarter of its edges.
	var live uint64
	for _, n := range a.live {
		live += uint64(n)
	}
	if want := uint64(len(s0.pages)) * uint64(pageLen(sh.NumEdges())); a.inUse != want || live != sh.NumEdges() || a.m != live {
		t.Fatalf("first publish of %d edges: %d entries of pages (want %d), %d counted live", sh.NumEdges(), a.inUse, want, live)
	}

	// Nothing changed: a table copy, no rebuild, nothing appended.
	room := a.tails[0].room
	s1, rebuilt := sh.Publish(s0)
	if rebuilt || a.tails[0].room != room {
		t.Fatalf("empty publish: rebuilt=%v, appended %d entries", rebuilt, room-a.tails[0].room)
	}

	// One small batch gives exactly its vertices new runs, on pages the older
	// snapshots read the front of or not at all.
	bs, bd := randomBatch(rng, 8, lo, hi, n)
	sh.InsertBatch(bs, bd)
	seen := map[uint32]bool{}
	for _, v := range bs {
		seen[v] = true
	}
	s2, rebuilt := sh.Publish(s1)
	if rebuilt {
		t.Fatal("small batch rebuilt")
	}
	for lv, r := range s2.tab {
		if moved := r != s1.tab[lv]; moved != seen[lo+uint32(lv)] {
			t.Fatalf("vertex %d: run moved=%v, in the batch=%v", lo+uint32(lv), moved, !moved)
		}
	}
	for id, pg := range s0.pages {
		if &s2.pages[id][0] != &pg[0] || len(s2.pages[id]) < len(pg) {
			t.Fatalf("append publish left shared page %d", id)
		}
	}

	// A batch naming every vertex appends too, and leaves what the older
	// snapshots read exactly as it was.
	want2 := sh.SnapshotInto(nil)
	var ws, wd []uint32
	for v := lo; v < hi; v++ {
		ws, wd = append(ws, v), append(wd, (v+1)%n)
	}
	sh.InsertBatch(ws, wd)
	s3, rebuilt := sh.Publish(s2)
	if rebuilt {
		t.Fatalf("batch touching all %d vertices rebuilt", hi-lo)
	}
	sameSnapshot(t, "after a whole-shard batch", s3, sh.SnapshotInto(nil))
	sameSnapshot(t, "epoch before it", s2, want2)

	// Two batches between publishes: the touched set is unknown. The refill
	// goes to fresh pages; the old ones wait for s0..s3.
	want3 := sh.SnapshotInto(nil)
	for i := 0; i < 2; i++ {
		bs, bd = randomBatch(rng, 4, lo, hi, n)
		sh.InsertBatch(bs, bd)
	}
	s4, rebuilt := sh.Publish(s3)
	if !rebuilt {
		t.Fatal("two batches since the last publish did not rebuild")
	}
	sameSnapshot(t, "after two batches", s4, sh.SnapshotInto(nil))
	sameSnapshot(t, "epoch before the refill", s3, want3)
	if len(a.retired) == 0 {
		t.Fatal("refill with older snapshots out retired no page")
	}
	for _, s := range []*Snapshot{s1, s3, s0, s2} {
		sh.Recycle(s)
	}
	if len(a.retired) != 0 {
		t.Fatalf("older snapshots recycled: %d pages still retired", len(a.retired))
	}

	// A boundary move shifts slots and bases under both shards.
	other := g.Shard(1)
	o0, _ := other.Publish(nil)
	if _, _, err := g.MoveBoundary(0, hi-100); err != nil {
		t.Fatal(err)
	}
	s5, rebuilt := sh.Publish(s4)
	o1, orebuilt := other.Publish(o0)
	if !rebuilt || !orebuilt {
		t.Fatalf("publish after a boundary move: rebuilt=%v/%v", rebuilt, orebuilt)
	}
	sameSnapshot(t, "donor after move", s5, sh.SnapshotInto(nil))
	sameSnapshot(t, "receiver after move", o1, other.SnapshotInto(nil))
}

// TestPublishRunShapes covers the runs that do not fit the common case: one
// longer than a page (a page of exactly its size, retired whole when the
// vertex is next touched), one that shrinks to nothing, and a boundary move
// between two appends.
func TestPublishRunShapes(t *testing.T) {
	const n, big = 1 << 16, pageSize + 1000
	g := New(n, Config{Shards: 2, Workers: 2})
	sh, other := g.Shard(0), g.Shard(1)
	a := &sh.sh.pub
	hub := make([]uint32, big)
	dst := make([]uint32, big)
	for i := range dst {
		hub[i], dst[i] = 7, uint32(2*i)
	}
	sh.InsertBatch([]uint32{3, 3, 9}, []uint32{1, 2, 5})
	s0, _ := sh.Publish(nil)
	o0, _ := other.Publish(nil)

	sh.InsertBatch(hub, dst)
	s1, rebuilt := sh.Publish(s0)
	want1 := sh.SnapshotInto(nil)
	if rebuilt || len(s1.Neighbors(7)) != big {
		t.Fatalf("hub publish: rebuilt=%v, %d neighbors, want %d", rebuilt, len(s1.Neighbors(7)), big)
	}
	if pg := a.pages[s1.tab[7].off>>pageBits]; len(pg) != big || a.inUse != pageMin+big {
		t.Fatalf("a %d-entry run sits in a page of %d; %d entries of pages in use", big, len(pg), a.inUse)
	}
	sameSnapshot(t, "with a run longer than a page", s1, want1)

	// Vertex 3's run shrinks to nothing; the hub loses one neighbor, so its
	// old page retires whole and a new exact one opens.
	sh.DeleteBatch([]uint32{3, 3, 7}, []uint32{1, 2, 0})
	s2, rebuilt := sh.Publish(s1)
	if rebuilt || s2.Degree(3) != 0 || len(s2.Neighbors(3)) != 0 || s2.Degree(7) != big-1 {
		t.Fatalf("after deletes: rebuilt=%v, degree(3)=%d, degree(7)=%d", rebuilt, s2.Degree(3), s2.Degree(7))
	}
	if len(a.retired) != 1 || len(a.retired[0].page) != big || a.inUse != pageMin+big-1 {
		t.Fatalf("%d pages retired, %d entries of pages in use", len(a.retired), a.inUse)
	}
	sameSnapshot(t, "after a run shrank to 0", s2, sh.SnapshotInto(nil))
	sameSnapshot(t, "epoch holding the retired hub page", s1, want1)

	// A boundary move mid-stream: both sides refill, then append again.
	if _, _, err := g.MoveBoundary(0, 8); err != nil {
		t.Fatal(err)
	}
	s3, rebuilt := sh.Publish(s2)
	o1, orebuilt := other.Publish(o0)
	if !rebuilt || !orebuilt || s3.NumVertices() != 8 || o1.Degree(1) != 1 {
		t.Fatalf("after the move: rebuilt=%v/%v, donor has %d vertices, vertex 9 degree %d", rebuilt, orebuilt, s3.NumVertices(), o1.Degree(1))
	}
	other.InsertBatch([]uint32{9}, []uint32{6})
	o2, rebuilt := other.Publish(o1)
	if rebuilt || !slices.Equal(o2.Neighbors(1), []uint32{5, 6}) {
		t.Fatalf("append after the move: rebuilt=%v, vertex 9 reads %v", rebuilt, o2.Neighbors(1))
	}
	sameSnapshot(t, "donor after the move", s3, sh.SnapshotInto(nil))
	sameSnapshot(t, "receiver after the move", o2, other.SnapshotInto(nil))
	sameSnapshot(t, "epoch from before the move", s1, want1)
}

// TestSnapshotCSR checks CSR on both layouts: a plain CSR hands out its own
// adjacency, a published snapshot a compacted copy, and both describe the
// same graph.
func TestSnapshotCSR(t *testing.T) {
	const n = 256
	g := New(n, Config{Workers: 1})
	sh := g.Shard(0)
	rng := rand.New(rand.NewSource(9))
	src, dst := randomBatch(rng, 2000, 0, n, n)
	sh.InsertBatch(src, dst)
	flat := sh.SnapshotInto(nil)
	offs, adj := flat.CSR()
	if len(adj) > 0 && &adj[0] != &flat.adj[0] {
		t.Fatal("CSR of a plain CSR copied the adjacency")
	}
	checkCSR(t, flat, offs, adj)

	s0, _ := sh.Publish(nil)
	bs, bd := randomBatch(rng, 10, 0, n, n)
	sh.DeleteBatch(src[:10], dst[:10])
	s1, _ := sh.Publish(s0)
	sh.InsertBatch(bs, bd)
	s2, rebuilt := sh.Publish(s1)
	if rebuilt {
		t.Fatal("ten-edge batch rebuilt")
	}
	offs, adj = s2.CSR()
	if &adj[0] == &s2.pages[0][0] {
		t.Fatal("CSR of a published snapshot aliases a page")
	}
	checkCSR(t, s2, offs, adj)
	wantOffs, wantAdj := sh.SnapshotInto(nil).CSR()
	if !slices.Equal(offs, wantOffs) || !slices.Equal(adj, wantAdj) {
		t.Fatal("CSR of the published snapshot differs from a rebuild's")
	}
}

func checkCSR(t *testing.T, s *Snapshot, offs []uint64, adj []uint32) {
	t.Helper()
	if len(offs) != int(s.NumVertices())+1 || offs[0] != 0 || offs[len(offs)-1] != s.NumEdges() || uint64(len(adj)) != s.NumEdges() {
		t.Fatalf("CSR shape: %d offsets, last %d, %d adjacency entries for %d vertices / %d edges",
			len(offs), offs[len(offs)-1], len(adj), s.NumVertices(), s.NumEdges())
	}
	for v := uint32(0); v < s.NumVertices(); v++ {
		if !slices.Equal(adj[offs[v]:offs[v+1]], s.Neighbors(v)) {
			t.Fatalf("CSR segment of vertex %d differs from Neighbors", v)
		}
	}
}

// TestScratchNotRetainedAfterBulkLoad checks that prepare and apply scratch
// sized by a bulk load is dropped once batches a fraction of its size
// follow, that what replaces it fits those batches, and that a steady
// stream still allocates nothing from its second batch on.
func TestScratchNotRetainedAfterBulkLoad(t *testing.T) {
	const scale, bulk = 14, 400_000
	n := uint32(1) << scale
	g := New(n, Config{Workers: 2})
	es := gen.NewRMatPaper(scale, 1).Edges(bulk)
	src, dst := make([]uint32, len(es)), make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	g.InsertBatch(src, dst)
	sh := &g.shards[0]
	if cap(sh.prep.ks) < bulk {
		t.Fatalf("bulk load left %d key slots, expected at least %d", cap(sh.prep.ks), bulk)
	}

	for _, k := range []int{25_000, 1_000} {
		bs, bd := src[:k], dst[:k]
		g.DeleteBatch(bs, bd)
		g.InsertBatch(bs, bd)
		limit := max(scratchTrimRatio*k, scratchKeepMin)
		held := map[string]int{
			"ks": cap(sh.prep.ks), "tmp": cap(sh.prep.tmp), "groups": cap(sh.prep.groups),
			"ranges": cap(sh.prep.ranges), "heavy": cap(sh.prep.heavy),
		}
		for _, h := range sh.prep.hist {
			held["hist"] = max(held["hist"], cap(h))
		}
		for i := range sh.apply {
			held["apply.old"] = max(held["apply.old"], cap(sh.apply[i].old))
			held["apply.out"] = max(held["apply.out"], cap(sh.apply[i].out))
		}
		for name, c := range held {
			if c > limit {
				t.Errorf("after %d-edge batches %s still holds %d entries (limit %d)", k, name, c, limit)
			}
		}
		// Steady state at this size (the edges are present, so the apply
		// phase changes nothing): only the parallel-for plumbing's fixed
		// handful of small objects, nothing that grows with the batch.
		if allocs := testing.AllocsPerRun(5, func() { g.InsertBatch(bs, bd) }); allocs > 100 {
			t.Errorf("steady %d-edge batch allocates %.0f objects", k, allocs)
		}
	}
}

// TestSteadyBatchAllocatesNoScratch is the guard on the pipeline's buffers:
// a warmed 25 000-edge insert and delete at two workers — the edges inserted
// are present and the edges deleted absent, so the structures themselves do
// not grow — allocates only the fork-joins' closures and goroutine
// bookkeeping, a count that does not depend on the batch, and leaves every
// scratch buffer where it was.
func TestSteadyBatchAllocatesNoScratch(t *testing.T) {
	const scale, k = 15, 25_000
	g := New(1<<scale, Config{Workers: 2})
	rm := gen.NewRMatPaper(scale, 3)
	var src, dst, asrc, adst []uint32
	for _, e := range rm.Edges(600_000) {
		src, dst = append(src, e.Src), append(dst, e.Dst)
	}
	g.InsertBatch(src, dst)
	for _, e := range rm.Edges(k) { // a later draw of the stream, less what is present
		if !g.Has(e.Src, e.Dst) {
			asrc, adst = append(asrc, e.Src), append(adst, e.Dst)
		}
	}
	g.DeleteBatch(asrc, adst)
	g.InsertBatch(src[:k], dst[:k])
	g.DeleteBatch(asrc, adst)

	sh := &g.shards[0]
	buffers := func() []any {
		ps := &sh.prep
		return []any{&ps.ks[:1][0], &ps.tmp[:1][0], &ps.groups[:1][0], &ps.ranges[:1][0], &ps.hist[0][0], &sh.apply[0]}
	}
	before := buffers()
	allocs := testing.AllocsPerRun(10, func() {
		g.InsertBatch(src[:k], dst[:k])
		g.DeleteBatch(asrc, adst)
	})
	if allocs > 64 {
		t.Errorf("warmed %d-edge insert+delete allocates %.0f objects; the fork-joins account for about 48", k, allocs)
	}
	if after := buffers(); !slices.Equal(before, after) {
		t.Error("a scratch buffer was reallocated in steady state")
	}
}

// TestPublishReusesDrainedPages checks the lifetime of a retired page: it
// rejoins the free list only once every snapshot published before its
// retirement has been recycled — whatever order they come back in — is then
// the next page opened, and free pages beyond arenaFreeMax are dropped.
func TestPublishReusesDrainedPages(t *testing.T) {
	const n = 1024 // the free list keeps full-size pages: a shard of > 4 of them
	g := New(n, Config{Workers: 1})
	sh := g.Shard(0)
	a := &sh.sh.pub
	rng := rand.New(rand.NewSource(21))
	sh.InsertBatch(randomBatch(rng, 6*pageSize, 0, n, n))
	whole := func() (s, d []uint32) { // names every vertex: supersedes every run
		for v := uint32(0); v < n; v++ {
			s, d = append(s, v), append(d, uint32(rng.Intn(n)))
		}
		return s, d
	}
	publish := func(prev *Snapshot) *Snapshot {
		t.Helper()
		sh.InsertBatch(whole())
		snap, rebuilt := sh.Publish(prev)
		if rebuilt {
			t.Fatal("one batch rebuilt")
		}
		sameSnapshot(t, "published", snap, sh.SnapshotInto(nil))
		return snap
	}

	s0, _ := sh.Publish(nil)
	want0 := sh.SnapshotInto(nil)
	first := &s0.pages[0][0]
	// Whole-shard batches until the first page is full, dead and retired.
	snaps := []*Snapshot{s0}
	for len(a.retired) == 0 {
		snaps = append(snaps, publish(snaps[len(snaps)-1]))
	}
	latest := snaps[len(snaps)-1]
	if &a.retired[0].page[0] != first || a.retired[0].seq != latest.seq {
		t.Fatal("the retired page is not the first one, retired by the latest publish")
	}

	// Every snapshot before the latest may read it: recycle them newest
	// first, and the page stays retired until the very last one is back.
	for i := len(snaps) - 2; i >= 1; i-- {
		sh.Recycle(snaps[i])
	}
	next := publish(latest)
	if len(a.free) != 0 || len(a.retired) == 0 {
		t.Fatalf("with the oldest snapshot out: %d pages free, %d retired", len(a.free), len(a.retired))
	}
	sameSnapshot(t, "oldest snapshot, on the retired page", s0, want0)
	sh.Recycle(s0)
	sh.Recycle(latest)
	if len(a.free) == 0 || &a.free[len(a.free)-1][0] != first && &a.free[0][0] != first {
		t.Fatalf("the drained page did not rejoin the free list (%d free)", len(a.free))
	}

	// The free list feeds the next pages opened and never exceeds its cap.
	for i := 0; i < 40*arenaFreeMax; i++ {
		prev := next
		next = publish(prev)
		sh.Recycle(prev)
		if len(a.free) > arenaFreeMax {
			t.Fatalf("%d pages on the free list, cap %d", len(a.free), arenaFreeMax)
		}
	}
	if st := sh.Published(); st.InUse+st.Free > st.Bound || st.Retired != 0 {
		t.Fatalf("steady state: %d B in use + %d B free over the bound %d, %d B retired", st.InUse, st.Free, st.Bound, st.Retired)
	}
}

// TestSmallShardPublishedFollowsEdges: a shard too small for 64 KiB pages
// fills pages sized to its edges, so what a graph of a few thousand edges in
// four shards holds published — tables, pages in use, free and retired —
// stays within 24 bytes an edge over a stream (16 to 18 measured; 141 with
// full-size pages only, 14 with the two contiguous arenas before them).
func TestSmallShardPublishedFollowsEdges(t *testing.T) {
	const n, shards = 512, 4
	g := New(n, Config{Shards: shards, Workers: 1})
	rng := rand.New(rand.NewSource(9))
	g.InsertBatch(randomBatch(rng, 4000, 0, n, n))
	prev := make([]*Snapshot, shards)
	for b := 0; b < 600; b++ {
		var total uint64
		for i := range prev {
			sh := g.Shard(i)
			src, dst := randomBatch(rng, 8, sh.Base(), sh.Base()+sh.NumVertices(), n)
			if b%2 == 0 {
				sh.InsertBatch(src, dst)
			} else {
				sh.DeleteBatch(src, dst)
			}
			snap, rebuilt := sh.Publish(prev[i])
			if rebuilt != (b == 0) {
				t.Fatalf("batch %d, shard %d: rebuilt=%v", b, i, rebuilt)
			}
			if prev[i] != nil {
				sh.Recycle(prev[i])
			}
			prev[i] = snap
			total += sh.Published().Total()
		}
		if m := g.NumEdges(); total > 24*m {
			t.Fatalf("batch %d: %d B published for %d edges", b, total, m)
		}
	}
	for i, snap := range prev {
		sameSnapshot(t, "small shard", snap, g.Shard(i).SnapshotInto(nil))
	}
}
