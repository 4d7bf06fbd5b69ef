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

// shardTwin is one shard of a paged graph and the same shard of a bare Graph
// fed the same batches: the oracle a published snapshot is
// checked against is a flatten of the paper's live structures, which share no
// code with the merge that wrote the snapshot's runs.
type shardTwin struct {
	Shard
	ref Shard
}

func newShardTwin(n uint32, cfg Config, shard int) shardTwin {
	return shardTwin{NewPaged(n, cfg).Shard(shard), New(n, cfg).Shard(shard)}
}

func (st shardTwin) insert(src, dst []uint32) {
	st.InsertBatch(src, dst)
	st.ref.InsertBatch(src, dst)
}

func (st shardTwin) delete(src, dst []uint32) {
	st.DeleteBatch(src, dst)
	st.ref.DeleteBatch(src, dst)
}

func (st shardTwin) ensure(n uint32) {
	st.EnsureVertices(n)
	st.ref.EnsureVertices(n)
}

// want flattens the oracle shard.
func (st shardTwin) want() *Snapshot { return st.ref.SnapshotInto(nil) }

// TestPublishMatchesRebuild drives one shard through 2 400 insert and
// delete batches, publishing after each, and checks every published
// snapshot against a from-scratch flatten of a bare Graph's shard that took
// the same batches — and that the snapshots still held, recycled in no
// particular order and one of them kept across hundreds of publishes, read
// exactly what they read when they were published, while the arena under
// them takes the batches' merged runs on shared pages, cleans, retires pages
// and reuses them.
//
// Mutation check (by hand, PR 22): freeing a retired page one snapshot early
// (drain comparing against out[0]+1) fails this test, and
// TestPublishRecyclePrograms, at the first reused page an older snapshot
// still reads.
func TestPublishMatchesRebuild(t *testing.T) {
	const n, sources, batches = 1 << 12, 256, 2400
	sh := newShardTwin(n, Config{Shards: 2, Workers: 2}, 1)
	lo := sh.Base()
	rng := rand.New(rand.NewSource(11))
	sh.insert(randomBatch(rng, 100_000, lo, lo+sources, n))

	var prev, prevWant *Snapshot
	var olds []frozen
	var pinned frozen
	reused := 0
	for b := 0; b < batches; b++ {
		src, dst := randomBatch(rng, 1+rng.Intn(24), lo, lo+sources, n)
		free := len(sh.sh.pub.free)
		if b%3 == 2 {
			sh.delete(src, dst)
		} else {
			sh.insert(src, dst)
		}
		snap := sh.Publish()
		reusedPage := len(sh.sh.pub.free) < free
		if reusedPage {
			reused++
		}
		want := sh.want()
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
	if err := sh.g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := sh.Published()
	if st.Cleaned == 0 || reused < 50 {
		t.Fatalf("%d entries cleaned, %d batches reused a page: want some, many", st.Cleaned, reused)
	}
}

// TestPublishMatchesRebuildAfterShapes publishes after the insert and after
// the delete of every partition-stressing batch shape, at 1, 2 and 4
// workers, on a preloaded paged shard — so every shape goes through the
// merge, its ranges and heavy groups placed and written by as many workers —
// and checks each snapshot against a flatten of the oracle shard.
func TestPublishMatchesRebuildAfterShapes(t *testing.T) {
	for _, shape := range batchShapes() {
		rng := rand.New(rand.NewSource(23))
		base, bdst := randomBatch(rng, 8*int(shape.nv), 0, shape.nv, shape.nv)
		for _, p := range []int{1, 2, 4} {
			sh := newShardTwin(shape.nv, Config{Workers: p}, 0)
			sh.insert(base, bdst)
			sameSnapshot(t, fmt.Sprintf("%s p=%d preload", shape.name, p), sh.Publish(), sh.want())
			for step, del := range []bool{false, true} {
				if del {
					sh.delete(shape.src[:len(shape.src)/3], shape.dst[:len(shape.src)/3])
				} else {
					sh.insert(shape.src, shape.dst)
				}
				sameSnapshot(t, fmt.Sprintf("%s p=%d step %d", shape.name, p, step), sh.Publish(), sh.want())
			}
			if err := sh.g.CheckInvariants(); err != nil {
				t.Fatalf("%s p=%d: %v", shape.name, p, err)
			}
		}
	}
}

// TestPublishGrowth grows the vertex space between publishes: the table
// extends, the new vertices read as degree 0 until a batch names them, and
// a snapshot published before the growth keeps its own vertex count.
func TestPublishGrowth(t *testing.T) {
	sh := newShardTwin(8, Config{Workers: 1}, 0)
	sh.insert([]uint32{1, 2}, []uint32{2, 1})
	s0 := sh.Publish()

	sh.ensure(100)
	s1 := sh.Publish()
	if s0.NumVertices() != 8 || s1.NumVertices() != 100 {
		t.Fatalf("vertex counts %d then %d, want 8 then 100", s0.NumVertices(), s1.NumVertices())
	}
	for v := uint32(8); v < 100; v++ {
		if s1.Degree(v) != 0 || len(s1.Neighbors(v)) != 0 {
			t.Fatalf("grown vertex %d has degree %d", v, s1.Degree(v))
		}
	}

	// A recycled table carries stale entries, beyond its length too; growth
	// within its capacity must not read them.
	sh.ensure(110) // reallocates with headroom
	junk := sh.Publish()
	sh.insert([]uint32{1}, []uint32{3}) // the latest snapshot shares the table: this copies it
	s2 := sh.Publish()
	if cap(junk.tab) < 120 {
		t.Fatalf("grown table has capacity %d, want headroom past 120", cap(junk.tab))
	}
	for v := range junk.tab[:cap(junk.tab)] {
		junk.tab[:cap(junk.tab)][v] = vref{off: 1, deg: 1}
	}
	sh.Recycle(junk)
	sh.ensure(120)
	sh.insert([]uint32{99, 110}, []uint32{3, 99})
	s3 := sh.Publish()
	sameSnapshot(t, "after growth + batch", s3, sh.want())
	if got := s3.Neighbors(110); !slices.Equal(got, []uint32{99}) {
		t.Fatalf("Neighbors(110) = %v", got)
	}
	if s1.NumVertices() != 100 || s1.Degree(99) != 0 || s2.NumVertices() != 110 {
		t.Fatal("a snapshot published before the growth changed")
	}
	if err := sh.g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPublishRebuildRules pins what a batch writes and what a publish does:
// a paged shard holds no vertex block from the start, and nothing refills the
// arena ever — a batch writes exactly the runs of the vertices it changes, at
// apply time, on pages older snapshots read the front of or not at all,
// however much of the shard it names and however many batches precede the
// next publish; a publish with nothing changed copies the table; a boundary
// move copies the moved runs.
func TestPublishRebuildRules(t *testing.T) {
	const n = 1 << 10
	cfg := Config{Shards: 2, Workers: 2}
	tw := newTwin(n, cfg)
	es := gen.Symmetrize(gen.NewRMatPaper(10, 5).Edges(6000))
	src, dst := make([]uint32, len(es)), make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	tw.insert(src, dst)
	sh := tw.g.Shard(0)
	a := &sh.sh.pub
	lo, hi := sh.Base(), sh.Base()+sh.NumVertices()
	rng := rand.New(rand.NewSource(3))

	s0 := sh.Publish()
	if sh.sh.verts != nil || !sh.sh.paged || sh.NumVertices() != hi-lo {
		t.Fatalf("paged shard holds %d vertex blocks, paged=%v, %d slots", len(sh.sh.verts), sh.sh.paged, sh.NumVertices())
	}
	tw.sameAsShard(t, "first publish", 0, s0)
	// A shard this small fills pages of twice its edges.
	var live uint64
	for _, n := range a.live {
		live += uint64(n)
	}
	if want := uint64(len(s0.pages)) * uint64(pageLen(sh.NumEdges())); a.inUse != want || live != sh.NumEdges() || a.m != live {
		t.Fatalf("first publish of %d edges: %d entries of pages (want %d), %d counted live", sh.NumEdges(), a.inUse, want, live)
	}

	// Nothing changed: a table copy, nothing placed.
	placed := a.placed
	s1 := sh.Publish()
	if a.placed != placed || &s1.tab[0] == &s0.tab[0] {
		t.Fatalf("empty publish: placed %d entries, shares the table=%v", a.placed-placed, &s1.tab[0] == &s0.tab[0])
	}

	// One small batch gives exactly the vertices it changes new runs, when it
	// is applied, on pages the older snapshots read the front of or not at all.
	bs, bd := randomBatch(rng, 8, lo, hi, n)
	changes := map[uint32]bool{}
	for i, v := range bs {
		if !tw.ref.Has(v, bd[i]) {
			changes[v] = true
		}
	}
	bs, bd = append(bs, src[0]), append(bd, dst[0]) // and names one it does not change
	tw.insert(bs, bd)
	for lv, r := range sh.sh.tab {
		if moved := r != s1.tab[lv]; moved != changes[lo+uint32(lv)] {
			t.Fatalf("vertex %d: run moved=%v, changed by the batch=%v", lo+uint32(lv), moved, !moved)
		}
	}
	s2 := sh.Publish()
	tw.sameAsShard(t, "after a small batch", 0, s2)
	for id, pg := range s0.pages {
		if &s2.pages[id][0] != &pg[0] || len(s2.pages[id]) < len(pg) {
			t.Fatalf("batch left shared page %d", id)
		}
	}

	// A batch naming every vertex is no different, and leaves what the older
	// snapshots read exactly as it was.
	want2 := tw.ref.Shard(0).SnapshotInto(nil)
	var ws, wd []uint32
	for v := lo; v < hi; v++ {
		ws, wd = append(ws, v), append(wd, (v+1)%n)
	}
	tw.insert(ws, wd)
	s3 := sh.Publish()
	tw.sameAsShard(t, "after a whole-shard batch", 0, s3)
	sameSnapshot(t, "epoch before it", s2, want2)

	// Two batches between publishes: the second merges into what the first
	// wrote, which no snapshot ever read.
	want3 := tw.ref.Shard(0).SnapshotInto(nil)
	bs, bd = randomBatch(rng, 4, lo, hi, n)
	tw.insert(bs, bd)
	tw.insert(bs, []uint32{5, 6, 7, 8})
	tw.delete(bs[:2], bd[:2])
	s4 := sh.Publish()
	tw.sameAsShard(t, "after three batches", 0, s4)
	sameSnapshot(t, "epoch before them", s3, want3)
	for _, s := range []*Snapshot{s1, s3, s0, s2} {
		sh.Recycle(s)
	}
	if len(a.retired) != 0 {
		t.Fatalf("older snapshots recycled: %d pages still retired", len(a.retired))
	}

	// A boundary move takes the moved vertices' runs to the other shard's
	// arena.
	other := tw.g.Shard(1)
	want4 := tw.ref.Shard(0).SnapshotInto(nil)
	if err := tw.move(0, hi-100); err != nil {
		t.Fatal(err)
	}
	if err := tw.check(); err != nil {
		t.Fatalf("after the move: %v", err)
	}
	tw.sameAsShard(t, "donor after move", 0, sh.Publish())
	tw.sameAsShard(t, "receiver after move", 1, other.Publish())
	sameSnapshot(t, "epoch before the move", s4, want4)
}

// TestPublishRunShapes covers the runs that do not fit the common case: one
// longer than a page (a page of exactly its size, retired whole when the
// vertex is next changed), one that shrinks to nothing, and a boundary move
// between two batches.
func TestPublishRunShapes(t *testing.T) {
	const n, big = 1 << 16, pageSize + 1000
	tw := newTwin(n, Config{Shards: 2, Workers: 2})
	sh, other := tw.g.Shard(0), tw.g.Shard(1)
	a := &sh.sh.pub
	hub := make([]uint32, big)
	dst := make([]uint32, big)
	for i := range dst {
		hub[i], dst[i] = 7, uint32(2*i)
	}
	tw.insert([]uint32{3, 3, 9}, []uint32{1, 2, 5})
	sh.Publish()
	other.Publish()

	tw.insert(hub, dst)
	s1 := sh.Publish()
	want1 := tw.ref.Shard(0).SnapshotInto(nil)
	if len(s1.Neighbors(7)) != big {
		t.Fatalf("hub publish: %d neighbors, want %d", len(s1.Neighbors(7)), big)
	}
	if pg := a.pages[s1.tab[7].off>>pageBits]; len(pg) != big || a.inUse != pageMin+big {
		t.Fatalf("a %d-entry run sits in a page of %d; %d entries of pages in use", big, len(pg), a.inUse)
	}
	sameSnapshot(t, "with a run longer than a page", s1, want1)

	// Vertex 3's run shrinks to nothing; the hub loses one neighbor, so its
	// old page retires whole and a new exact one opens.
	tw.delete([]uint32{3, 3, 7}, []uint32{1, 2, 0})
	s2 := sh.Publish()
	if s2.Degree(3) != 0 || len(s2.Neighbors(3)) != 0 || s2.Degree(7) != big-1 {
		t.Fatalf("after deletes: degree(3)=%d, degree(7)=%d", s2.Degree(3), s2.Degree(7))
	}
	if len(a.retired) != 1 || len(a.retired[0].page) != big || a.inUse != pageMin+big-1 {
		t.Fatalf("%d pages retired, %d entries of pages in use", len(a.retired), a.inUse)
	}
	tw.sameAsShard(t, "after a run shrank to 0", 0, s2)
	sameSnapshot(t, "epoch holding the retired hub page", s1, want1)

	// A boundary move mid-stream: the hub's run moves to the other arena, in
	// a page of its own there too, and batches go on on both sides.
	if err := tw.move(0, 7); err != nil {
		t.Fatal(err)
	}
	s3, o1 := sh.Publish(), other.Publish()
	if s3.NumVertices() != 7 || o1.Degree(0) != big-1 || o1.Degree(2) != 1 {
		t.Fatalf("after the move: donor has %d vertices, the hub degree %d, vertex 9 degree %d", s3.NumVertices(), o1.Degree(0), o1.Degree(2))
	}
	tw.insert([]uint32{9, 3}, []uint32{6, 4})
	s4, o2 := sh.Publish(), other.Publish()
	if !slices.Equal(o2.Neighbors(2), []uint32{5, 6}) {
		t.Fatalf("batch after the move: vertex 9 reads %v", o2.Neighbors(2))
	}
	tw.sameAsShard(t, "donor after the move", 0, s4)
	tw.sameAsShard(t, "receiver after the move", 1, o2)
	sameSnapshot(t, "epoch from before the move", s1, want1)
	if err := tw.check(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCSR checks CSR on both layouts: a plain CSR hands out its own
// adjacency, a published snapshot a compacted copy, and both describe the
// same graph.
func TestSnapshotCSR(t *testing.T) {
	const n = 256
	sh := newShardTwin(n, Config{Workers: 1}, 0)
	rng := rand.New(rand.NewSource(9))
	src, dst := randomBatch(rng, 2000, 0, n, n)
	sh.insert(src, dst)
	flat := sh.SnapshotInto(nil)
	offs, adj := flat.CSR()
	if len(adj) > 0 && &adj[0] != &flat.adj[0] {
		t.Fatal("CSR of a plain CSR copied the adjacency")
	}
	checkCSR(t, flat, offs, adj)

	sh.Publish()
	bs, bd := randomBatch(rng, 10, 0, n, n)
	sh.delete(src[:10], dst[:10])
	sh.Publish()
	sh.insert(bs, bd)
	s2 := sh.Publish()
	offs, adj = s2.CSR()
	if &adj[0] == &s2.pages[0][0] {
		t.Fatal("CSR of a published snapshot aliases a page")
	}
	checkCSR(t, s2, offs, adj)
	wantOffs, wantAdj := sh.want().CSR()
	if !slices.Equal(offs, wantOffs) || !slices.Equal(adj, wantAdj) {
		t.Fatal("CSR of the published snapshot differs from a flatten of the oracle's")
	}
	// A plain CSR of the paged shard is a copy of its runs, in the same order.
	offs, adj = sh.SnapshotInto(flat).CSR()
	if !slices.Equal(offs, wantOffs) || !slices.Equal(adj, wantAdj) {
		t.Fatal("plain CSR of the paged shard differs from the oracle's")
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
			"ks": cap(sh.prep.ks), "tmp": cap(sh.prep.tmp), "jobs": cap(sh.prep.jobs),
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
		return []any{&ps.ks[:1][0], &ps.tmp[:1][0], &ps.ranges[:1][0], &ps.hist[0][0], &sh.apply[0]}
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
	sh := newShardTwin(n, Config{Workers: 1}, 0)
	a := &sh.sh.pub
	rng := rand.New(rand.NewSource(21))
	sh.insert(randomBatch(rng, 6*pageSize, 0, n, n))
	// toggle changes every vertex's run, so supersedes every run: it inserts
	// the edge to a vertex's successor and deletes it the next time.
	var every, succ []uint32
	for v := uint32(0); v < n; v++ {
		every, succ = append(every, v), append(succ, (v+1)%n)
	}
	sh.delete(every, succ)
	present := false
	publish := func() *Snapshot {
		t.Helper()
		if present = !present; present {
			sh.insert(every, succ)
		} else {
			sh.delete(every, succ)
		}
		snap := sh.Publish()
		sameSnapshot(t, "published", snap, sh.want())
		return snap
	}

	s0 := sh.Publish()
	want0 := sh.want()
	first := &s0.pages[0][0]
	// Whole-shard batches until the first page is full, dead and retired.
	snaps := []*Snapshot{s0}
	for len(a.retired) == 0 {
		snaps = append(snaps, publish())
	}
	latest := snaps[len(snaps)-1]
	if &a.retired[0].page[0] != first || a.retired[0].seq != latest.seq {
		t.Fatal("the retired page is not the first one, retired by the batch the latest publish sealed")
	}

	// Every snapshot before the latest may read it: recycle them newest
	// first, and the page stays retired until the very last one is back.
	for i := len(snaps) - 2; i >= 1; i-- {
		sh.Recycle(snaps[i])
	}
	next := publish()
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
		next = publish()
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
	cfg := Config{Shards: shards, Workers: 1}
	tw := newTwin(n, cfg)
	rng := rand.New(rand.NewSource(9))
	tw.insert(randomBatch(rng, 4000, 0, n, n))
	prev := make([]*Snapshot, shards)
	for b := 0; b < 600; b++ {
		var total uint64
		for i := range prev {
			sh := tw.g.Shard(i)
			src, dst := randomBatch(rng, 8, sh.Base(), sh.Base()+sh.NumVertices(), n)
			if b%2 == 0 {
				tw.insert(src, dst)
			} else {
				tw.delete(src, dst)
			}
			snap := sh.Publish()
			if prev[i] != nil {
				sh.Recycle(prev[i])
			}
			prev[i] = snap
			total += sh.Published().Total()
		}
		if m := tw.g.NumEdges(); total > 24*m {
			t.Fatalf("batch %d: %d B published for %d edges", b, total, m)
		}
	}
	for i, snap := range prev {
		tw.sameAsShard(t, "small shard", i, snap)
	}
	if err := tw.check(); err != nil {
		t.Fatal(err)
	}
}
