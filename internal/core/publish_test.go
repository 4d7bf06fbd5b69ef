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

// TestPublishMatchesRebuild drives one shard through alternating insert
// and delete batches, publishing after each, and checks every published
// snapshot against a from-scratch rebuild of the same state — and that the
// snapshots published before it still read exactly what they read when
// they were published, across appends into the arena they share and
// rebuilds into fresh ones. Both halves of the append-or-rebuild rule must
// occur.
func TestPublishMatchesRebuild(t *testing.T) {
	const n = 512
	g := New(n, Config{Shards: 2, Workers: 2})
	sh := g.Shard(1)
	lo, hi := sh.Base(), sh.Base()+sh.NumVertices()
	rng := rand.New(rand.NewSource(11))

	var prev *Snapshot
	var olds []frozen
	appends, rebuilds := 0, 0
	for b := 0; b < 400; b++ {
		src, dst := randomBatch(rng, 1+rng.Intn(24), lo, hi, n)
		if b%3 == 2 {
			sh.DeleteBatch(src, dst)
		} else {
			sh.InsertBatch(src, dst)
		}
		snap, rebuilt := sh.Publish(prev)
		if rebuilt {
			rebuilds++
		} else {
			appends++
		}
		want := sh.SnapshotInto(nil)
		sameSnapshot(t, "published", snap, want)
		if snap.NumEdges() != sh.NumEdges() {
			t.Fatalf("batch %d: snapshot has %d edges, shard %d", b, snap.NumEdges(), sh.NumEdges())
		}
		for _, o := range olds {
			sameSnapshot(t, "older epoch", o.snap, o.want)
		}
		// Keep a window of old epochs alive; hand the one leaving it back.
		olds = append(olds, frozen{snap, want})
		if len(olds) > 6 {
			sh.Recycle(olds[0].snap)
			olds = olds[1:]
		}
		prev = snap
	}
	if appends == 0 || rebuilds < 3 {
		t.Fatalf("%d appends and %d rebuilds: both publish paths must run", appends, rebuilds)
	}
	if appends < 4*rebuilds {
		t.Fatalf("%d appends to %d rebuilds: small batches should mostly append", appends, rebuilds)
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

// TestPublishRebuildRules pins when a publish must rebuild: no previous
// snapshot, a batch whose runs exceed the arena's tail, more than one
// batch since the previous publish, and a boundary move. Everything else
// appends.
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
	lo, hi := sh.Base(), sh.Base()+sh.NumVertices()
	rng := rand.New(rand.NewSource(3))

	s0, rebuilt := sh.Publish(nil)
	if !rebuilt {
		t.Fatal("first publish did not rebuild")
	}
	slack := cap(s0.adj) - len(s0.adj)
	if want := int(sh.NumEdges()) / arenaSlackDiv; slack != want {
		t.Fatalf("fresh arena has %d entries of tail for %d edges, want %d", slack, sh.NumEdges(), want)
	}

	// Nothing changed: a table copy, no rebuild, nothing appended.
	s1, rebuilt := sh.Publish(s0)
	if rebuilt || len(s1.adj) != len(s0.adj) {
		t.Fatalf("empty publish: rebuilt=%v, arena grew %d", rebuilt, len(s1.adj)-len(s0.adj))
	}

	// One small batch appends exactly its vertices' new runs.
	bs, bd := randomBatch(rng, 8, lo, hi, n)
	sh.InsertBatch(bs, bd)
	var run int
	seen := map[uint32]bool{}
	for _, v := range bs {
		if !seen[v] {
			seen[v] = true
			run += int(g.Degree(v))
		}
	}
	s2, rebuilt := sh.Publish(s1)
	if rebuilt || len(s2.adj)-len(s1.adj) != run {
		t.Fatalf("small batch: rebuilt=%v, appended %d entries, want %d", rebuilt, len(s2.adj)-len(s1.adj), run)
	}
	if &s2.adj[0] != &s0.adj[0] {
		t.Fatal("append publish left the shared arena")
	}

	// A batch touching more than the tail holds rebuilds into a fresh arena
	// and leaves the old one exactly as its snapshots read it.
	want2 := sh.SnapshotInto(nil)
	var ws, wd []uint32
	for v := lo; v < hi; v++ {
		ws, wd = append(ws, v), append(wd, (v+1)%n)
	}
	sh.InsertBatch(ws, wd)
	s3, rebuilt := sh.Publish(s2)
	if !rebuilt {
		t.Fatalf("batch touching all %d vertices (%d edges, tail %d) did not rebuild", hi-lo, sh.NumEdges(), cap(s2.adj)-len(s2.adj))
	}
	if &s3.adj[0] == &s0.adj[0] {
		t.Fatal("rebuild wrote into the arena older snapshots read")
	}
	sameSnapshot(t, "after tail overflow", s3, sh.SnapshotInto(nil))
	sameSnapshot(t, "epoch before the rebuild", s2, want2)

	// Two batches between publishes: the touched set is unknown.
	for i := 0; i < 2; i++ {
		bs, bd = randomBatch(rng, 4, lo, hi, n)
		sh.InsertBatch(bs, bd)
	}
	s4, rebuilt := sh.Publish(s3)
	if !rebuilt {
		t.Fatal("two batches since the last publish did not rebuild")
	}
	sameSnapshot(t, "after two batches", s4, sh.SnapshotInto(nil))

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

// TestSnapshotCSR checks CSR on both layouts: a fresh rebuild hands out its
// own adjacency, a snapshot with appended runs a compacted copy, and both
// describe the same graph.
func TestSnapshotCSR(t *testing.T) {
	const n = 256
	g := New(n, Config{Workers: 1})
	sh := g.Shard(0)
	rng := rand.New(rand.NewSource(9))
	src, dst := randomBatch(rng, 2000, 0, n, n)
	sh.InsertBatch(src, dst)
	s0, _ := sh.Publish(nil)
	offs, adj := s0.CSR()
	if len(adj) > 0 && &adj[0] != &s0.adj[0] {
		t.Fatal("CSR of a fresh rebuild copied the adjacency")
	}
	checkCSR(t, s0, offs, adj)

	bs, bd := randomBatch(rng, 10, 0, n, n)
	sh.DeleteBatch(src[:10], dst[:10])
	s1, _ := sh.Publish(s0)
	sh.InsertBatch(bs, bd)
	s2, rebuilt := sh.Publish(s1)
	if rebuilt {
		t.Fatal("ten-edge batch rebuilt")
	}
	offs, adj = s2.CSR()
	if &adj[0] == &s2.adj[0] {
		t.Fatal("CSR of a snapshot with appended runs aliases the arena")
	}
	checkCSR(t, s2, offs, adj)
	wantOffs, wantAdj := sh.SnapshotInto(nil).CSR()
	if !slices.Equal(offs, wantOffs) || !slices.Equal(adj, wantAdj) {
		t.Fatal("CSR of the appended snapshot differs from a rebuild's")
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

// TestPublishReusesDrainedArena checks the double buffering of arenas: a
// rebuild takes over the previous arena only once every snapshot published
// over it has been recycled, and allocates a fresh one while even one has
// not.
func TestPublishReusesDrainedArena(t *testing.T) {
	const n = 256
	g := New(n, Config{Workers: 1})
	sh := g.Shard(0)
	rng := rand.New(rand.NewSource(21))
	src, dst := randomBatch(rng, 3000, 0, n, n)
	sh.InsertBatch(src, dst)
	whole := func() (s, d []uint32) { // names every vertex: outgrows any tail
		for v := uint32(0); v < n; v++ {
			s, d = append(s, v), append(d, uint32(rng.Intn(n)))
		}
		return s, d
	}

	a0, _ := sh.Publish(nil)
	sh.InsertBatch(randomBatch(rng, 4, 0, n, n))
	a1, rebuilt := sh.Publish(a0) // shares a0's arena
	if rebuilt {
		t.Fatal("four-edge batch rebuilt")
	}
	arenaA := &a0.adj[0]
	wantA1 := sh.SnapshotInto(nil)

	sh.InsertBatch(whole())
	b0, rebuilt := sh.Publish(a1)
	if !rebuilt || &b0.adj[0] == arenaA {
		t.Fatalf("rebuilt=%v into the arena two live snapshots read", rebuilt)
	}
	arenaB := &b0.adj[0]

	// a0 drains, a1 does not: arena A is still read, a rebuild must not take it.
	sh.Recycle(a0)
	sh.InsertBatch(whole())
	c0, rebuilt := sh.Publish(b0)
	if !rebuilt || &c0.adj[0] == arenaA || &c0.adj[0] == arenaB {
		t.Fatalf("rebuilt=%v; reused an arena a live snapshot reads", rebuilt)
	}
	sameSnapshot(t, "snapshot still pinned on the first arena", a1, wantA1)

	// Now a1 drains too: arena A is free and the next rebuild compacts into it.
	sh.Recycle(a1)
	sh.Recycle(b0)
	sh.InsertBatch(whole())
	d0, rebuilt := sh.Publish(c0)
	if !rebuilt || (&d0.adj[0] != arenaA && &d0.adj[0] != arenaB) {
		t.Fatalf("rebuilt=%v; a drained arena was not reused", rebuilt)
	}
	sameSnapshot(t, "rebuild into a reused arena", d0, sh.SnapshotInto(nil))
}
