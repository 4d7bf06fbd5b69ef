package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// loadDegrees are the degrees the loader tests give their vertices: empty,
// the inline area at and around full, and both overflow thresholds ±1
// under loadCfg (array up to L+A, RIA up to L+M, HITree above).
func loadDegrees(cfg Config) []int {
	cfg.sanitize()
	a, m := inlineCap+cfg.ArrayMax, inlineCap+cfg.M
	return []int{0, 1, inlineCap - 1, inlineCap, inlineCap + 1, a - 1, a, a + 1, m - 1, m, m + 1, 2 * m}
}

func loadCfg(shards int) Config { return Config{M: 96, Workers: 4, Shards: shards} }

// testCSR builds a CSR over vertices [0, n) whose degrees cycle through
// degs, each run a random strictly ascending subset of [0, n), plus the
// same edges as a shuffled src/dst list.
func testCSR(rng *rand.Rand, n int, degs []int) (offs []uint64, adj, src, dst []uint32) {
	offs = make([]uint64, 1, n+1)
	for v := 0; v < n; v++ {
		run := rng.Perm(n)[:degs[v%len(degs)]]
		slices.Sort(run)
		for _, u := range run {
			adj = append(adj, uint32(u))
			src, dst = append(src, uint32(v)), append(dst, uint32(u))
		}
		offs = append(offs, uint64(len(adj)))
	}
	rng.Shuffle(len(src), func(i, j int) {
		src[i], src[j] = src[j], src[i]
		dst[i], dst[j] = dst[j], dst[i]
	})
	return offs, adj, src, dst
}

// sliceCSR cuts vertices [lo, hi) out of a CSR over [0, n).
func sliceCSR(offs []uint64, adj []uint32, lo, hi int) ([]uint64, []uint32) {
	out := make([]uint64, 0, hi-lo+1)
	for _, o := range offs[lo : hi+1] {
		out = append(out, o-offs[lo])
	}
	return out, adj[offs[lo]:offs[hi]]
}

// sameGraph checks that two graphs read identically: per-vertex block
// sequences, edge counts per shard and in total, and the promotion counter.
func sameGraph(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d vertices / %d edges, want %d / %d", what,
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for i := 0; i < want.NumShards(); i++ {
		if g, w := got.Shard(i).NumEdges(), want.Shard(i).NumEdges(); g != w {
			t.Fatalf("%s: shard %d counts %d edges, want %d", what, i, g, w)
		}
	}
	if g, w := got.Stats().RIAToHITree.Load(), want.Stats().RIAToHITree.Load(); g != w {
		t.Fatalf("%s: %d RIA→HITree promotions, want %d", what, g, w)
	}
	blocks := func(g *Graph, v uint32) (out [][]uint32) {
		g.NeighborBlocks(v, func(b []uint32) bool {
			out = append(out, slices.Clone(b))
			return true
		})
		return out
	}
	for v := uint32(0); v < want.NumVertices(); v++ {
		gb, wb := blocks(got, v), blocks(want, v)
		if got.Degree(v) != want.Degree(v) || !slices.EqualFunc(gb, wb, slices.Equal[[]uint32]) {
			t.Fatalf("%s: vertex %d reads %v, want %v", what, v, gb, wb)
		}
	}
}

// TestLoadCSRMatchesInsertBatch loads one CSR into paged graphs — whole, and
// cut into pieces whose ranges straddle shard boundaries — and checks each
// against the bare engine given the same edges by InsertBatch, with vertices
// at every one of its storage thresholds, at every shard count. The load
// builds nothing but pages.
func TestLoadCSRMatchesInsertBatch(t *testing.T) {
	const n = 512
	for _, shards := range []int{1, 2, 4} {
		cfg := loadCfg(shards)
		offs, adj, src, dst := testCSR(rand.New(rand.NewSource(int64(shards))), n, loadDegrees(cfg))
		want := New(n, cfg)
		want.InsertBatch(src, dst)
		if want.Stats().RIAToHITree.Load() == 0 {
			t.Fatal("test graph has no HITree vertex")
		}
		check := func(what string, g, want *Graph) {
			t.Helper()
			if err := (twin{g, want}).check(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if b := g.MemoryBreakdown(); g.Stats().RIAToHITree.Load() != 0 || b.Total() != b.Scratch {
				t.Fatalf("%s: the load built live structures: %+v", what, b)
			}
		}

		whole := NewPaged(n, cfg)
		if err := whole.LoadCSR(0, offs, adj); err != nil {
			t.Fatal(err)
		}
		check("whole CSR", whole, want)

		// Shard boundaries sit at multiples of n/shards; none of these cuts
		// does, so at S > 1 every piece straddles at least one.
		pieces := NewPaged(n, cfg)
		for _, cut := range [][2]int{{300, n}, {0, 100}, {100, 300}} {
			o, a := sliceCSR(offs, adj, cut[0], cut[1])
			if err := pieces.LoadCSR(uint32(cut[0]), o, a); err != nil {
				t.Fatalf("vertices [%d,%d): %v", cut[0], cut[1], err)
			}
		}
		check("CSR in straddling pieces", pieces, want)

		// A range reserved but not materialized gets its storage from the load.
		grown := NewPaged(n/4, cfg)
		grown.ReserveVertices(n)
		if err := grown.LoadCSR(0, offs, adj); err != nil {
			t.Fatal(err)
		}
		wantGrown := New(n/4, cfg)
		wantGrown.EnsureVertices(n)
		wantGrown.InsertBatch(src, dst)
		check("CSR over reserved vertices", grown, wantGrown)
	}
}

// TestLoadCSRRefusals gives the loader every kind of CSR it must refuse,
// each with loadable runs around the bad one, and checks the graph reads
// exactly as before; and a live graph, which it refuses whole.
func TestLoadCSRRefusals(t *testing.T) {
	const n = 64
	if err := New(n, loadCfg(2)).LoadCSR(0, []uint64{0, 1}, []uint32{3}); err == nil || !strings.Contains(err.Error(), "NewPaged") {
		t.Fatalf("load into a live graph: error %v, want one naming NewPaged", err)
	}
	build := func() *Graph {
		g := NewPaged(n, loadCfg(2))
		g.InsertBatch([]uint32{5, 5, 40}, []uint32{1, 9, 2})
		return g
	}
	want := build()
	for _, tc := range []struct {
		name string
		base uint32
		offs []uint64
		adj  []uint32
		msg  string
	}{
		{"no offsets", 0, nil, nil, "cover"},
		{"first offset not zero", 0, []uint64{1, 2}, []uint32{3, 4}, "cover"},
		{"offsets stop short of adj", 0, []uint64{0, 1}, []uint32{3, 4}, "cover"},
		{"offsets not monotone", 0, []uint64{0, 2, 1, 3}, []uint32{3, 4, 5}, "monotone"},
		{"offset past adj", 0, []uint64{0, 9, 3}, []uint32{3, 4, 5}, "monotone"},
		{"range above the vertex bound", n - 1, []uint64{0, 1, 1}, []uint32{3}, "outside vertex space"},
		{"base above the vertex bound", ^uint32(0), []uint64{0, 0, 0}, nil, "outside vertex space"},
		{"duplicate neighbor", 0, []uint64{0, 2, 4}, []uint32{3, 4, 7, 7}, "ascending"},
		{"descending run", 0, []uint64{0, 2, 4}, []uint32{3, 4, 8, 7}, "ascending"},
		{"neighbor at the vertex bound", 0, []uint64{0, 2, 4}, []uint32{3, 4, 7, n}, "outside vertex space"},
		{"vertex already has edges", 4, []uint64{0, 1, 2}, []uint32{3, 4}, "already has"},
		{"vertex in the other shard already has edges", 30, []uint64{0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2}, []uint32{3, 4}, "already has"},
	} {
		g := build()
		err := g.LoadCSR(tc.base, tc.offs, tc.adj)
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Fatalf("%s: error %v, want one naming %q", tc.name, err, tc.msg)
		}
		sameGraph(t, tc.name, g, want)
	}
	// An empty run lands on no vertex, so it is not a refusal.
	g := build()
	if err := g.LoadCSR(5, []uint64{0, 0, 1}, []uint32{7}); err != nil {
		t.Fatal(err)
	}
	want.InsertBatch([]uint32{6}, []uint32{7})
	sameGraph(t, "empty run over a non-empty vertex", g, want)
}

// TestPublishAfterLoadAndRelease checks the two ways this file changes a
// shard other than by a batch: a bulk load copies the CSR's runs to the
// shards' pages — across a shard boundary, on top of a published snapshot
// that stays as it was — and refuses a vertex that has edges; releasing the
// scratch of the batch before a publish takes nothing the publish needs; and
// Compact packs the pages without touching what a snapshot reads.
func TestPublishAfterLoadAndRelease(t *testing.T) {
	const n = 512
	cfg := loadCfg(2)
	tw := newTwin(n, cfg)
	tw.insert([]uint32{3, n - 1}, []uint32{9, 4})
	before := []*Snapshot{tw.g.Shard(0).Publish(), tw.g.Shard(1).Publish()}
	want := []*Snapshot{tw.ref.Shard(0).SnapshotInto(nil), tw.ref.Shard(1).SnapshotInto(nil)}

	// Vertices 100..399 straddle the boundary at 256 and hold no edge yet.
	offs, adj, _, _ := testCSR(rand.New(rand.NewSource(3)), n, loadDegrees(cfg))
	offs, adj = sliceCSR(offs, adj, 100, 400)
	if err := tw.g.LoadCSR(3, offs, adj); err == nil || !strings.Contains(err.Error(), "already has") {
		t.Fatalf("load over vertex 3, which has an edge: %v", err)
	}
	if err := tw.check(); err != nil {
		t.Fatalf("after the refused load: %v", err)
	}
	if err := tw.g.LoadCSR(100, offs, adj); err != nil {
		t.Fatal(err)
	}
	var src, dst []uint32
	for i := range offs[:len(offs)-1] {
		for _, u := range adj[offs[i]:offs[i+1]] {
			src, dst = append(src, 100+uint32(i)), append(dst, u)
		}
	}
	tw.ref.InsertBatch(src, dst)
	if err := tw.check(); err != nil {
		t.Fatalf("after LoadCSR: %v", err)
	}
	for i, snap := range before {
		tw.sameAsShard(t, "after LoadCSR", i, tw.g.Shard(i).Publish())
		sameSnapshot(t, "published before LoadCSR", snap, want[i])
	}

	// One batch larger than scratchKeepMin, so releasing drops its buffers.
	src, dst = randomBatch(rand.New(rand.NewSource(4)), 2*scratchKeepMin, 0, n, n)
	tw.delete(src, dst)
	tw.g.ReleaseScratch()
	if sh := &tw.g.shards[0]; sh.prep.ks != nil || sh.prep.jobs != nil {
		t.Fatal("ReleaseScratch kept the batch-sized buffers")
	}
	for i := range before {
		tw.sameAsShard(t, "after ReleaseScratch", i, tw.g.Shard(i).Publish())
	}

	// Every other vertex gets a new run, unpublished, which leaves holes all
	// over the pages. Compact packs them under snapshots that still read the
	// pages it retires: every page but the kept tail's ends full.
	var half, next []uint32
	for v := uint32(0); v < n; v += 2 {
		half, next = append(half, v), append(next, v+1)
	}
	tw.insert(half, next)
	tw.g.Compact()
	if err := tw.check(); err != nil {
		t.Fatalf("after Compact: %v", err)
	}
	for i, snap := range before {
		sameSnapshot(t, "published before Compact", snap, want[i])
		a := &tw.g.shards[i].pub
		for id, pg := range a.pages {
			if pg != nil && !a.filling(id) && int(a.live[id]) != len(pg) {
				t.Fatalf("shard %d after Compact: page %d holds %d live of %d", i, id, a.live[id], len(pg))
			}
		}
		if len(a.free) != 0 {
			t.Fatalf("shard %d after Compact: %d free pages", i, len(a.free))
		}
	}
}

// TestNewFromEdgesReleasesScratch: a bulk load sizes the pipeline's buffers
// at ~20 bytes per loaded edge, and NewFromEdges must not hand that back to
// its caller as part of the graph. Right after a 0.6 M-edge load what is
// retained is within what ReleaseScratch may keep — no buffer beyond
// scratchKeepMin entries, 56 bytes across a shard's five kinds — and the
// next 25 000-edge batch, which has to size its own buffers, applies exactly.
func TestNewFromEdgesReleasesScratch(t *testing.T) {
	src, dst, batches := rulerGraph(15, 1, 1, 25_000)
	g := NewFromEdges(1<<15, src, dst, Config{Workers: 2})
	b := g.MemoryBreakdown()
	t.Logf("%d edges loaded: scratch %d B, %.2f B/edge", g.NumEdges(), b.Scratch, float64(b.Scratch)/float64(g.NumEdges()))
	if allow := uint64(56 * scratchKeepMin); b.Scratch > allow {
		t.Fatalf("NewFromEdges retains %d B of scratch, allowance %d B", b.Scratch, allow)
	}
	loaded := g.NumEdges()
	bs, bd := batches[0][0], batches[0][1]
	g.InsertBatch(bs, bd)
	if got := g.NumEdges(); got != loaded+uint64(len(bs)) {
		t.Fatalf("batch of %d new edges took the graph from %d to %d edges", len(bs), loaded, got)
	}
	for i := range bs {
		if !g.Has(bs[i], bd[i]) {
			t.Fatalf("edge (%d,%d) of the batch is missing", bs[i], bd[i])
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
