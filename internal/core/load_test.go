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

// loadCfg is the oracle's configuration in the loader tests, and its workers
// the paged graph's.
var loadCfg = Config{M: 96, Workers: 4}

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

// csrEdges is the CSR (base, offs, adj) as src/dst columns.
func csrEdges(base uint32, offs []uint64, adj []uint32) (src, dst []uint32) {
	for i := range offs[:len(offs)-1] {
		for _, u := range adj[offs[i]:offs[i+1]] {
			src, dst = append(src, base+uint32(i)), append(dst, u)
		}
	}
	return src, dst
}

// testDelta draws a delta of count edges with sources in [lo, hi) of an
// n-vertex space, against the CSR (base, offs, adj): about half of them name
// an edge the CSR holds, and either op lands on present and absent edges
// alike. It also returns the edges it keeps present and those it deletes as
// src/dst columns, for an oracle to apply as batches.
func testDelta(rng *rand.Rand, n, lo, hi int, base uint32, offs []uint64, adj []uint32, count int) (d Delta, ins, del [2][]uint32) {
	op := map[uint64]bool{}
	for len(op) < count {
		v, u := uint32(lo+rng.Intn(hi-lo)), uint32(rng.Intn(n))
		if i := int(v) - int(base); i >= 0 && i < len(offs)-1 && offs[i] < offs[i+1] && rng.Intn(2) == 0 {
			u = adj[offs[i]+uint64(rng.Intn(int(offs[i+1]-offs[i])))]
		}
		op[uint64(v)<<32|uint64(u)] = rng.Intn(2) == 0
	}
	for k := range op {
		d.Keys = append(d.Keys, k)
	}
	slices.Sort(d.Keys)
	for _, k := range d.Keys {
		d.Del = append(d.Del, op[k])
		col := &ins
		if op[k] {
			col = &del
		}
		col[0], col[1] = append(col[0], uint32(k>>32)), append(col[1], uint32(k))
	}
	return d, ins, del
}

// TestLoadCSRMatchesInsertBatch loads one CSR into paged graphs — whole, and
// cut into pieces whose ranges straddle shard boundaries — and checks each
// against the bare engine given the same edges by InsertBatch, with vertices
// at every one of its storage thresholds, at every shard count.
func TestLoadCSRMatchesInsertBatch(t *testing.T) {
	const n = 512
	for _, shards := range []int{1, 2, 4} {
		offs, adj, src, dst := testCSR(rand.New(rand.NewSource(int64(shards))), n, loadDegrees(loadCfg))
		want := New(n, loadCfg)
		want.InsertBatch(src, dst)
		if want.Stats().RIAToHITree.Load() == 0 {
			t.Fatal("test graph has no HITree vertex")
		}
		check := func(what string, g *Paged, want *Graph) {
			t.Helper()
			if err := twinOf(g, want).check(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}

		whole := NewPaged(n, shards, loadCfg.Workers)
		if err := whole.LoadCSR(0, offs, adj); err != nil {
			t.Fatal(err)
		}
		check("whole CSR", whole, want)

		// Shard boundaries sit at multiples of n/shards; none of these cuts
		// does, so at S > 1 every piece straddles at least one.
		pieces := NewPaged(n, shards, loadCfg.Workers)
		for _, cut := range [][2]int{{300, n}, {0, 100}, {100, 300}} {
			o, a := sliceCSR(offs, adj, cut[0], cut[1])
			if err := pieces.LoadCSR(uint32(cut[0]), o, a); err != nil {
				t.Fatalf("vertices [%d,%d): %v", cut[0], cut[1], err)
			}
		}
		check("CSR in straddling pieces", pieces, want)

		// A range reserved but not materialized gets its storage from the load.
		grown := NewPaged(n/4, shards, loadCfg.Workers)
		grown.ReserveVertices(n)
		if err := grown.LoadCSR(0, offs, adj); err != nil {
			t.Fatal(err)
		}
		wantGrown := New(n/4, loadCfg)
		wantGrown.EnsureVertices(n)
		wantGrown.InsertBatch(src, dst)
		check("CSR over reserved vertices", grown, wantGrown)
	}
}

// TestLoadCSRMergesDelta loads a CSR merged with a delta — deletes and
// inserts of edges the CSR holds and of edges it does not, sources on both
// sides of the CSR's range — whole, in pieces that split CSR and delta at the
// same vertex, as a delta alone, and around a hub longer than a page, at
// every shard count, and checks each against the bare engine given the CSR's
// edges and then the delta's as batches. Each vertex's run is written once,
// so nothing is placed but the edges.
func TestLoadCSRMergesDelta(t *testing.T) {
	const n, lo, hi = 512, 100, 400
	for _, shards := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(int64(10 + shards)))
		offs, adj, _, _ := testCSR(rng, n, loadDegrees(loadCfg))
		offs, adj = sliceCSR(offs, adj, lo, hi)
		d, ins, del := testDelta(rng, n, lo/2, n-10, lo, offs, adj, 4000)
		want := New(n, loadCfg)
		want.InsertBatch(csrEdges(lo, offs, adj))
		want.InsertBatch(ins[0], ins[1])
		want.DeleteBatch(del[0], del[1])
		check := func(what string, g *Paged) {
			t.Helper()
			if err := twinOf(g, want).check(); err != nil {
				t.Fatalf("S=%d, %s: %v", shards, what, err)
			}
			for i := range g.shards {
				if a := &g.shards[i].pub; a.placed != g.shards[i].m.Load() || len(a.retired) != 0 {
					t.Fatalf("S=%d, %s: shard %d placed %d entries for %d edges, retired %d pages", shards, what, i, a.placed, g.shards[i].m.Load(), len(a.retired))
				}
			}
		}

		whole := NewPaged(n, shards, loadCfg.Workers)
		if err := whole.LoadCSR(lo, offs, adj, d); err != nil {
			t.Fatal(err)
		}
		check("whole", whole)

		cut := uint32(250)
		at, _ := slices.BinarySearch(d.Keys, uint64(cut)<<32)
		pieces := NewPaged(n, shards, loadCfg.Workers)
		o1, a1 := sliceCSR(offs, adj, 0, int(cut-lo))
		o2, a2 := sliceCSR(offs, adj, int(cut-lo), hi-lo)
		if err := pieces.LoadCSR(cut, o2, a2, Delta{d.Keys[at:], d.Del[at:]}); err != nil {
			t.Fatal(err)
		}
		if err := pieces.LoadCSR(lo, o1, a1, Delta{d.Keys[:at], d.Del[:at]}); err != nil {
			t.Fatal(err)
		}
		check("in two pieces", pieces)

		alone, wantAlone := NewPaged(n, shards, loadCfg.Workers), New(n, loadCfg)
		if err := alone.LoadCSR(0, []uint64{0}, nil, d); err != nil {
			t.Fatal(err)
		}
		wantAlone.InsertBatch(ins[0], ins[1])
		want = wantAlone
		check("a delta alone", alone)

		// A hub longer than a page among enough small vertices that a
		// worker's share holds runs on both sides of it: its merged run gets
		// a page of its own, and the runs after it go on filling theirs.
		const hn, small = 1 << 15, 8192
		offs, adj = []uint64{0}, nil
		for v := 0; v < small; v++ {
			deg, step := 10, 7
			if v == 3 {
				deg, step = pageSize+4000, 1
			}
			for j := 0; j < deg; j++ {
				adj = append(adj, uint32(j*step+v%step))
			}
			offs = append(offs, uint64(len(adj)))
		}
		// The hub's changes: a present edge kept, deletes of present edges
		// and of an absent one, and new edges; then the small vertices'.
		d = Delta{}
		ins, del = [2][]uint32{}, [2][]uint32{}
		for u := uint32(0); u < hn; u += 997 {
			d.Keys, d.Del = append(d.Keys, 3<<32|uint64(u)), append(d.Del, u%2 == 1)
			col := &ins
			if u%2 == 1 {
				col = &del
			}
			col[0], col[1] = append(col[0], 3), append(col[1], u)
		}
		rest, rins, rdel := testDelta(rng, hn, 4, small, 0, offs, adj, 3000)
		d.Keys, d.Del = append(d.Keys, rest.Keys...), append(d.Del, rest.Del...)
		ins[0], ins[1] = append(ins[0], rins[0]...), append(ins[1], rins[1]...)
		del[0], del[1] = append(del[0], rdel[0]...), append(del[1], rdel[1]...)
		want = New(hn, loadCfg)
		want.InsertBatch(csrEdges(0, offs, adj))
		want.InsertBatch(ins[0], ins[1])
		want.DeleteBatch(del[0], del[1])
		hub := NewPaged(hn, shards, loadCfg.Workers)
		if err := hub.LoadCSR(0, offs, adj, d); err != nil {
			t.Fatal(err)
		}
		check("a hub longer than a page", hub)
	}
}

// TestLoadCSRRefusals gives the loader every kind of CSR it must refuse,
// each with loadable runs around the bad one, and checks the graph reads
// exactly as before.
func TestLoadCSRRefusals(t *testing.T) {
	const n = 64
	build := func() twin {
		tw := newTwin(n, 2, loadCfg)
		tw.insert([]uint32{5, 5, 40}, []uint32{1, 9, 2})
		return tw
	}
	edge := func(v, u uint32) uint64 { return uint64(v)<<32 | uint64(u) }
	for _, tc := range []struct {
		name  string
		base  uint32
		offs  []uint64
		adj   []uint32
		msg   string
		delta []Delta
	}{
		{"no offsets", 0, nil, nil, "cover", nil},
		{"first offset not zero", 0, []uint64{1, 2}, []uint32{3, 4}, "cover", nil},
		{"offsets stop short of adj", 0, []uint64{0, 1}, []uint32{3, 4}, "cover", nil},
		{"offsets not monotone", 0, []uint64{0, 2, 1, 3}, []uint32{3, 4, 5}, "monotone", nil},
		{"offset past adj", 0, []uint64{0, 9, 3}, []uint32{3, 4, 5}, "monotone", nil},
		{"range above the vertex bound", n - 1, []uint64{0, 1, 1}, []uint32{3}, "outside vertex space", nil},
		{"base above the vertex bound", ^uint32(0), []uint64{0, 0, 0}, nil, "outside vertex space", nil},
		{"duplicate neighbor", 0, []uint64{0, 2, 4}, []uint32{3, 4, 7, 7}, "ascending", nil},
		{"descending run", 0, []uint64{0, 2, 4}, []uint32{3, 4, 8, 7}, "ascending", nil},
		{"neighbor at the vertex bound", 0, []uint64{0, 2, 4}, []uint32{3, 4, 7, n}, "outside vertex space", nil},
		{"vertex already has edges", 4, []uint64{0, 1, 2}, []uint32{3, 4}, "already has", nil},
		{"vertex in the other shard already has edges", 30, []uint64{0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2}, []uint32{3, 4}, "already has", nil},
		{"delta without its ops", 0, []uint64{0}, nil, "ops", []Delta{{Keys: []uint64{edge(1, 2)}}}},
		{"delta descending", 0, []uint64{0}, nil, "ascending", []Delta{{[]uint64{edge(1, 3), edge(1, 2)}, []bool{false, false}}}},
		{"delta edge twice", 0, []uint64{0}, nil, "ascending", []Delta{{[]uint64{edge(1, 3), edge(1, 3)}, []bool{false, true}}}},
		{"delta neighbor at the vertex bound", 0, []uint64{0}, nil, "outside vertex space", []Delta{{[]uint64{edge(1, n)}, []bool{false}}}},
		{"delta source at the vertex bound", 0, []uint64{0}, nil, "outside vertex space", []Delta{{[]uint64{edge(n, 1)}, []bool{true}}}},
		{"delta deletes at a vertex with edges", 0, []uint64{0, 1}, []uint32{3}, "already has", []Delta{{[]uint64{edge(5, 9)}, []bool{true}}}},
		{"two deltas", 0, []uint64{0}, nil, "deltas", []Delta{{}, {}}},
	} {
		tw := build()
		err := tw.g.LoadCSR(tc.base, tc.offs, tc.adj, tc.delta...)
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Fatalf("%s: error %v, want one naming %q", tc.name, err, tc.msg)
		}
		if err := tw.check(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	// An empty run lands on no vertex, so it is not a refusal.
	tw := build()
	if err := tw.g.LoadCSR(5, []uint64{0, 0, 1}, []uint32{7}); err != nil {
		t.Fatal(err)
	}
	tw.ref.InsertBatch([]uint32{6}, []uint32{7})
	if err := tw.check(); err != nil {
		t.Fatalf("empty run over a non-empty vertex: %v", err)
	}
}

// TestPublishAfterLoadAndRelease checks the ways a shard changes other than
// by a batch: a bulk load copies the CSR's runs to the shards' pages — across
// a shard boundary, on top of a published snapshot that stays as it was — and
// refuses a vertex that has edges; trimming a large batch's scratch before a
// publish takes nothing the publish needs; and a load merged with a delta
// leaves every published snapshot as it was too.
func TestPublishAfterLoadAndRelease(t *testing.T) {
	const n = 512
	tw := newTwin(n, 2, loadCfg)
	tw.insert([]uint32{3, n - 1}, []uint32{9, 4})
	before := []*Snapshot{tw.g.Shard(0).Publish(), tw.g.Shard(1).Publish()}
	want := []*Snapshot{tw.want(0), tw.want(1)}

	// Vertices 100..399 straddle the boundary at 256 and hold no edge yet.
	offs, adj, _, _ := testCSR(rand.New(rand.NewSource(3)), n, loadDegrees(loadCfg))
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
	tw.ref.InsertBatch(csrEdges(100, offs, adj))
	if err := tw.check(); err != nil {
		t.Fatalf("after LoadCSR: %v", err)
	}
	for i, snap := range before {
		tw.sameAsShard(t, "after LoadCSR", i, tw.g.Shard(i).Publish())
		sameSnapshot(t, "published before LoadCSR", snap, want[i])
	}

	// A batch of more than scratchKeepMin edges a shard, then a small one,
	// which trims the large one's buffers before it runs.
	src, dst := randomBatch(rand.New(rand.NewSource(4)), 4*scratchKeepMin, 0, n, n)
	tw.delete(src, dst)
	tw.insert([]uint32{7}, []uint32{8})
	if sh := &tw.g.shards[0]; cap(sh.prep.ks) > scratchKeepMin || cap(sh.prep.jobs) > scratchKeepMin {
		t.Fatal("a small batch kept the large one's buffers")
	}
	for i := range before {
		tw.sameAsShard(t, "after the trim", i, tw.g.Shard(i).Publish())
	}

	// A load merged with a delta lands beside them too: the snapshots still
	// read as they were.
	offs, adj = sliceCSR(offs, adj, 0, 50)
	d, ins, del := testDelta(rand.New(rand.NewSource(5)), n, 400, n-1, 400, offs, adj, 300)
	if err := tw.g.LoadCSR(400, offs, adj, d); err != nil {
		t.Fatal(err)
	}
	tw.ref.InsertBatch(csrEdges(400, offs, adj))
	tw.ref.InsertBatch(ins[0], ins[1])
	tw.ref.DeleteBatch(del[0], del[1])
	if err := tw.check(); err != nil {
		t.Fatalf("after a merged load: %v", err)
	}
	for i, snap := range before {
		sameSnapshot(t, "published before the merged load", snap, want[i])
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
