package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"lsgraph/internal/gen"
	"lsgraph/internal/refgraph"
)

// The vertex block is one cache line: neither array type compiles unless
// unsafe.Sizeof(vertex{}) is exactly 64.
var (
	_ [64 - unsafe.Sizeof(vertex{})]byte
	_ [unsafe.Sizeof(vertex{}) - 64]byte
)

// TestVertexBlockLayout pins the field offsets DESIGN.md documents and
// checks that every shard of 512 blocks or more starts on a cache-line
// boundary, after New, after geometric growth and after boundary moves: the
// runtime page-aligns an allocation of 32 KiB and up and prepends no header
// to it, which is what makes "one block, one line" true without an aligned
// allocator of our own.
func TestVertexBlockLayout(t *testing.T) {
	var vb vertex
	if o := unsafe.Offsetof(vb.deg); o != 0 {
		t.Errorf("deg at offset %d, want 0", o)
	}
	if o := unsafe.Offsetof(vb.inline); o != 4 {
		t.Errorf("inline at offset %d, want 4", o)
	}
	if o := unsafe.Offsetof(vb.ov); o != 56 {
		t.Errorf("ov at offset %d, want 56", o)
	}
	aligned := func(when string, g *Graph) {
		t.Helper()
		for i := range g.shards {
			if sh := &g.shards[i]; cap(sh.verts) >= 512 {
				if a := uintptr(unsafe.Pointer(unsafe.SliceData(sh.verts))); a%64 != 0 {
					t.Errorf("%s: shard %d's %d blocks start at %#x, %d bytes past a cache line", when, i, cap(sh.verts), a, a%64)
				}
			}
		}
	}
	g := New(4096, Config{Shards: 4})
	aligned("New", g)
	for n := uint32(4096); n < 1<<15; n += 777 {
		g.EnsureVertices(n)
		aligned("EnsureVertices", g)
	}
	for _, cut := range []uint32{700, 1500, 1024, 2000, 3500, 3000} {
		k := g.ShardOf(cut)
		if k == g.NumShards()-1 || g.PartitionMap().Starts[k] == cut {
			k--
		}
		if _, _, err := g.MoveBoundary(k, cut); err != nil {
			t.Fatal(err)
		}
		aligned(fmt.Sprintf("MoveBoundary(%d,%d)", k, cut), g)
	}
}

// TestArrCapIsSizeClass checks that an array class is what the allocator
// hands out for it — the capacity Go's own growth picks for that many
// bytes — so a class carries no slack the block cannot use, and that the
// classes are the ones DESIGN.md lists.
func TestArrCapIsSizeClass(t *testing.T) {
	var classes []int
	for n := 1; n <= 256; n++ {
		c := arrCap(n)
		if c < n || (n > 1 && c < arrCap(n-1)) {
			t.Fatalf("arrCap(%d) = %d", n, c)
		}
		if len(classes) == 0 || classes[len(classes)-1] != c {
			classes = append(classes, c)
		}
		if n <= 192 {
			if got := cap(slices.Grow([]uint32(nil), c)); got != c {
				t.Errorf("arrCap(%d) = %d entries, but the allocator's class for them holds %d", n, c, got)
			}
		}
	}
	if want := []int{4, 8, 12, 16, 24, 32, 48, 64}; !slices.Equal(classes[:len(want)], want) {
		t.Errorf("array classes %v, want %v", classes[:len(want)], want)
	}
}

// smallClasses walks all four classes within 40 neighbors: inline to 13,
// array to 17, RIA to 37, HITree above, back to an RIA at 25.
var smallClasses = Config{ArrayMax: 4, M: 24}

// wantKind is the class a vertex of the given degree holds under cfg when
// it got there by single-edge updates from the given previous kind.
func wantKind(cfg Config, deg int, prev ovKind) ovKind {
	cfg.sanitize()
	ol := deg - inlineCap
	switch {
	case ol <= 0:
		return kindArr
	case cfg.Overflow == KindPMA:
		return kindPMA
	case prev == kindTree && ol > cfg.M/2:
		return kindTree
	case ol <= cfg.ArrayMax:
		return kindArr
	case ol > cfg.M:
		return kindTree
	}
	return kindRIA
}

// TestClassWalkSingleEdges takes one vertex up through every class and back
// down an edge at a time, under the default policy and both ablations,
// deleting once from the front (every delete refills the inline area from
// the overflow minimum) and once from the back. After every update the
// block's kind is the one the thresholds and the M/2 hysteresis give, the
// invariants hold and the adjacency is the oracle's.
func TestClassWalkSingleEdges(t *testing.T) {
	for _, cfg := range []Config{smallClasses,
		{ArrayMax: 4, M: 24, Overflow: KindPMA}, {ArrayMax: 4, M: 24, Overflow: KindRIAOnly}, {ArrayMax: 40, M: 64}} {
		for _, front := range []bool{true, false} {
			const top = 120
			g, ref := New(4*top, cfg), refgraph.New(4*top)
			vb, seen := &g.shards[0].verts[1], map[ovKind]bool{}
			step := func(u uint32, del bool) {
				t.Helper()
				prev := vb.kind()
				if del {
					g.DeleteBatch([]uint32{1}, []uint32{u})
					ref.Delete(1, u)
				} else {
					g.InsertBatch([]uint32{1}, []uint32{u})
					ref.Insert(1, u)
				}
				deg := int(ref.Degree(1))
				if got, want := vb.kind(), wantKind(cfg, deg, prev); got != want {
					t.Fatalf("%+v: degree %d after del=%v: kind %d, want %d", cfg, deg, del, got, want)
				}
				if g.Degree(1) != uint32(deg) {
					t.Fatalf("%+v: Degree %d, oracle %d", cfg, g.Degree(1), deg)
				}
				if err := g.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				seen[vb.kind()] = true
			}
			// Up in an order that hits the inline area, the overflow's
			// middle and its end.
			for i := uint32(0); i < top; i++ {
				step(3*((i*37)%top)+2, false)
			}
			checkAgainstOracle(t, g, ref)
			ns := neighbors(g, 1)
			if !front {
				slices.Reverse(ns)
			}
			for _, u := range ns {
				step(u, true)
			}
			checkAgainstOracle(t, g, ref)
			if vb.ov != nil || vb.deg != 0 {
				t.Fatalf("%+v: emptied vertex keeps deg word %#x, pointer %v", cfg, vb.deg, vb.ov)
			}
			want := []ovKind{kindArr, kindRIA, kindTree}
			switch cfg.Overflow {
			case KindPMA:
				want = []ovKind{kindArr, kindPMA}
			case KindRIAOnly:
				want = want[:2]
			}
			for _, k := range want {
				if !seen[k] {
					t.Errorf("%+v: the walk never held kind %d", cfg, k)
				}
			}
		}
	}
}

// classGraph builds a 2-shard graph whose vertices around the boundary hold
// one overflow of every class under smallClasses, on both sides.
func classGraph(t *testing.T, cfg Config) (*Graph, *refgraph.Graph) {
	t.Helper()
	const n = 256
	cfg.Shards = 2
	g, ref := New(n, cfg), refgraph.New(n)
	var src, dst []uint32
	for i, deg := range []int{3, 13, 15, 17, 18, 30, 37, 38, 60, 100} {
		for _, v := range []uint32{uint32(n/2 - 1 - i), uint32(n/2 + i)} {
			for j := 0; j < deg; j++ {
				u := uint32((int(v)*7 + j*2 + 1) % n)
				src, dst = append(src, v, u), append(dst, u, v)
				ref.Insert(v, u)
				ref.Insert(u, v)
			}
		}
	}
	g.InsertBatch(src, dst)
	checkAgainstOracle(t, g, ref)
	if b := g.MemoryBreakdown(); cfg.Overflow == KindAuto && (b.ArrayPayload == 0 || b.RIAPayload == 0 || b.Trees == 0) {
		t.Fatalf("class graph misses a class: %+v", b)
	}
	return g, ref
}

// TestClassesSurviveMovesAndReloads moves the shard boundary across vertices
// of every class in both directions, deletes a vertex of every class, and
// round-trips the result through CSR and LoadCSR into a paged graph, under
// the default policy and both ablations: the kind bits travel with the
// block, and every step leaves the invariants and the oracle's adjacency
// intact.
func TestClassesSurviveMovesAndReloads(t *testing.T) {
	for _, cfg := range []Config{smallClasses,
		{ArrayMax: 4, M: 24, Overflow: KindPMA}, {ArrayMax: 4, M: 24, Overflow: KindRIAOnly}} {
		g, ref := classGraph(t, cfg)
		check := func(when string) {
			t.Helper()
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("%+v, %s: %v", cfg, when, err)
			}
			checkAgainstOracle(t, g, ref)
		}
		for _, cut := range []uint32{118, 139, 125, 131, 120} {
			if _, _, err := g.MoveBoundary(0, cut); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("boundary at %d", cut))
		}
		for _, v := range []uint32{127, 124, 130, 122, 136, 119} {
			for _, u := range slices.Clone(ref.Neighbors(v)) {
				ref.Delete(v, u)
				ref.Delete(u, v)
			}
			g.DeleteVertex(v)
			check(fmt.Sprintf("DeleteVertex(%d)", v))
		}
		offs, adj := g.Snapshot().CSR()
		cfg.Shards = 3
		back := NewPaged(g.NumVertices(), cfg)
		if err := back.LoadCSR(0, offs, adj); err != nil {
			t.Fatal(err)
		}
		g = back
		check("LoadCSR round trip")
	}
}

// census counts the vertices of each class: inline only, array, RIA, HITree,
// PMA.
func census(g *Graph) (c [5]int) {
	for i := range g.shards {
		for j := range g.shards[i].verts {
			switch vb := &g.shards[i].verts[j]; {
			case vb.ov == nil:
				c[0]++
			default:
				c[1+vb.kind()]++
			}
		}
	}
	return c
}

// rulerGraph draws the benchmark's input by its recipe (benchmark/gen.go):
// 10·2^scale rMat draws at a=.5, b=c=.1, self-loops dropped, symmetrised and
// deduplicated, plus count update batches of size directed edges — both
// directions of pairs absent from the base graph and from each other.
func rulerGraph(scale uint, seed uint64, count, size int) (src, dst []uint32, batches [][2][]uint32) {
	rm := gen.NewRMatPaper(scale, seed)
	have := map[uint64]bool{}
	pair := func() (u, v uint32, fresh bool) {
		e := rm.Edge()
		u, v = min(e.Src, e.Dst), max(e.Src, e.Dst)
		k := uint64(u)<<32 | uint64(v)
		fresh = u != v && !have[k]
		have[k] = have[k] || fresh
		return u, v, fresh
	}
	for i := 0; i < 10<<scale; i++ {
		if u, v, fresh := pair(); fresh {
			src, dst = append(src, u, v), append(dst, v, u)
		}
	}
	for b := 0; b < count; b++ {
		var bs, bd []uint32
		for len(bs) < size {
			if u, v, fresh := pair(); fresh {
				bs, bd = append(bs, u, v), append(bd, v, u)
			}
		}
		batches = append(batches, [2][]uint32{bs, bd})
	}
	return src, dst, batches
}

// heapLive returns the bytes of reachable heap objects.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// round inserts every batch and deletes it again.
func round(g *Graph, batches [][2][]uint32) {
	for _, b := range batches {
		g.InsertBatch(b[0], b[1])
	}
	for _, b := range batches {
		g.DeleteBatch(b[0], b[1])
	}
}

// TestHeapFlatOverRounds is the guard on delete giving back what insert
// took: ten rounds that insert and delete the same batches leave the live
// heap where the second round left it, within one percent. (The first round
// also sizes the pipeline's buffers.) Before arrays moved down a class with
// a copy, every front delete resliced data[1:] and stranded the prefix, and
// the heap crept up round after round.
func TestHeapFlatOverRounds(t *testing.T) {
	src, dst, batches := rulerGraph(13, 1, 8, 6000)
	g := New(1<<13, Config{Workers: 2})
	g.InsertBatch(src, dst)
	var heap [11]uint64
	for r := 1; r <= 10; r++ {
		round(g, batches)
		heap[r] = heapLive()
	}
	t.Logf("live heap by round: %v", heap[1:])
	if lo, hi := float64(heap[2])*0.99, float64(heap[2])*1.01; float64(heap[10]) < lo || float64(heap[10]) > hi {
		t.Errorf("live heap after round 2 is %d B, after round 10 %d B (%+.2f%%); by round: %v",
			heap[2], heap[10], 100*(float64(heap[10])/float64(heap[2])-1), heap[1:])
	}
	runtime.KeepAlive([]any{g, src, dst})
}

// TestMemoryUsageMatchesHeap holds the accounting to the allocator: on the
// ruler's scale-15 graph the sum of MemoryBreakdown is within ten percent of
// what the heap grew by, both after the load and after a round of inserts
// and deletes has left its slack behind.
func TestMemoryUsageMatchesHeap(t *testing.T) {
	src, dst, batches := rulerGraph(15, 1, 8, 25_000)
	heap0 := heapLive()
	g := New(1<<15, Config{Workers: 2})
	g.InsertBatch(src, dst)
	check := func(when string) {
		t.Helper()
		heap, b := heapLive()-heap0, g.MemoryBreakdown()
		m := float64(g.NumEdges())
		t.Logf("%s: heap %.2f B/edge, MemoryUsage %.2f B/edge (%+.1f%%) over %d edges", when,
			float64(heap)/m, float64(b.Total())/m, 100*(float64(b.Total())/float64(heap)-1), g.NumEdges())
		t.Logf("  blocks %.2f · arrays %.2f+%.2f · RIA %.2f+%.2f gaps, %.2f index, %.2f headers · trees %.2f · scratch %.2f",
			float64(b.VertexBlocks)/m, float64(b.ArrayPayload)/m, float64(b.ArraySlack)/m, float64(b.RIAPayload)/m,
			float64(b.RIAGaps)/m, float64(b.RIAIndex)/m, float64(b.RIAHeaders)/m, float64(b.Trees)/m, float64(b.Scratch)/m)
		if g.MemoryUsage() != b.Total() {
			t.Errorf("%s: MemoryUsage %d != breakdown sum %d", when, g.MemoryUsage(), b.Total())
		}
		if math.Abs(float64(b.Total())/float64(heap)-1) > 0.10 {
			t.Errorf("%s: MemoryUsage %d B is not within 10%% of the %d B the heap holds", when, b.Total(), heap)
		}
	}
	check("after load")
	round(g, batches)
	check("after one insert/delete round")
	runtime.KeepAlive([]any{g, src, dst, batches})
}

// TestDeleteReturnsFootprint: a vertex that returns to its degree returns
// to its footprint. After inserting and deleting the same batches the class
// census equals that of a fresh build of the same edges, and the structures'
// bytes are within five percent of the fresh build's.
func TestDeleteReturnsFootprint(t *testing.T) {
	src, dst, batches := rulerGraph(15, 1, 8, 25_000)
	g := NewFromEdges(1<<15, src, dst, Config{Workers: 2})
	round(g, batches)
	fresh := NewFromEdges(1<<15, src, dst, Config{Workers: 2})
	t.Logf("class census (inline, array, RIA, HITree, PMA): %v", census(fresh))
	if got, want := census(g), census(fresh); got != want {
		t.Errorf("class census (inline, array, RIA, HITree, PMA) after a round %v, fresh build %v", got, want)
	}
	// The pipeline's buffers follow the last batch, not the graph: compare
	// what the graph itself holds.
	gb, fb := g.MemoryBreakdown(), fresh.MemoryBreakdown()
	got, want := gb.Total()-gb.Scratch, fb.Total()-fb.Scratch
	t.Logf("after a round %d B (%+v), fresh %d B (%+v)", got, gb, want, fb)
	if math.Abs(float64(got)/float64(want)-1) > 0.05 {
		t.Errorf("structures hold %d B after a round, %d B freshly built (%+.1f%%)", got, want, 100*(float64(got)/float64(want)-1))
	}
}

// BenchmarkClassBoundaryFlip toggles one edge across a class boundary: A,
// where an array becomes an RIA and back with no hysteresis, and M, where
// the flip to a HITree is O(M) and the way back waits for M/2 — so the same
// toggle at M costs one tree update, and only the walk down to M/2 and back
// up pays the two conversions (reported per toggle of that 2·(M/2) walk).
func BenchmarkClassBoundaryFlip(b *testing.B) {
	build := func(deg int) (*Graph, []uint32) {
		g := New(1<<16, Config{Workers: 1})
		dst := make([]uint32, deg)
		for i := range dst {
			dst[i] = uint32(3*i + 1)
		}
		g.InsertBatch(make([]uint32, deg), dst)
		return g, dst
	}
	toggle := func(b *testing.B, deg int) {
		g, dst := build(deg)
		vb, u := &g.shards[0].verts[0], dst[deg-1]+3
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.insertOne(vb, u)
			g.deleteOne(vb, u)
		}
	}
	b.Run("array/mid-class", func(b *testing.B) { toggle(b, inlineCap+29) })
	b.Run("array/class-edge-24", func(b *testing.B) { toggle(b, inlineCap+24) })
	b.Run("A/array-RIA", func(b *testing.B) { toggle(b, inlineCap+32) })
	b.Run("RIA/mid-class", func(b *testing.B) { toggle(b, inlineCap+2000) })
	b.Run("M/stays-HITree", func(b *testing.B) { toggle(b, inlineCap+4096) })
	b.Run("M/no-hysteresis-cost", func(b *testing.B) {
		// What every toggle at M would cost without the hysteresis: one
		// RIA→HITree conversion and one back.
		g, dst := build(inlineCap + 4096)
		vb, u := &g.shards[0].verts[0], dst[len(dst)-1]+3
		ns := neighbors(g, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.insertOne(vb, u)
			g.deleteOne(vb, u)
			g.rebuildVertex(vb, ns)
		}
	})
}
