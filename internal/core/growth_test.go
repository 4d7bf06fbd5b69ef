package core

import (
	"math"
	"math/bits"
	"strings"
	"testing"

	"lsgraph/internal/gen"
	"lsgraph/internal/refgraph"
)

func TestEnsureVerticesGrows(t *testing.T) {
	g := New(4, Config{})
	g.InsertBatch([]uint32{1}, []uint32{2})
	g.EnsureVertices(100)
	if g.NumVertices() != 100 {
		t.Fatalf("NumVertices=%d", g.NumVertices())
	}
	// Existing data survives the growth.
	if !g.Has(1, 2) || g.Degree(1) != 1 {
		t.Fatal("growth lost existing edges")
	}
	// New vertex slots are usable.
	g.InsertBatch([]uint32{99}, []uint32{50})
	if !g.Has(99, 50) {
		t.Fatal("new slot unusable")
	}
	// Shrinking requests are no-ops.
	g.EnsureVertices(10)
	if g.NumVertices() != 100 {
		t.Fatal("EnsureVertices shrank the graph")
	}
}

// TestOutOfRangePanicsWithClearMessage: an edge outside the vertex space,
// 2³²−1 included (its bound, one past it, would wrap to 0), panics on the
// caller's goroutine with a message naming the fix, with one shard and with
// a scatter to two.
func TestOutOfRangePanicsWithClearMessage(t *testing.T) {
	for _, S := range []int{1, 2} {
		g := New(4, Config{Shards: S})
		for _, edge := range [][2]uint32{{7, 1}, {1, 7}, {math.MaxUint32, 1}, {1, math.MaxUint32}} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("S=%d edge %v: expected panic", S, edge)
					}
					if !strings.Contains(r.(string), "EnsureVertices") {
						t.Fatalf("S=%d edge %v: uninformative panic %v", S, edge, r)
					}
				}()
				g.InsertBatch([]uint32{edge[0]}, []uint32{edge[1]})
			}()
		}
	}
}

func TestOutOfRangePanicMessageCoordinates(t *testing.T) {
	// The panic must name the offending edge and the valid range so a user
	// can locate the bad input without a debugger.
	g := New(4, Config{})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value is %T, want string", r)
		}
		if !strings.Contains(msg, "edge (7,1)") || !strings.Contains(msg, "[0,4)") {
			t.Fatalf("panic omits edge coordinates or range: %q", msg)
		}
	}()
	g.InsertBatch([]uint32{3, 7}, []uint32{0, 1})
}

func TestInsertIntoGrownRange(t *testing.T) {
	// EnsureVertices followed by a batch that lands entirely in the newly
	// grown slots, including the boundary vertex n-1, and edges that span
	// the old/new boundary.
	g := New(4, Config{})
	g.InsertBatch([]uint32{0, 1}, []uint32{1, 2})
	g.EnsureVertices(64)

	src := []uint32{63, 40, 3, 63}
	dst := []uint32{40, 50, 63, 3}
	g.InsertBatch(src, dst)
	if g.NumEdges() != 6 {
		t.Fatalf("NumEdges=%d want 6", g.NumEdges())
	}
	for i := range src {
		if !g.Has(src[i], dst[i]) {
			t.Fatalf("missing grown-range edge (%d,%d)", src[i], dst[i])
		}
	}
	if g.Degree(63) != 2 || g.Degree(40) != 1 {
		t.Fatalf("grown-range degrees off: deg(63)=%d deg(40)=%d",
			g.Degree(63), g.Degree(40))
	}
	// Old edges are untouched and deletes work across the boundary.
	if !g.Has(0, 1) || !g.Has(1, 2) {
		t.Fatal("pre-growth edges lost")
	}
	g.DeleteBatch([]uint32{63, 63}, []uint32{40, 3})
	if g.NumEdges() != 4 || g.Has(63, 40) || g.Has(63, 3) {
		t.Fatalf("delete in grown range failed: NumEdges=%d", g.NumEdges())
	}
	// Vertex 64 is still out of range after growing to 64.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for vertex == n")
			}
		}()
		g.InsertBatch([]uint32{64}, []uint32{0})
	}()
}

func TestGrowingStreamScenario(t *testing.T) {
	// Model the Table 4 pattern: the vertex set grows while edges stream.
	g := New(0, Config{})
	ref := refgraph.New(1 << 12)
	ts := gen.NewTemporalStream(1<<12, 1.2, 3)
	es := ts.Edges(20000)
	for lo := 0; lo < len(es); lo += 500 {
		hi := lo + 500
		if hi > len(es) {
			hi = len(es)
		}
		chunk := es[lo:hi]
		g.EnsureVertices(gen.MaxVertex(chunk))
		src := make([]uint32, len(chunk))
		dst := make([]uint32, len(chunk))
		for i, e := range chunk {
			src[i], dst[i] = e.Src, e.Dst
			ref.Insert(e.Src, e.Dst)
		}
		g.InsertBatch(src, dst)
	}
	if g.NumEdges() != ref.NumEdges() {
		t.Fatalf("NumEdges %d want %d", g.NumEdges(), ref.NumEdges())
	}
	for v := uint32(0); v < g.NumVertices(); v++ {
		if g.Degree(v) != ref.Degree(v) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
}

// TestGrowthReallocatesGeometrically: a stream that raises the vertex bound
// by one per batch must not copy the graph's blocks once per batch, and the
// capacity it keeps instead must stay invisible — a slot growth re-slices
// into reads as an empty vertex until a batch names it.
func TestGrowthReallocatesGeometrically(t *testing.T) {
	const steps = 10000
	g := New(1, Config{})
	sh := &g.shards[0]
	reallocs, c := 0, cap(sh.verts)
	for n := uint32(2); n < 2+steps; n++ {
		g.EnsureVertices(n)
		if cap(sh.verts) != c {
			reallocs++
			c = cap(sh.verts)
		}
	}
	if len(sh.verts) != steps+1 {
		t.Fatalf("graph materializes %d slots after %d one-vertex growths from 1", len(sh.verts), steps)
	}
	if limit := 3 * bits.Len(steps); reallocs > limit {
		t.Fatalf("%d one-vertex growths reallocated %d times, want O(log n) (at most %d)", steps, reallocs, limit)
	}

	g = New(16, Config{Workers: 2})
	sh = &g.shards[0]
	ref := refgraph.New(16)
	r := lcg(11)
	inPlace := 0
	for step := 0; step < 400; step++ {
		n := g.NumVertices() + 1 + r.next()%3
		l, c := len(sh.verts), cap(sh.verts)
		g.EnsureVertices(n)
		ref.EnsureVertices(n)
		if len(sh.verts) > l && cap(sh.verts) == c {
			inPlace++
		}
		// Edges from the new vertices and from old ones, so fresh slots are
		// written and written again.
		var src, dst []uint32
		for i := 0; i < 6; i++ {
			u := r.next() % n
			if i < 2 {
				u = n - 1 - uint32(i)%n
			}
			w := r.next() % n
			src, dst = append(src, u), append(dst, w)
			ref.Insert(u, w)
		}
		g.InsertBatch(src, dst)
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkAgainstOracle(t, g, ref)
	}
	if inPlace == 0 {
		t.Fatal("no growth step re-sliced within the graph's capacity; the test does not cover it")
	}
}
