// Package terrace's test file doubles as the cross-engine conformance
// suite: after identical random batch schedules, every engine (Terrace,
// Aspen, PaC-tree, LSGraph) must report identical neighbor sequences,
// degrees, and edge counts, all matching the oracle.
package terrace_test

import (
	"testing"

	"lsgraph/internal/aspen"
	"lsgraph/internal/core"
	"lsgraph/internal/engine"
	"lsgraph/internal/gen"
	"lsgraph/internal/pactree"
	"lsgraph/internal/refgraph"
	"lsgraph/internal/terrace"
)

func engines(n uint32, workers int) []engine.Engine {
	return []engine.Engine{
		core.New(n, core.Config{Workers: workers}),
		terrace.New(n, workers),
		aspen.New(n, workers),
		pactree.New(n, workers),
	}
}

func checkEngine(t *testing.T, e engine.Engine, ref *refgraph.Graph) {
	t.Helper()
	if e.NumEdges() != ref.NumEdges() {
		t.Fatalf("%s: NumEdges %d want %d", e.Name(), e.NumEdges(), ref.NumEdges())
	}
	for v := uint32(0); v < ref.NumVertices(); v++ {
		if e.Degree(v) != ref.Degree(v) {
			t.Fatalf("%s: Degree(%d)=%d want %d", e.Name(), v, e.Degree(v), ref.Degree(v))
		}
		walk := func(y func([]uint32) bool) { e.NeighborBlocks(v, y) }
		if err := engine.CheckBlocks(walk, ref.Neighbors(v)); err != nil {
			t.Fatalf("%s: vertex %d: %v", e.Name(), v, err)
		}
	}
}

func split(es []gen.Edge) (src, dst []uint32) {
	src = make([]uint32, len(es))
	dst = make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	return
}

func TestAllEnginesMatchOracleOnBatches(t *testing.T) {
	const n = 1 << 10
	rm := gen.NewRMatPaper(10, 99)
	ref := refgraph.New(n)
	es := engines(n, 4)
	for round := 0; round < 6; round++ {
		batch := rm.Edges(4000)
		src, dst := split(batch)
		for _, e := range es {
			e.InsertBatch(src, dst)
		}
		for _, e := range batch {
			ref.Insert(e.Src, e.Dst)
		}
		// Delete a slice of the batch again.
		dsrc, ddst := split(batch[:1500])
		for _, e := range es {
			e.DeleteBatch(dsrc, ddst)
		}
		for _, e := range batch[:1500] {
			ref.Delete(e.Src, e.Dst)
		}
	}
	for _, e := range es {
		checkEngine(t, e, ref)
	}
}

func TestAllEnginesSingleEdgeOps(t *testing.T) {
	const n = 64
	ref := refgraph.New(n)
	es := engines(n, 1)
	rm := gen.NewRMatPaper(6, 5)
	for i := 0; i < 3000; i++ {
		e := rm.Edge()
		if e.Src == e.Dst {
			continue
		}
		if i%3 == 2 {
			for _, eng := range es {
				eng.DeleteBatch([]uint32{e.Src}, []uint32{e.Dst})
			}
			ref.Delete(e.Src, e.Dst)
		} else {
			for _, eng := range es {
				eng.InsertBatch([]uint32{e.Src}, []uint32{e.Dst})
			}
			ref.Insert(e.Src, e.Dst)
		}
	}
	for _, e := range es {
		checkEngine(t, e, ref)
	}
}

func TestHighDegreeVertexAllEngines(t *testing.T) {
	// One hub vertex crossing every structural threshold (inline → PMA →
	// B-tree for Terrace; inline → array → RIA → HITree for LSGraph).
	const n = 8192
	ref := refgraph.New(n)
	es := engines(n, 2)
	var src, dst []uint32
	for u := uint32(0); u < 3000; u++ {
		if u == 1 {
			continue
		}
		src = append(src, 1)
		dst = append(dst, u*2+1)
	}
	for _, e := range es {
		e.InsertBatch(src, dst)
	}
	for i := range src {
		ref.Insert(src[i], dst[i])
	}
	// Now delete every fourth edge.
	var s2, d2 []uint32
	for i := 0; i < len(src); i += 4 {
		s2 = append(s2, src[i])
		d2 = append(d2, dst[i])
		ref.Delete(src[i], dst[i])
	}
	for _, e := range es {
		e.DeleteBatch(s2, d2)
	}
	for _, e := range es {
		checkEngine(t, e, ref)
	}
}

// TestTerraceBlocksEveryTier reads one vertex per storage tier: inline
// only, inline exactly full, a PMA range that fills the 64-entry staging
// buffer exactly (no trailing partial block), one that wraps it twice and
// ends partial, and a B-tree. A walk stopped at the first staged block
// must have seen the inline prefix plus one buffer and nothing after.
func TestTerraceBlocksEveryTier(t *testing.T) {
	const n = 4096
	degrees := []int{5, 13, 13 + 64, 13 + 2*64 + 9, terrace.HighDegree + 500}
	g := terrace.New(n, 2)
	ref := refgraph.New(n)
	var src, dst []uint32
	for v, d := range degrees {
		for i := 0; i < d; i++ {
			u := uint32(i*2 + 10)
			src, dst = append(src, uint32(v)), append(dst, u)
			ref.Insert(uint32(v), u)
		}
	}
	g.InsertBatch(src, dst)
	checkEngine(t, g, ref)

	const wrapped = 3 // the vertex whose PMA range spans three staged blocks
	calls, seen := 0, 0
	g.NeighborBlocks(wrapped, func(b []uint32) bool {
		calls++
		seen += len(b)
		return calls < 2
	})
	if calls != 2 || seen != 13+64 {
		t.Fatalf("stopping at the first staged block: %d calls, %d neighbors; want 2 and %d", calls, seen, 13+64)
	}
}

func TestTerraceInstrumentation(t *testing.T) {
	g := terrace.New(256, 1)
	g.Instrument = true
	rm := gen.NewRMatPaper(8, 3)
	load := rm.Edges(20000)
	src, dst := split(load)
	g.InsertBatch(src, dst) // initial load takes the bulk path
	batch := rm.Edges(20000)
	src, dst = split(batch)
	g.InsertBatch(src, dst) // second batch exercises the instrumented path
	if g.Stats.UpdateNanos.Load() == 0 {
		t.Fatal("update timer did not advance")
	}
	if g.Stats.PMANanos.Load() == 0 {
		t.Fatal("PMA timer did not advance")
	}
	st := g.PMAStats()
	if st.SearchProbes == 0 || st.Moved == 0 {
		t.Fatalf("PMA stats did not advance: %+v", st)
	}
}

func TestEngineMemoryOrdering(t *testing.T) {
	// Table 3's qualitative shape: Terrace's loose-density PMA uses more
	// memory than LSGraph on the same graph.
	const n = 1 << 11
	rm := gen.NewRMatPaper(11, 7)
	batch := rm.Edges(150000)
	src, dst := split(batch)
	ls := core.New(n, core.Config{Workers: 4})
	tr := terrace.New(n, 4)
	ls.InsertBatch(src, dst)
	tr.InsertBatch(src, dst)
	if tr.MemoryUsage() <= ls.MemoryUsage() {
		t.Fatalf("expected Terrace (%d B) above LSGraph (%d B)",
			tr.MemoryUsage(), ls.MemoryUsage())
	}
}
