package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"lsgraph/internal/gen"
	"lsgraph/internal/refgraph"
)

func neighbors(g *Graph, v uint32) []uint32 { return g.AppendNeighbors(v, nil) }

// checkAgainstOracle verifies degrees, edge counts, ordered neighbor
// sequences, and membership against the reference graph.
func checkAgainstOracle(t *testing.T, g *Graph, ref *refgraph.Graph) {
	t.Helper()
	if g.NumVertices() != ref.NumVertices() {
		t.Fatalf("NumVertices %d vs %d", g.NumVertices(), ref.NumVertices())
	}
	if g.NumEdges() != ref.NumEdges() {
		t.Fatalf("NumEdges %d vs %d", g.NumEdges(), ref.NumEdges())
	}
	for v := uint32(0); v < g.NumVertices(); v++ {
		if g.Degree(v) != ref.Degree(v) {
			t.Fatalf("Degree(%d) %d vs %d", v, g.Degree(v), ref.Degree(v))
		}
		got := neighbors(g, v)
		want := ref.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("vertex %d: got %d neighbors want %d", v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vertex %d: neighbor %d got %d want %d", v, i, got[i], want[i])
			}
		}
	}
}

func applyInserts(g *Graph, ref *refgraph.Graph, es []gen.Edge) {
	src := make([]uint32, len(es))
	dst := make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
		ref.Insert(e.Src, e.Dst)
	}
	g.InsertBatch(src, dst)
}

func applyDeletes(g *Graph, ref *refgraph.Graph, es []gen.Edge) {
	src := make([]uint32, len(es))
	dst := make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
		ref.Delete(e.Src, e.Dst)
	}
	g.DeleteBatch(src, dst)
}

func TestEmptyGraph(t *testing.T) {
	g := New(10, Config{})
	if g.NumVertices() != 10 || g.NumEdges() != 0 || g.Degree(3) != 0 {
		t.Fatal("empty graph misbehaves")
	}
	if g.Has(1, 2) {
		t.Fatal("phantom edge")
	}
	g.InsertBatch(nil, nil)
	g.DeleteBatch(nil, nil)
}

func TestSingleVertexGrowthThroughAllStructures(t *testing.T) {
	// Grow one vertex from inline through array, RIA, and HITree, checking
	// order at every threshold crossing.
	cfg := Config{ArrayMax: 32, M: 256}
	g := New(1<<20, cfg)
	ref := refgraph.New(1 << 20)
	rng := rand.New(rand.NewSource(1))
	var batch []gen.Edge
	for i := 0; i < 2000; i++ {
		batch = append(batch, gen.Edge{Src: 0, Dst: uint32(rng.Intn(1 << 20))})
		if len(batch) == 37 { // odd size to hit both bulk and single paths
			applyInserts(g, ref, batch)
			batch = batch[:0]
		}
	}
	applyInserts(g, ref, batch)
	checkAgainstOracle(t, g, ref)
	if g.Stats().RIAToHITree.Load() == 0 {
		t.Fatal("expected at least one RIA->HITree promotion")
	}
}

func TestInlineEvictionInvariant(t *testing.T) {
	// Insert descending so every insert displaces the inline maximum.
	g := New(1024, Config{})
	ref := refgraph.New(1024)
	for i := 500; i > 0; i-- {
		applyInserts(g, ref, []gen.Edge{{Src: 0, Dst: uint32(i)}})
	}
	checkAgainstOracle(t, g, ref)
}

func TestDeleteRefillsInline(t *testing.T) {
	g := New(1024, Config{})
	ref := refgraph.New(1024)
	var es []gen.Edge
	for i := 0; i < 100; i++ {
		es = append(es, gen.Edge{Src: 0, Dst: uint32(i)})
	}
	applyInserts(g, ref, es)
	// Delete the inline (smallest) neighbors one at a time; the overflow
	// minimum must backfill each slot.
	for i := 0; i < 100; i += 2 {
		applyDeletes(g, ref, []gen.Edge{{Src: 0, Dst: uint32(i)}})
		checkAgainstOracle(t, g, ref)
	}
}

func TestBatchDuplicatesAndRedundant(t *testing.T) {
	g := New(128, Config{})
	ref := refgraph.New(128)
	// Batch with internal duplicates.
	src := []uint32{1, 1, 1, 2, 2}
	dst := []uint32{7, 7, 8, 9, 9}
	g.InsertBatch(src, dst)
	ref.Insert(1, 7)
	ref.Insert(1, 8)
	ref.Insert(2, 9)
	checkAgainstOracle(t, g, ref)
	// Re-inserting existing edges must not change edge count.
	g.InsertBatch(src, dst)
	checkAgainstOracle(t, g, ref)
	// Deleting absent edges must not underflow.
	g.DeleteBatch([]uint32{3, 1}, []uint32{1, 100})
	checkAgainstOracle(t, g, ref)
}

func TestRandomBatchesAgainstOracle(t *testing.T) {
	g := New(1<<10, Config{ArrayMax: 16, M: 128})
	ref := refgraph.New(1 << 10)
	rm := gen.NewRMatPaper(10, 42)
	for round := 0; round < 8; round++ {
		es := rm.Edges(5000)
		applyInserts(g, ref, es)
		// Delete a random half of that batch.
		applyDeletes(g, ref, es[:2500])
	}
	checkAgainstOracle(t, g, ref)
}

// TestBulkVsSingleInsertEquivalence builds one graph with the whole stream
// as one batch, so its hubs' groups take the merge-and-rebuild path, and
// another from the same stream cut into chunks in which no vertex's group
// reaches the size a rebuild needs, so every edge takes the per-edge path,
// and checks both against the oracle.
func TestBulkVsSingleInsertEquivalence(t *testing.T) {
	rm := gen.NewRMatPaper(9, 7)
	es := rm.Edges(20000)
	bulk := New(512, Config{M: 128})
	single := New(512, Config{M: 128})
	ref := refgraph.New(512)
	applyInserts(bulk, ref, es)
	for rest := es; len(rest) > 0; {
		// A chunk ends before the edge that would give a vertex its 32nd
		// distinct neighbor in it.
		group, seen := map[uint32]int{}, map[gen.Edge]bool{}
		end, largest := 0, 0
		for ; end < len(rest) && (seen[rest[end]] || group[rest[end].Src] < 31); end++ {
			if e := rest[end]; !seen[e] {
				seen[e] = true
				group[e.Src]++
				largest = max(largest, group[e.Src])
			}
		}
		if bulkThreshold(largest, 0) {
			t.Fatalf("a chunk holds a group of %d edges, which takes the bulk path", largest)
		}
		src, dst := make([]uint32, end), make([]uint32, end)
		for i, e := range rest[:end] {
			src[i], dst[i] = e.Src, e.Dst
		}
		single.InsertBatch(src, dst)
		rest = rest[end:]
	}
	checkAgainstOracle(t, bulk, ref)
	checkAgainstOracle(t, single, ref)
}

func TestAblationConfigsMatchOracle(t *testing.T) {
	rm := gen.NewRMatPaper(9, 13)
	es := rm.Edges(15000)
	cfgs := map[string]Config{
		"pma":      {Overflow: KindPMA, M: 128},
		"ria-only": {Overflow: KindRIAOnly, M: 128},
		"no-model": {DisableModel: true, M: 128},
	}
	for name, cfg := range cfgs {
		g := New(512, cfg)
		ref := refgraph.New(512)
		applyInserts(g, ref, es)
		applyDeletes(g, ref, es[:5000])
		checkAgainstOracle(t, g, ref)
		if t.Failed() {
			t.Fatalf("ablation %q diverged", name)
		}
	}
}

func TestHasAndUntil(t *testing.T) {
	g := New(128, Config{})
	var src, dst []uint32
	for u := uint32(1); u <= 20; u++ { // 13 inline + a 7-element overflow array
		src, dst = append(src, 0), append(dst, u*5)
	}
	g.InsertBatch(src, dst)
	if !g.Has(0, 10) || g.Has(0, 11) || !g.Has(0, 100) || g.Has(0, 101) {
		t.Fatal("Has wrong")
	}
	seen := 0
	g.NeighborBlocks(0, func(b []uint32) bool { seen += len(b); return false })
	if seen != inlineCap {
		t.Fatalf("a walk stopped at its first block visited %d neighbors, want the %d inline ones", seen, inlineCap)
	}
}

func TestAppendNeighbors(t *testing.T) {
	g := New(128, Config{})
	g.InsertBatch([]uint32{1, 1}, []uint32{9, 3})
	out := g.AppendNeighbors(1, []uint32{77})
	want := []uint32{77, 3, 9}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("AppendNeighbors got %v", out)
		}
	}
}

func TestMemoryAccounting(t *testing.T) {
	rm := gen.NewRMatPaper(12, 3)
	es := rm.Edges(100000)
	g := New(1<<12, Config{})
	src := make([]uint32, len(es))
	dst := make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	g.InsertBatch(src, dst)
	mem := g.MemoryUsage()
	if mem < g.NumEdges()*4 {
		t.Fatalf("memory %d below raw edge bytes", mem)
	}
	idx := g.IndexMemory()
	if idx == 0 || idx > mem/2 {
		t.Fatalf("index memory implausible: %d of %d", idx, mem)
	}
}

func TestQuickSmallGraphs(t *testing.T) {
	type op struct {
		Ins  bool
		V, U uint8
	}
	f := func(ops []op) bool {
		g := New(256, Config{ArrayMax: 4, M: 16})
		ref := refgraph.New(256)
		for _, o := range ops {
			if o.V == o.U {
				continue
			}
			if o.Ins {
				g.InsertBatch([]uint32{uint32(o.V)}, []uint32{uint32(o.U)})
				ref.Insert(uint32(o.V), uint32(o.U))
			} else {
				g.DeleteBatch([]uint32{uint32(o.V)}, []uint32{uint32(o.U)})
				ref.Delete(uint32(o.V), uint32(o.U))
			}
		}
		if g.NumEdges() != ref.NumEdges() {
			return false
		}
		for v := uint32(0); v < 256; v++ {
			got := neighbors(g, v)
			want := ref.Neighbors(v)
			if len(got) != len(want) {
				return false
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelWorkersProduceSameGraph(t *testing.T) {
	rm := gen.NewRMatPaper(10, 21)
	es := rm.Edges(30000)
	src := make([]uint32, len(es))
	dst := make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	g1 := New(1<<10, Config{Workers: 1})
	g8 := New(1<<10, Config{Workers: 8})
	g1.InsertBatch(src, dst)
	g8.InsertBatch(src, dst)
	if g1.NumEdges() != g8.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", g1.NumEdges(), g8.NumEdges())
	}
	for v := uint32(0); v < g1.NumVertices(); v++ {
		a, b := neighbors(g1, v), neighbors(g8, v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d neighbor counts differ", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d neighbors differ at %d", v, i)
			}
		}
	}
}
