package hitree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"lsgraph/internal/gen"
)

// smallCfg forces LIA roots at modest sizes so tests exercise every node
// kind without huge inputs.
func smallCfg() Config {
	return Config{Alpha: 1.2, M: 64, LeafArrayMax: 16, RebuildFactor: 4}
}

func collect(t *Tree) []uint32 { return t.AppendTo(nil) }

func checkSortedMatch(t *testing.T, tr *Tree, model map[uint32]bool) {
	t.Helper()
	got := collect(tr)
	if len(got) != len(model) {
		t.Fatalf("size mismatch: tree=%d model=%d", len(got), len(model))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("traversal unsorted at %d: %d then %d", i, got[i-1], got[i])
		}
	}
	for _, u := range got {
		if !model[u] {
			t.Fatalf("tree contains %d not in model", u)
		}
	}
	if tr.Len() != len(model) {
		t.Fatalf("Len()=%d model=%d", tr.Len(), len(model))
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(smallCfg())
	if tr.Len() != 0 || tr.Has(1) || tr.Delete(1) {
		t.Fatal("empty tree misbehaves")
	}
	if !tr.Insert(42) || !tr.Has(42) || tr.Len() != 1 {
		t.Fatal("first insert failed")
	}
}

func TestBulkLoadKinds(t *testing.T) {
	cfg := smallCfg()
	for _, n := range []int{1, 10, 16, 17, 64, 65, 200, 5000} {
		ns := make([]uint32, n)
		for i := range ns {
			ns[i] = uint32(i * 7)
		}
		tr := BulkLoad(ns, cfg)
		if tr.Len() != n {
			t.Fatalf("n=%d Len=%d", n, tr.Len())
		}
		got := collect(tr)
		for i := range ns {
			if got[i] != ns[i] {
				t.Fatalf("n=%d mismatch at %d: got %d want %d", n, i, got[i], ns[i])
			}
		}
		for _, u := range ns {
			if !tr.Has(u) {
				t.Fatalf("n=%d missing %d", n, u)
			}
		}
		if tr.Has(ns[n-1] + 1) {
			t.Fatal("phantom element")
		}
		if n > cfg.M && !tr.IsLIARoot() {
			t.Fatalf("n=%d should have LIA root", n)
		}
	}
}

func TestInsertGrowsThroughAllKinds(t *testing.T) {
	cfg := smallCfg()
	tr := New(cfg)
	model := map[uint32]bool{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		u := uint32(rng.Intn(100000))
		isNew := tr.Insert(u)
		if isNew == model[u] {
			t.Fatalf("insert(%d): new=%v but model=%v", u, isNew, model[u])
		}
		model[u] = true
	}
	checkSortedMatch(t, tr, model)
	if !tr.IsLIARoot() {
		t.Fatal("3000 elements with M=64 should be an LIA root")
	}
}

func TestSkewedKeysNoRecursionBlowup(t *testing.T) {
	// One extreme outlier makes the regression nearly flat; the fallback
	// must cap recursion with an RIA child rather than diverging.
	cfg := smallCfg()
	ns := make([]uint32, 0, 1000)
	for i := 0; i < 999; i++ {
		ns = append(ns, uint32(i))
	}
	ns = append(ns, 1<<31)
	tr := BulkLoad(ns, cfg)
	if tr.Len() != 1000 {
		t.Fatalf("Len=%d", tr.Len())
	}
	got := collect(tr)
	for i := range ns {
		if got[i] != ns[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestClusteredKeys(t *testing.T) {
	// Tight clusters separated by huge spans stress B-run and child paths.
	cfg := smallCfg()
	var ns []uint32
	for c := 0; c < 10; c++ {
		base := uint32(c) * 400000000
		for i := 0; i < 50; i++ {
			ns = append(ns, base+uint32(i))
		}
	}
	tr := BulkLoad(ns, cfg)
	model := map[uint32]bool{}
	for _, u := range ns {
		model[u] = true
	}
	checkSortedMatch(t, tr, model)
	for _, u := range ns {
		if !tr.Has(u) {
			t.Fatalf("missing %d", u)
		}
	}
}

func TestDeleteEverything(t *testing.T) {
	cfg := smallCfg()
	rng := rand.New(rand.NewSource(4))
	ns := make([]uint32, 2000)
	for i := range ns {
		ns[i] = uint32(i * 3)
	}
	tr := BulkLoad(ns, cfg)
	perm := rng.Perm(len(ns))
	for k, pi := range perm {
		u := ns[pi]
		if !tr.Delete(u) {
			t.Fatalf("delete(%d) failed at step %d", u, k)
		}
		if tr.Delete(u) {
			t.Fatalf("double delete(%d)", u)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("residue after deleting all: %d", tr.Len())
	}
}

func TestMinAndDeleteMin(t *testing.T) {
	cfg := smallCfg()
	ns := []uint32{100, 200, 300, 5, 50}
	tr := New(cfg)
	for _, u := range ns {
		tr.Insert(u)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	for _, want := range ns {
		if tr.Min() != want {
			t.Fatalf("Min=%d want %d", tr.Min(), want)
		}
		if got := tr.DeleteMin(); got != want {
			t.Fatalf("DeleteMin=%d want %d", got, want)
		}
	}
}

func TestMinOnLargeLIA(t *testing.T) {
	cfg := smallCfg()
	ns := make([]uint32, 1000)
	for i := range ns {
		ns[i] = uint32(i + 37)
	}
	tr := BulkLoad(ns, cfg)
	for i := 0; i < 100; i++ {
		want := uint32(i + 37)
		if got := tr.DeleteMin(); got != want {
			t.Fatalf("DeleteMin=%d want %d", got, want)
		}
	}
}

func TestQuickMixedOps(t *testing.T) {
	cfg := smallCfg()
	type op struct {
		Ins bool
		U   uint16
	}
	f := func(ops []op) bool {
		tr := New(cfg)
		model := map[uint32]bool{}
		for _, o := range ops {
			u := uint32(o.U)
			if o.Ins {
				if tr.Insert(u) == model[u] {
					return false
				}
				model[u] = true
			} else {
				if tr.Delete(u) != model[u] {
					return false
				}
				delete(model, u)
			}
		}
		got := collect(tr)
		if len(got) != len(model) || tr.Len() != len(model) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			return false
		}
		for _, u := range got {
			if !model[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeRMatNeighborSet(t *testing.T) {
	// Exercise the structure with a realistic power-law destination set.
	g := gen.NewRMatPaper(18, 7)
	es := g.Edges(20000)
	seen := map[uint32]bool{}
	tr := New(DefaultConfig())
	for _, e := range es {
		isNew := tr.Insert(e.Dst)
		if isNew == seen[e.Dst] {
			t.Fatalf("insert(%d): new=%v seen=%v", e.Dst, isNew, seen[e.Dst])
		}
		seen[e.Dst] = true
	}
	checkSortedMatch(t, tr, seen)
	// Spot-check membership for positives and negatives.
	for u := range seen {
		if !tr.Has(u) {
			t.Fatalf("missing %d", u)
		}
	}
}

func TestMemoryAndIndexMemory(t *testing.T) {
	ns := make([]uint32, 10000)
	for i := range ns {
		ns[i] = uint32(i * 11)
	}
	tr := BulkLoad(ns, DefaultConfig())
	if tr.Memory() < 40000 {
		t.Fatalf("memory implausibly small: %d", tr.Memory())
	}
	if tr.IndexMemory() == 0 || tr.IndexMemory() >= tr.Memory() {
		t.Fatalf("index memory implausible: %d of %d", tr.IndexMemory(), tr.Memory())
	}
}

func TestRebuildKeepsContents(t *testing.T) {
	// Grow far past RebuildFactor × built size and verify nothing is lost.
	cfg := smallCfg()
	ns := make([]uint32, 200)
	for i := range ns {
		ns[i] = uint32(i * 1000)
	}
	tr := BulkLoad(ns, cfg)
	model := map[uint32]bool{}
	for _, u := range ns {
		model[u] = true
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		u := uint32(rng.Intn(1 << 20))
		if tr.Insert(u) == model[u] {
			t.Fatalf("insert(%d) inconsistent", u)
		}
		model[u] = true
	}
	checkSortedMatch(t, tr, model)
}

func TestFitModelMonotone(t *testing.T) {
	ns := []uint32{1, 5, 9, 100, 1000, 5000}
	slope, intercept := fitModel(ns, 100)
	if slope < 0 {
		t.Fatalf("negative slope %f", slope)
	}
	prev := -1.0
	for _, k := range ns {
		p := slope*float64(k) + intercept
		if p < prev {
			t.Fatal("model not monotone")
		}
		prev = p
	}
}
