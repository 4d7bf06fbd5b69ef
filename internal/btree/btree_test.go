package btree

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"lsgraph/internal/engine"
)

func collect(t *Tree) []uint32 { return t.AppendTo(nil) }

func TestEmpty(t *testing.T) {
	var tr Tree
	if tr.Len() != 0 || tr.Has(1) || tr.Delete(1) {
		t.Fatal("empty tree misbehaves")
	}
}

func TestInsertAndHas(t *testing.T) {
	var tr Tree
	if !tr.Insert(5) || tr.Insert(5) {
		t.Fatal("duplicate semantics")
	}
	for i := uint32(0); i < 2000; i++ {
		tr.Insert(i * 3)
	}
	for i := uint32(0); i < 2000; i++ {
		if !tr.Has(i * 3) {
			t.Fatalf("missing %d", i*3)
		}
		if tr.Has(i*3 + 1) {
			t.Fatalf("phantom %d", i*3+1)
		}
	}
}

func TestSortedTraversal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tr Tree
	model := map[uint32]bool{}
	for i := 0; i < 20000; i++ {
		u := uint32(rng.Intn(40000))
		if tr.Insert(u) == model[u] {
			t.Fatalf("insert(%d) disagrees with model", u)
		}
		model[u] = true
	}
	got := collect(&tr)
	if len(got) != len(model) || tr.Len() != len(model) {
		t.Fatalf("size mismatch: %d vs %d", len(got), len(model))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("unsorted at %d", i)
		}
	}
}

func TestDeleteAll(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var tr Tree
	var keys []uint32
	for i := 0; i < 5000; i++ {
		keys = append(keys, uint32(i*7))
		tr.Insert(uint32(i * 7))
	}
	for _, pi := range rng.Perm(len(keys)) {
		u := keys[pi]
		if !tr.Delete(u) {
			t.Fatalf("delete(%d) failed", u)
		}
		if tr.Delete(u) {
			t.Fatalf("double delete(%d)", u)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("residue: %d", tr.Len())
	}
}

func TestDeleteAbsent(t *testing.T) {
	tr := BulkLoad([]uint32{10, 20, 30})
	for _, u := range []uint32{5, 15, 25, 35} {
		if tr.Delete(u) {
			t.Fatalf("deleted absent %d", u)
		}
	}
	if tr.Len() != 3 {
		t.Fatal("len changed")
	}
}

func TestMinDeleteMin(t *testing.T) {
	tr := BulkLoad([]uint32{2, 4, 6, 8})
	for _, want := range []uint32{2, 4, 6, 8} {
		if tr.Min() != want || tr.DeleteMin() != want {
			t.Fatalf("DeleteMin want %d", want)
		}
	}
}

// TestBlocksUnderChurn checks the block walk — leaf key arrays whole,
// internal separator keys one at a time — against the live set while the
// tree grows through splits and shrinks through merges, including early
// stop (engine.CheckBlocks) and the reported completion.
func TestBlocksUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var tr Tree
	live := map[uint32]bool{}
	for step := 0; step < 6000; step++ {
		u := uint32(rng.Intn(4096))
		if step > 3000 && rng.Intn(3) > 0 {
			tr.Delete(u)
			delete(live, u)
		} else {
			tr.Insert(u)
			live[u] = true
		}
		if step%100 != 0 {
			continue
		}
		want := make([]uint32, 0, len(live))
		for k := range live {
			want = append(want, k)
		}
		slices.Sort(want)
		if tr.Len() != len(want) {
			t.Fatalf("step %d: Len %d, model %d", step, tr.Len(), len(want))
		}
		if err := engine.CheckBlocks(func(y func([]uint32) bool) { tr.Blocks(y) }, want); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if tr.Blocks(func([]uint32) bool { return false }) {
		t.Fatal("Blocks reported completion after yield returned false")
	}
	if !tr.Blocks(func([]uint32) bool { return true }) {
		t.Fatal("uninterrupted Blocks reported an early stop")
	}
}

func TestQuickAgainstModel(t *testing.T) {
	type op struct {
		Ins bool
		U   uint16
	}
	f := func(ops []op) bool {
		var tr Tree
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
		got := collect(&tr)
		if len(got) != len(model) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMemory(t *testing.T) {
	tr := BulkLoad(make([]uint32, 0))
	for i := uint32(0); i < 1000; i++ {
		tr.Insert(i)
	}
	if tr.Memory() < 4000 {
		t.Fatalf("memory %d implausible", tr.Memory())
	}
}
