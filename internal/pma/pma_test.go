package pma

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"lsgraph/internal/engine"
)

func collect32(p *PMA[uint32]) []uint32 { return p.AppendTo(nil) }

func checkSorted(t *testing.T, p *PMA[uint32]) {
	t.Helper()
	got := collect32(p)
	if len(got) != p.Len() {
		t.Fatalf("traverse yields %d, Len=%d", len(got), p.Len())
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("unsorted at %d: %d then %d", i, got[i-1], got[i])
		}
	}
	// The per-vertex PMA ablation reads through Blocks: same elements, as
	// maximal runs of present slots.
	if err := engine.CheckBlocks(func(y func([]uint32) bool) { p.Blocks(y) }, got); err != nil {
		t.Fatal(err)
	}
}

func TestEmpty(t *testing.T) {
	p := New[uint32]()
	if p.Len() != 0 || p.Has(1) || p.Delete(1) {
		t.Fatal("empty PMA misbehaves")
	}
}

func TestInsertBasics(t *testing.T) {
	p := New[uint32]()
	if !p.Insert(5) || p.Insert(5) {
		t.Fatal("insert duplicate semantics")
	}
	if !p.Has(5) || p.Has(6) {
		t.Fatal("has semantics")
	}
	for i := uint32(0); i < 100; i++ {
		p.Insert(i * 2)
	}
	checkSorted(t, p)
}

func TestInsertRandomMany(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := New[uint32]()
	model := map[uint32]bool{}
	for i := 0; i < 30000; i++ {
		u := uint32(rng.Intn(60000))
		if p.Insert(u) == model[u] {
			t.Fatalf("insert(%d) disagreed with model", u)
		}
		model[u] = true
	}
	if p.Len() != len(model) {
		t.Fatalf("Len=%d model=%d", p.Len(), len(model))
	}
	checkSorted(t, p)
	for u := range model {
		if !p.Has(u) {
			t.Fatalf("missing %d", u)
		}
	}
}

func TestInsertMonotone(t *testing.T) {
	p := New[uint32]()
	for i := uint32(0); i < 10000; i++ {
		if !p.Insert(i) {
			t.Fatalf("ascending insert %d failed", i)
		}
	}
	checkSorted(t, p)
	q := New[uint32]()
	for i := uint32(10000); i > 0; i-- {
		if !q.Insert(i) {
			t.Fatalf("descending insert %d failed", i)
		}
	}
	checkSorted(t, q)
}

func TestBulkLoad(t *testing.T) {
	for _, n := range []int{0, 1, 10, 1000, 10000} {
		ks := make([]uint32, n)
		for i := range ks {
			ks[i] = uint32(i * 5)
		}
		p := BulkLoad(ks)
		if p.Len() != n {
			t.Fatalf("n=%d Len=%d", n, p.Len())
		}
		got := collect32(p)
		for i := range ks {
			if got[i] != ks[i] {
				t.Fatalf("n=%d mismatch at %d", n, i)
			}
		}
	}
}

func TestDelete(t *testing.T) {
	ks := make([]uint32, 1000)
	for i := range ks {
		ks[i] = uint32(i)
	}
	p := BulkLoad(ks)
	rng := rand.New(rand.NewSource(2))
	for _, pi := range rng.Perm(1000) {
		if !p.Delete(uint32(pi)) || p.Delete(uint32(pi)) {
			t.Fatalf("delete(%d) semantics", pi)
		}
	}
	if p.Len() != 0 {
		t.Fatal("residue after deleting all")
	}
}

func TestTraverseRange(t *testing.T) {
	p := BulkLoad([]uint32{2, 4, 6, 8, 10, 12})
	var got []uint32
	p.TraverseRange(4, 10, func(k uint32) { got = append(got, k) })
	want := []uint32{4, 6, 8}
	if len(got) != len(want) {
		t.Fatalf("range got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range got %v want %v", got, want)
		}
	}
}

func TestMinDeleteMin(t *testing.T) {
	p := BulkLoad([]uint32{7, 9, 11})
	if p.Min() != 7 {
		t.Fatal("Min")
	}
	if p.DeleteMin() != 7 || p.DeleteMin() != 9 || p.DeleteMin() != 11 {
		t.Fatal("DeleteMin order")
	}
}

func TestUint64Keys(t *testing.T) {
	p := New[uint64]()
	keys := []uint64{1 << 40, 5, 1<<33 + 7, 1 << 20}
	for _, k := range keys {
		p.Insert(k)
	}
	got := p.AppendTo(nil)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("uint64 unsorted: %v", got)
	}
	if p.Memory() < uint64(p.Capacity()*8) {
		t.Fatal("uint64 memory accounting wrong element size")
	}
}

func TestStatsAdvance(t *testing.T) {
	p := New[uint32]()
	for i := 0; i < 5000; i++ {
		p.Insert(uint32(i * 7 % 5000))
	}
	if p.Stats.SearchProbes == 0 || p.Stats.Moved == 0 || p.Stats.Redistributions == 0 {
		t.Fatalf("stats did not advance: %+v", p.Stats)
	}
}

func TestTerraceDensityUsesMoreMemory(t *testing.T) {
	ks := make([]uint32, 20000)
	for i := range ks {
		ks[i] = uint32(i)
	}
	dflt := BulkLoad(ks)
	loose := BulkLoad(ks, WithTerraceDensity[uint32]())
	if loose.Capacity() <= dflt.Capacity() {
		t.Fatalf("terrace density should over-provision: %d vs %d",
			loose.Capacity(), dflt.Capacity())
	}
}

func TestQuickAgainstModel(t *testing.T) {
	type op struct {
		Ins bool
		U   uint16
	}
	f := func(ops []op) bool {
		p := New[uint32]()
		model := map[uint32]bool{}
		for _, o := range ops {
			u := uint32(o.U)
			if o.Ins {
				if p.Insert(u) == model[u] {
					return false
				}
				model[u] = true
			} else {
				if p.Delete(u) != model[u] {
					return false
				}
				delete(model, u)
			}
		}
		if p.Len() != len(model) {
			return false
		}
		got := collect32(p)
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
