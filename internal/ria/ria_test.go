package ria

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// checkInvariants validates the structural invariants documented on RIA.
func checkInvariants(t *testing.T, r *RIA) {
	t.Helper()
	total := 0
	var prev int64 = -1
	for b := 0; b < r.NumBlocks(); b++ {
		c := int(r.cnt[b])
		if r.n > 0 && c == 0 {
			t.Fatalf("block %d empty while n=%d", b, r.n)
		}
		base := b * BlockSize
		for i := 0; i < c; i++ {
			v := int64(r.data[base+i])
			if v <= prev {
				t.Fatalf("order violated at block %d slot %d: %d after %d", b, i, v, prev)
			}
			prev = v
		}
		if c > 0 && r.index[b] != r.data[base] {
			t.Fatalf("index[%d]=%d but first=%d", b, r.index[b], r.data[base])
		}
		total += c
	}
	if total != r.Len() {
		t.Fatalf("count mismatch: sum=%d n=%d", total, r.Len())
	}
}

func collect(r *RIA) []uint32 { return r.AppendTo(nil) }

func TestEmpty(t *testing.T) {
	r := New(1.2)
	if r.Len() != 0 || r.Has(5) || r.Delete(5) {
		t.Fatal("empty RIA misbehaves")
	}
	if !r.Insert(7) || r.Len() != 1 || !r.Has(7) {
		t.Fatal("first insert failed")
	}
	checkInvariants(t, r)
}

func TestBulkLoad(t *testing.T) {
	for _, n := range []int{1, 2, 15, 16, 17, 100, 1000, 5000} {
		ns := make([]uint32, n)
		for i := range ns {
			ns[i] = uint32(i * 3)
		}
		r := BulkLoad(ns, 1.2)
		if r.Len() != n {
			t.Fatalf("n=%d Len=%d", n, r.Len())
		}
		checkInvariants(t, r)
		got := collect(r)
		for i := range ns {
			if got[i] != ns[i] {
				t.Fatalf("n=%d traverse mismatch at %d", n, i)
			}
		}
		if r.Min() != 0 || r.Max() != uint32((n-1)*3) {
			t.Fatalf("min/max wrong for n=%d", n)
		}
	}
}

func TestInsertRandomAgainstSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := New(1.2)
	model := map[uint32]bool{}
	for i := 0; i < 20000; i++ {
		u := uint32(rng.Intn(30000))
		isNew := r.Insert(u)
		if isNew == model[u] {
			t.Fatalf("insert(%d) returned %v but present=%v", u, isNew, model[u])
		}
		model[u] = true
	}
	checkInvariants(t, r)
	want := make([]uint32, 0, len(model))
	for u := range model {
		want = append(want, u)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := collect(r)
	if len(got) != len(want) {
		t.Fatalf("len got %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestInsertAscendingDescending(t *testing.T) {
	r := New(1.2)
	for i := 0; i < 5000; i++ {
		r.Insert(uint32(i))
	}
	checkInvariants(t, r)
	r2 := New(1.2)
	for i := 5000; i > 0; i-- {
		r2.Insert(uint32(i))
	}
	checkInvariants(t, r2)
	if r.Len() != 5000 || r2.Len() != 5000 {
		t.Fatal("monotone insert lost elements")
	}
}

func TestDeleteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ns := make([]uint32, 3000)
	for i := range ns {
		ns[i] = uint32(i * 2)
	}
	r := BulkLoad(ns, 1.2)
	perm := rng.Perm(len(ns))
	for k, pi := range perm {
		u := ns[pi]
		if !r.Delete(u) {
			t.Fatalf("delete(%d) failed", u)
		}
		if r.Delete(u) {
			t.Fatalf("double delete(%d) succeeded", u)
		}
		if r.Has(u) {
			t.Fatalf("%d still present after delete", u)
		}
		if r.Len() != len(ns)-k-1 {
			t.Fatalf("len wrong after %d deletes", k+1)
		}
		if k%100 == 0 {
			checkInvariants(t, r)
		}
	}
	if r.Len() != 0 {
		t.Fatal("not empty after deleting all")
	}
}

// TestDeleteShrinks checks that an RIA's footprint follows its size down:
// across a random drain, in front-to-back and back-to-front order, the array
// never holds more than twice the blocks an α-amplified load of its current
// elements would, it ends on a single block, the halvings are few enough to
// be amortized, and the contents survive every reload.
func TestDeleteShrinks(t *testing.T) {
	const n = 4000
	ns := make([]uint32, n)
	for i := range ns {
		ns[i] = uint32(3 * i)
	}
	orders := map[string][]int{"random": rand.New(rand.NewSource(5)).Perm(n), "front": make([]int, n), "back": make([]int, n)}
	for i := 0; i < n; i++ {
		orders["front"][i], orders["back"][i] = i, n-1-i
	}
	for name, order := range orders {
		for _, alpha := range []float64{1.05, 1.2, 2.0} {
			r := BulkLoad(ns, alpha)
			live := map[uint32]bool{}
			for _, u := range ns {
				live[u] = true
			}
			shrinks, blocks := 0, r.NumBlocks()
			for k, i := range order {
				if !r.Delete(ns[i]) {
					t.Fatalf("%s, α=%g: delete(%d) failed", name, alpha, ns[i])
				}
				delete(live, ns[i])
				if nb := r.NumBlocks(); 2*nb <= blocks {
					shrinks, blocks = shrinks+1, nb
				}
				if want := r.blocksFor(r.Len()); r.NumBlocks() >= 2*want {
					t.Fatalf("%s, α=%g: %d blocks for %d elements, a fresh load takes %d", name, alpha, r.NumBlocks(), r.Len(), want)
				}
				if k%97 == 0 || r.Len() < 40 {
					if err := r.CheckInvariants(); err != nil {
						t.Fatalf("%s, α=%g, after %d deletes: %v", name, alpha, k+1, err)
					}
					requireBlocks(t, r, live)
				}
			}
			if r.NumBlocks() != 1 || r.Len() != 0 {
				t.Fatalf("%s, α=%g: drained array keeps %d blocks, %d elements", name, alpha, r.NumBlocks(), r.Len())
			}
			if shrinks == 0 || shrinks > 12 {
				t.Fatalf("%s, α=%g: %d shrinks draining %d elements; want a logarithmic handful", name, alpha, shrinks, n)
			}
			for _, u := range ns[:100] { // and it grows again from there
				r.Insert(u)
			}
			if err := r.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestDeleteAbsent(t *testing.T) {
	r := BulkLoad([]uint32{2, 4, 6, 8}, 1.2)
	for _, u := range []uint32{0, 1, 3, 5, 7, 9, 100} {
		if r.Delete(u) {
			t.Fatalf("deleted absent %d", u)
		}
	}
	if r.Len() != 4 {
		t.Fatal("len changed by absent deletes")
	}
}

func TestDeleteMin(t *testing.T) {
	ns := []uint32{5, 10, 15, 20, 25}
	r := BulkLoad(ns, 1.2)
	for _, want := range ns {
		if got := r.DeleteMin(); got != want {
			t.Fatalf("DeleteMin got %d want %d", got, want)
		}
	}
	if r.Len() != 0 {
		t.Fatal("DeleteMin left residue")
	}
}

func TestMixedQuick(t *testing.T) {
	type op struct {
		Ins bool
		U   uint16
	}
	f := func(ops []op) bool {
		r := New(1.2)
		model := map[uint32]bool{}
		for _, o := range ops {
			u := uint32(o.U)
			if o.Ins {
				if r.Insert(u) == model[u] {
					return false
				}
				model[u] = true
			} else {
				if r.Delete(u) != model[u] {
					return false
				}
				delete(model, u)
			}
		}
		if r.Len() != len(model) {
			return false
		}
		got := collect(r)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendTo(t *testing.T) {
	r := BulkLoad([]uint32{3, 6, 9}, 1.2)
	out := r.AppendTo([]uint32{1})
	want := []uint32{1, 3, 6, 9}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("AppendTo got %v", out)
		}
	}
}

func TestMovedCounterAdvances(t *testing.T) {
	r := New(1.2)
	for i := 0; i < 1000; i++ {
		r.Insert(uint32(1000 - i)) // descending worst case for movement
	}
	if r.Moved == 0 {
		t.Fatal("Moved counter never advanced")
	}
}

func TestMemoryAccounting(t *testing.T) {
	r := BulkLoad(make([]uint32, 1000), 1.2) // zeros are fine for memory math
	// 1000*1.2 = 1200 -> 75 blocks exactly.
	if r.Memory() < 4800 || r.IndexMemory() == 0 {
		t.Fatalf("memory accounting implausible: mem=%d idx=%d", r.Memory(), r.IndexMemory())
	}
	if r.IndexMemory() != uint64(r.NumBlocks()*4) {
		t.Fatal("index memory must be 4 bytes per block")
	}
	// Data, index and counts are 64+4+2 bytes a block; the rest is the
	// header, at its real size.
	if hdr := r.Memory() - uint64(r.NumBlocks())*70; hdr != uint64(unsafe.Sizeof(RIA{})) {
		t.Fatalf("header counted as %d bytes, the struct is %d", hdr, unsafe.Sizeof(RIA{}))
	}
}

func TestAlphaControlsCapacity(t *testing.T) {
	ns := make([]uint32, 10000)
	for i := range ns {
		ns[i] = uint32(i)
	}
	small := BulkLoad(ns, 1.1)
	big := BulkLoad(ns, 2.0)
	if big.Memory() <= small.Memory() {
		t.Fatalf("alpha=2.0 (%d B) should use more memory than alpha=1.1 (%d B)",
			big.Memory(), small.Memory())
	}
}
