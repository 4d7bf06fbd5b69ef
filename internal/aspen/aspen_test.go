package aspen

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func collect(n *cnode) []uint32 {
	var out []uint32
	blocksUntil(n, func(b []uint32) bool { out = append(out, b...); return true })
	return out
}

// checkTree validates BST ordering across chunks and size bookkeeping.
func checkTree(t *testing.T, n *cnode) int {
	t.Helper()
	if n == nil {
		return 0
	}
	for i := 1; i < len(n.chunk); i++ {
		if n.chunk[i-1] >= n.chunk[i] {
			t.Fatalf("chunk unsorted: %v", n.chunk)
		}
	}
	ls := checkTree(t, n.left)
	rs := checkTree(t, n.right)
	if n.left != nil {
		lmax := collect(n.left)
		if lmax[len(lmax)-1] >= n.chunk[0] {
			t.Fatalf("left subtree overlaps chunk")
		}
	}
	if n.right != nil && minOf(n.right) <= n.chunk[len(n.chunk)-1] {
		t.Fatalf("right subtree overlaps chunk")
	}
	if n.size != ls+rs+len(n.chunk) {
		t.Fatalf("size %d want %d", n.size, ls+rs+len(n.chunk))
	}
	return n.size
}

func TestBuildSorted(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 33, 100, 5000} {
		ns := make([]uint32, n)
		for i := range ns {
			ns[i] = uint32(i * 3)
		}
		root := build(ns)
		got := collect(root)
		if len(got) != n {
			t.Fatalf("n=%d got %d", n, len(got))
		}
		for i := range ns {
			if got[i] != ns[i] {
				t.Fatalf("n=%d mismatch at %d", n, i)
			}
		}
		checkTree(t, root)
	}
}

func TestInsertRemoveModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var root *cnode
	model := map[uint32]bool{}
	for i := 0; i < 10000; i++ {
		u := uint32(rng.Intn(5000))
		if rng.Intn(3) == 0 {
			var ok bool
			root, ok = remove(root, u)
			if ok != model[u] {
				t.Fatalf("remove(%d) ok=%v model=%v", u, ok, model[u])
			}
			delete(model, u)
		} else {
			var ok bool
			root, ok = insert(root, u)
			if ok == model[u] {
				t.Fatalf("insert(%d) ok=%v model=%v", u, ok, model[u])
			}
			model[u] = true
		}
	}
	checkTree(t, root)
	got := collect(root)
	if len(got) != len(model) {
		t.Fatalf("size %d want %d", len(got), len(model))
	}
	for _, u := range got {
		if !model[u] || !contains(root, u) {
			t.Fatalf("tree/model divergence at %d", u)
		}
	}
}

func TestPersistence(t *testing.T) {
	// Snapshots must be unaffected by later inserts (functional updates).
	ns := make([]uint32, 1000)
	for i := range ns {
		ns[i] = uint32(i * 2)
	}
	snap := build(ns)
	before := collect(snap)
	cur := snap
	for i := 0; i < 500; i++ {
		cur, _ = insert(cur, uint32(i*2+1))
	}
	after := collect(snap)
	if len(after) != len(before) {
		t.Fatal("snapshot length changed")
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatal("snapshot mutated by later insert")
		}
	}
	if len(collect(cur)) != 1500 {
		t.Fatal("new version wrong size")
	}
}

func TestGraphBatchOps(t *testing.T) {
	g := New(16, 2)
	g.InsertBatch([]uint32{1, 1, 2}, []uint32{5, 3, 9})
	if g.NumEdges() != 3 || g.Degree(1) != 2 {
		t.Fatalf("edges=%d deg1=%d", g.NumEdges(), g.Degree(1))
	}
	if !g.Has(1, 5) || g.Has(1, 9) {
		t.Fatal("Has wrong")
	}
	g.DeleteBatch([]uint32{1}, []uint32{5})
	if g.NumEdges() != 2 || g.Has(1, 5) {
		t.Fatal("delete failed")
	}
	if g.MemoryUsage() == 0 {
		t.Fatal("memory zero")
	}
}

func TestQuickSetSemantics(t *testing.T) {
	f := func(ins []uint16, del []uint16) bool {
		var root *cnode
		model := map[uint32]bool{}
		for _, u := range ins {
			root, _ = insert(root, uint32(u))
			model[uint32(u)] = true
		}
		for _, u := range del {
			root, _ = remove(root, uint32(u))
			delete(model, uint32(u))
		}
		got := collect(root)
		if len(got) != len(model) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
