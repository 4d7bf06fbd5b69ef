package pactree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func collect(n *pnode) []uint32 {
	var out []uint32
	blocksUntil(n, func(b []uint32) bool { out = append(out, b...); return true })
	return out
}

// checkNode validates the arrays-only-in-leaves invariant, ordering, and
// size bookkeeping.
func checkNode(t *testing.T, n *pnode) int {
	t.Helper()
	if n == nil {
		return 0
	}
	if n.leaf() {
		if len(n.elems) == 0 {
			t.Fatal("empty leaf retained")
		}
		for i := 1; i < len(n.elems); i++ {
			if n.elems[i-1] >= n.elems[i] {
				t.Fatalf("leaf unsorted: %v", n.elems)
			}
		}
		if n.size != len(n.elems) {
			t.Fatalf("leaf size %d want %d", n.size, len(n.elems))
		}
		return n.size
	}
	if len(n.elems) != 0 {
		t.Fatal("internal node holds elements")
	}
	if len(n.children) != len(n.seps)+1 {
		t.Fatalf("children %d seps %d", len(n.children), len(n.seps))
	}
	total := 0
	for i, c := range n.children {
		cs := collect(c)
		total += checkNode(t, c)
		if len(cs) == 0 {
			continue
		}
		if i > 0 && cs[0] < n.seps[i-1] {
			t.Fatalf("child %d starts %d below sep %d", i, cs[0], n.seps[i-1])
		}
		if i < len(n.seps) && cs[len(cs)-1] >= n.seps[i] {
			t.Fatalf("child %d ends %d at/above sep %d", i, cs[len(cs)-1], n.seps[i])
		}
	}
	if n.size != total {
		t.Fatalf("internal size %d want %d", n.size, total)
	}
	return total
}

func TestBuildTree(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 10000} {
		ns := make([]uint32, n)
		for i := range ns {
			ns[i] = uint32(i * 3)
		}
		root := buildTree(ns)
		got := collect(root)
		if len(got) != n {
			t.Fatalf("n=%d got %d", n, len(got))
		}
		for i := range ns {
			if got[i] != ns[i] {
				t.Fatalf("n=%d mismatch at %d", n, i)
			}
		}
		checkNode(t, root)
	}
}

func TestInsertRemoveModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var root *pnode
	model := map[uint32]bool{}
	for i := 0; i < 20000; i++ {
		u := uint32(rng.Intn(8000))
		if rng.Intn(3) == 0 {
			var ok bool
			root, ok = removeNode(root, u)
			if ok != model[u] {
				t.Fatalf("remove(%d) ok=%v model=%v", u, ok, model[u])
			}
			delete(model, u)
		} else {
			var ok bool
			root, ok = insertNode(root, u)
			if ok == model[u] {
				t.Fatalf("insert(%d) ok=%v model=%v", u, ok, model[u])
			}
			model[u] = true
		}
	}
	checkNode(t, root)
	got := collect(root)
	if len(got) != len(model) {
		t.Fatalf("size %d want %d", len(got), len(model))
	}
	for _, u := range got {
		if !model[u] || !containsNode(root, u) {
			t.Fatalf("divergence at %d", u)
		}
	}
}

func TestPersistence(t *testing.T) {
	ns := make([]uint32, 2000)
	for i := range ns {
		ns[i] = uint32(i * 2)
	}
	snap := buildTree(ns)
	before := collect(snap)
	cur := snap
	for i := 0; i < 1000; i++ {
		cur, _ = insertNode(cur, uint32(i*2+1))
	}
	for i := 0; i < 500; i++ {
		cur, _ = removeNode(cur, uint32(i*2))
	}
	after := collect(snap)
	if len(after) != len(before) {
		t.Fatal("snapshot mutated")
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatal("snapshot mutated")
		}
	}
	if sizeOf(cur) != 2500 {
		t.Fatalf("new version size %d want 2500", sizeOf(cur))
	}
}

func TestGraphBatchOps(t *testing.T) {
	g := New(8, 2)
	g.InsertBatch([]uint32{3, 3, 3}, []uint32{1, 2, 1})
	if g.NumEdges() != 2 || g.Degree(3) != 2 {
		t.Fatalf("edges=%d", g.NumEdges())
	}
	g.DeleteBatch([]uint32{3, 3}, []uint32{1, 7})
	if g.NumEdges() != 1 || g.Has(3, 1) || !g.Has(3, 2) {
		t.Fatal("delete semantics")
	}
	if g.MemoryUsage() == 0 {
		t.Fatal("memory zero")
	}
}

func TestQuickSetSemantics(t *testing.T) {
	f := func(ins []uint16, del []uint16) bool {
		var root *pnode
		model := map[uint32]bool{}
		for _, u := range ins {
			root, _ = insertNode(root, uint32(u))
			model[uint32(u)] = true
		}
		for _, u := range del {
			root, _ = removeNode(root, uint32(u))
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
