package ria

import (
	"math/rand"
	"slices"
	"testing"

	"lsgraph/internal/engine"
)

// requireBlocks checks r's block walk against the model set: non-empty
// blocks, strictly ascending across block boundaries, early stop honoured,
// and exactly the model's Len() elements (engine.CheckBlocks).
func requireBlocks(t *testing.T, r *RIA, model map[uint32]bool) {
	t.Helper()
	want := make([]uint32, 0, len(model))
	for u := range model {
		want = append(want, u)
	}
	slices.Sort(want)
	requireBlocksEqual(t, r, want)
}

func requireBlocksEqual(t *testing.T, r *RIA, want []uint32) {
	t.Helper()
	if r.Len() != len(want) {
		t.Fatalf("Len %d, model %d", r.Len(), len(want))
	}
	if err := engine.CheckBlocks(func(y func([]uint32) bool) { r.Blocks(y) }, want); err != nil {
		t.Fatal(err)
	}
}

// TestBlocksMatchTraverseUnderChurn drives an RIA through randomized
// insert/delete churn — producing gapped, partially full, and coalescible
// block states — and checks the block walk against the live set after
// every step.
func TestBlocksMatchTraverseUnderChurn(t *testing.T) {
	for _, alpha := range []float64{1.05, 1.2, 2.0} {
		rng := rand.New(rand.NewSource(int64(alpha * 1000)))
		r := New(alpha)
		live := make(map[uint32]bool)
		for step := 0; step < 3000; step++ {
			u := uint32(rng.Intn(4096))
			if live[u] && rng.Intn(3) == 0 {
				r.Delete(u)
				delete(live, u)
			} else {
				r.Insert(u)
				live[u] = true
			}
			if step%50 == 0 || step > 2900 {
				requireBlocks(t, r, live)
				checkInvariants(t, r)
			}
		}
		requireBlocks(t, r, live)
	}
}

// TestBlocksEarlyStop checks that returning false stops the iteration at
// that block and propagates false.
func TestBlocksEarlyStop(t *testing.T) {
	r := New(1.2)
	for i := 0; i < 500; i++ {
		r.Insert(uint32(i * 7))
	}
	calls := 0
	if r.Blocks(func(bs []uint32) bool {
		calls++
		return false
	}) {
		t.Fatal("Blocks returned true after yield returned false")
	}
	if calls != 1 {
		t.Fatalf("yield called %d times after returning false", calls)
	}
	// A full run returns true.
	if !r.Blocks(func([]uint32) bool { return true }) {
		t.Fatal("uninterrupted Blocks returned false")
	}
}

// TestBlocksCoalesceFullRuns checks the locality property the read path
// is for: runs of completely full blocks are contiguous in the backing
// array (the gap at each block's back has size zero), so they must come
// out as one long yield, extending through the partial block that ends
// the run — not one yield per 16-element block. The RIA is handcrafted
// (white box) so the expected segmentation is known exactly.
func TestBlocksCoalesceFullRuns(t *testing.T) {
	// Block layout: full, full, 5, full, 2, 1 → three maximal runs of
	// lengths 37 (two full blocks + the partial ending the run), 18, 1.
	counts := []int{BlockSize, BlockSize, 5, BlockSize, 2, 1}
	r := &RIA{
		data:  make([]uint32, len(counts)*BlockSize),
		index: make([]uint32, len(counts)),
		cnt:   make([]uint16, len(counts)),
		alpha: DefaultAlpha,
	}
	next := uint32(0)
	for b, c := range counts {
		for i := 0; i < c; i++ {
			r.data[b*BlockSize+i] = next
			next++
		}
		r.index[b] = r.data[b*BlockSize]
		r.cnt[b] = uint16(c)
		r.n += c
	}
	checkInvariants(t, r)
	var lens []int
	all := make([]uint32, next)
	for i := range all {
		all[i] = uint32(i)
	}
	requireBlocksEqual(t, r, all)
	r.Blocks(func(bs []uint32) bool {
		lens = append(lens, len(bs))
		return true
	})
	want := []int{2*BlockSize + 5, BlockSize + 2, 1}
	if len(lens) != len(want) {
		t.Fatalf("got %d yields %v, want %v", len(lens), lens, want)
	}
	for i := range want {
		if lens[i] != want[i] {
			t.Fatalf("yield %d has length %d, want %d (%v)", i, lens[i], want[i], lens)
		}
	}
}
