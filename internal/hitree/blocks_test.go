package hitree

import (
	"math/rand"
	"slices"
	"testing"

	"lsgraph/internal/engine"
)

// requireBlocks checks tr's block walk against the model set: non-empty
// blocks, strictly ascending across block boundaries, early stop honoured,
// and exactly the model's Len() elements (engine.CheckBlocks).
func requireBlocks(t *testing.T, tr *Tree, model map[uint32]bool) {
	t.Helper()
	want := make([]uint32, 0, len(model))
	for u := range model {
		want = append(want, u)
	}
	slices.Sort(want)
	if tr.Len() != len(want) {
		t.Fatalf("Len %d, model %d", tr.Len(), len(want))
	}
	if err := engine.CheckBlocks(func(y func([]uint32) bool) { tr.Blocks(y) }, want); err != nil {
		t.Fatal(err)
	}
}

// TestBlocksMatchTraverseUnderChurn churns trees through every node kind
// — plain array leaves, RIA leaves, LIA internal nodes with merged child
// runs and E/B slot mixes, rebuilds, and (DisableModel) bnode internals —
// checking the block walk against the live set throughout.
func TestBlocksMatchTraverseUnderChurn(t *testing.T) {
	for _, disableModel := range []bool{false, true} {
		cfg := smallCfg()
		cfg.DisableModel = disableModel
		rng := rand.New(rand.NewSource(int64(43)))
		tr := New(cfg)
		live := make(map[uint32]bool)
		for step := 0; step < 4000; step++ {
			u := uint32(rng.Intn(8192))
			if live[u] && rng.Intn(3) == 0 {
				tr.Delete(u)
				delete(live, u)
			} else {
				tr.Insert(u)
				live[u] = true
			}
			if step%100 == 0 || step > 3900 {
				requireBlocks(t, tr, live)
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
		requireBlocks(t, tr, live)
	}
}

// TestBlocksBulkLoadedLIA exercises the block walk over a large
// bulk-loaded tree whose root is an LIA (E/B slot typing, merged child
// runs) rather than churn-grown structure.
func TestBlocksBulkLoadedLIA(t *testing.T) {
	cfg := smallCfg()
	ns := make([]uint32, 0, 3000)
	model := make(map[uint32]bool, cap(ns))
	rng := rand.New(rand.NewSource(7))
	next := uint32(0)
	for len(ns) < cap(ns) {
		next += uint32(1 + rng.Intn(5)) // uneven spacing stresses the model
		ns = append(ns, next)
		model[next] = true
	}
	tr := BulkLoad(ns, cfg)
	if !tr.IsLIARoot() {
		t.Fatalf("bulk load of %d elements did not produce an LIA root", len(ns))
	}
	requireBlocks(t, tr, model)
}

// TestBlocksEarlyStop checks that a false return stops the walk.
func TestBlocksEarlyStop(t *testing.T) {
	cfg := smallCfg()
	tr := New(cfg)
	for i := 0; i < 2000; i++ {
		tr.Insert(uint32(i * 3))
	}
	calls := 0
	if tr.Blocks(func(bs []uint32) bool {
		calls++
		return false
	}) {
		t.Fatal("Blocks returned true after yield returned false")
	}
	if calls != 1 {
		t.Fatalf("yield called %d times after returning false", calls)
	}
}
