package engine

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// sliceGraph is a Graph over fixed block lists, so a test can hand
// CheckBlocks any segmentation, including malformed ones.
type sliceGraph [][][]uint32

func (g sliceGraph) NumVertices() uint32 { return uint32(len(g)) }
func (g sliceGraph) NumEdges() uint64    { return 0 }
func (g sliceGraph) Degree(v uint32) (d uint32) {
	for _, b := range g[v] {
		d += uint32(len(b))
	}
	return d
}
func (g sliceGraph) NeighborBlocks(v uint32, yield func([]uint32) bool) {
	for _, b := range g[v] {
		if !yield(b) {
			return
		}
	}
}

func (g sliceGraph) NeighborRange(lo, hi uint32, yield func(uint32, []uint32) bool) {
	for v := lo; v < min(hi, g.NumVertices()); v++ {
		if !g.walkOne(v, yield) {
			return
		}
	}
}

// walkOne yields v's blocks as NeighborRange does, reporting whether the
// walk may go on.
func (g sliceGraph) walkOne(v uint32, yield func(uint32, []uint32) bool) bool {
	if len(g[v]) == 0 {
		return yield(v, nil)
	}
	for _, b := range g[v] {
		if !yield(v, b) {
			return false
		}
	}
	return true
}

// rangeGraph is a sliceGraph whose NeighborRange is replaced, so a test
// can hand CheckRange a walk that breaks one clause of the contract.
type rangeGraph struct {
	sliceGraph
	walk func(g sliceGraph, lo, hi uint32, yield func(uint32, []uint32) bool)
}

func (g rangeGraph) NeighborRange(lo, hi uint32, yield func(uint32, []uint32) bool) {
	g.walk(g.sliceGraph, lo, hi, yield)
}

// TestCheckRangeRejectsEachViolation feeds CheckRange one NeighborRange per
// clause of the contract it states.
func TestCheckRangeRejectsEachViolation(t *testing.T) {
	g := sliceGraph{{{1, 2}, {5}}, nil, {{0}}, {{1}, {2}, {3}}, nil, {{4, 5}}}
	if err := CheckRange(g); err != nil {
		t.Fatalf("a correct walk is rejected: %v", err)
	}
	if err := CheckRange(sliceGraph{}); err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	type walkFn = func(g sliceGraph, lo, hi uint32, yield func(uint32, []uint32) bool)
	// each walks [lo, min(hi, n)) with one per-vertex step.
	each := func(step func(g sliceGraph, v uint32, yield func(uint32, []uint32) bool) bool) walkFn {
		return func(g sliceGraph, lo, hi uint32, yield func(uint32, []uint32) bool) {
			for v := lo; v < min(hi, g.NumVertices()); v++ {
				if !step(g, v, yield) {
					return
				}
			}
		}
	}
	for _, tc := range []struct {
		name string
		walk walkFn
		err  string
	}{
		{"skips an empty vertex", each(func(g sliceGraph, v uint32, yield func(uint32, []uint32) bool) bool {
			return len(g[v]) == 0 || g.walkOne(v, yield)
		}), ", want"},
		{"empty vertex twice", each(func(g sliceGraph, v uint32, yield func(uint32, []uint32) bool) bool {
			return (len(g[v]) > 0 || yield(v, nil)) && g.walkOne(v, yield)
		}), ", want"},
		{"merges blocks", each(func(g sliceGraph, v uint32, yield func(uint32, []uint32) bool) bool {
			return yield(v, Neighbors(g, v))
		}), "block"},
		{"ignores stop", each(func(g sliceGraph, v uint32, yield func(uint32, []uint32) bool) bool {
			g.walkOne(v, yield)
			return true
		}), "returned false"},
		{"descending", func(g sliceGraph, lo, hi uint32, yield func(uint32, []uint32) bool) {
			for v := min(hi, g.NumVertices()); v > lo && g.walkOne(v-1, yield); v-- {
			}
		}, ", want"},
		{"ignores lo", func(g sliceGraph, _, hi uint32, yield func(uint32, []uint32) bool) {
			g.NeighborRange(0, hi, yield)
		}, "past the range"},
		{"past NumVertices", func(g sliceGraph, lo, hi uint32, yield func(uint32, []uint32) bool) {
			g.NeighborRange(lo, hi, yield)
			for v := max(lo, g.NumVertices()); v < min(hi, 64) && yield(v, nil); v++ {
			}
		}, "past the range"},
	} {
		err := CheckRange(rangeGraph{g, tc.walk})
		switch {
		case err == nil:
			t.Errorf("%s: accepted", tc.name)
		case !strings.Contains(err.Error(), tc.err):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.err)
		}
	}
}

func TestHelpersRangeOverBlocks(t *testing.T) {
	g := sliceGraph{{{1, 2}, {5}, {7, 9}}, nil}
	var got []uint32
	ForEachNeighbor(g, 0, func(u uint32) { got = append(got, u) })
	want := []uint32{1, 2, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("ForEachNeighbor visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] || Neighbors(g, 0)[i] != want[i] {
			t.Fatalf("ForEachNeighbor %v, Neighbors %v, want %v", got, Neighbors(g, 0), want)
		}
	}
	if out := Neighbors(g, 1); len(out) != 0 {
		t.Fatalf("Neighbors of an empty vertex returned %v", out)
	}
}

// TestCheckBlocksRejectsEachViolation feeds CheckBlocks one walk per clause
// of the contract it states.
func TestCheckBlocksRejectsEachViolation(t *testing.T) {
	want := []uint32{1, 2, 5, 7}
	fixed := func(blocks ...[]uint32) func(func([]uint32) bool) {
		return func(yield func([]uint32) bool) { sliceGraph{blocks}.NeighborBlocks(0, yield) }
	}
	for _, tc := range []struct {
		name string
		walk func(func([]uint32) bool)
		err  string // "" = must pass
	}{
		{"one block", fixed(want), ""},
		{"three blocks", fixed([]uint32{1}, []uint32{2, 5}, []uint32{7}), ""},
		{"empty block", fixed([]uint32{1, 2}, nil, []uint32{5, 7}), "empty"},
		{"unsorted inside a block", fixed([]uint32{2, 1}, []uint32{5, 7}), "ascending"},
		{"unsorted across blocks", fixed([]uint32{1, 5}, []uint32{2, 7}), "ascending"},
		{"repeat across blocks", fixed([]uint32{1, 2}, []uint32{2, 5, 7}), "ascending"},
		{"short", fixed([]uint32{1, 2}, []uint32{5}), "3 elements"},
		{"wrong element", fixed([]uint32{1, 2}, []uint32{6, 7}), "element 2"},
		{"ignores stop", func(yield func([]uint32) bool) {
			yield(want[:2])
			yield(want[2:])
		}, "returned false"},
	} {
		err := CheckBlocks(tc.walk, want)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.err != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.err != "" && !strings.Contains(err.Error(), tc.err):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.err)
		}
	}
	if err := CheckBlocks(fixed(), nil); err != nil {
		t.Errorf("empty walk against empty want: %v", err)
	}
}

// TestBatchHelpers checks the baselines' shared batch driver against a map:
// keys come out sorted and distinct, every source's group is visited once
// with exactly its keys, and merge/subtract of a group are set union and
// difference.
func TestBatchHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src, dst := make([]uint32, 4000), make([]uint32, 4000)
	want := map[uint32]map[uint32]bool{}
	for i := range src {
		src[i], dst[i] = uint32(rng.Intn(20)), uint32(rng.Intn(300))
		if want[src[i]] == nil {
			want[src[i]] = map[uint32]bool{}
		}
		want[src[i]][dst[i]] = true
	}
	ks := SortedKeys(src, dst, 2)
	if !slices.IsSorted(ks) || len(slices.Compact(slices.Clone(ks))) != len(ks) {
		t.Fatal("keys not strictly ascending")
	}
	old := []uint32{1, 5, 7, 250, 299}
	var mu sync.Mutex
	seen := map[uint32]bool{}
	total := ForEachSourceGroup(ks, 2, func(v uint32, group []uint64) int64 {
		mu.Lock()
		defer mu.Unlock()
		if seen[v] || len(group) != len(want[v]) {
			t.Errorf("source %d: visited twice or %d keys, want %d", v, len(group), len(want[v]))
		}
		seen[v] = true
		var keep []uint32 // old minus the group, by the map
		for _, u := range old {
			if !want[v][u] {
				keep = append(keep, u)
			}
		}
		union, diff := MergeGroup(nil, old, group), SubtractGroup(nil, old, group)
		if !slices.Equal(diff, keep) || !slices.IsSorted(union) || len(union) != len(group)+len(keep) {
			t.Errorf("source %d: diff %v want %v; union of %d entries, want %d sorted", v, diff, keep, len(union), len(group)+len(keep))
		}
		// Into a dst with a prefix and spare room: appended after the prefix.
		dst := append(make([]uint32, 0, 1+len(old)+len(group)), 7)
		if got := MergeGroup(dst, old, group); got[0] != 7 || !slices.Equal(got[1:], union) {
			t.Errorf("source %d: union appended to [7] is %v, want 7 then %v", v, got, union)
		}
		if got := SubtractGroup(dst[:1], old, group); got[0] != 7 || !slices.Equal(got[1:], diff) {
			t.Errorf("source %d: difference appended to [7] is %v, want 7 then %v", v, got, diff)
		}
		return int64(len(group))
	})
	if len(seen) != len(want) || total != int64(len(ks)) {
		t.Fatalf("visited %d sources, sum %d; want %d and %d", len(seen), total, len(want), len(ks))
	}
}
