package serve

import (
	"testing"

	"lsgraph/internal/core"
)

// requireViewBlocksMatch checks the composed view's block path against
// its per-element surface for every vertex.
func requireViewBlocksMatch(t *testing.T, v *View) {
	t.Helper()
	n := v.NumVertices()
	for u := uint32(0); u < n; u++ {
		want := v.Neighbors(u)
		var got []uint32
		v.NeighborBlocks(u, func(bs []uint32) bool {
			if len(bs) == 0 {
				t.Fatalf("view vertex %d: empty block yielded", u)
			}
			got = append(got, bs...)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("view vertex %d: blocks yield %d neighbors, Neighbors %d", u, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("view vertex %d: blocks diverge at %d: %d want %d", u, i, got[i], want[i])
			}
		}
	}
}

// TestViewNeighborBlocksUnderIngest pins composed views while batches are
// still being enqueued and checks that each pinned view's block path
// matches its own per-element surface (snapshot isolation: later batches
// must not leak into either path), across shard counts.
func TestViewNeighborBlocksUnderIngest(t *testing.T) {
	const n = 256
	for _, shards := range []int{1, 3} {
		st := New(core.NewPaged(n, shards, 2), Options{MaxQueue: 2})
		var views []*View
		for round := 0; round < 8; round++ {
			var src, dst []uint32
			for i := 0; i < 400; i++ {
				s := uint32((round*400 + i) % n)
				d := uint32((round*137 + i*31) % n)
				src = append(src, s)
				dst = append(dst, d)
			}
			st.InsertBatch(src, dst)
			views = append(views, st.View()) // pinned mid-ingest
		}
		st.Flush()
		for _, v := range views {
			requireViewBlocksMatch(t, v)
			v.Release()
		}
		// The store's own convenience surface routes per call; after a
		// flush it must agree with a fresh view.
		v := st.View()
		for u := uint32(0); u < n; u++ {
			want := v.Neighbors(u)
			var got []uint32
			st.NeighborBlocks(u, func(bs []uint32) bool {
				got = append(got, bs...)
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("store vertex %d: blocks yield %d neighbors, view %d", u, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("store vertex %d: blocks diverge at %d", u, i)
				}
			}
		}
		v.Release()
		st.Close()
	}
}
