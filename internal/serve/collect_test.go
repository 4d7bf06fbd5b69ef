//go:build go1.24

// The weak package came with Go 1.24; the module's go line is older, so
// this file builds only with a toolchain that has it.

package serve

import (
	"runtime"
	"testing"
	"weak"
)

// TestClosedStoreIsCollectable holds a Store only weakly once it has served
// views and closed: one collection must free it. A pooled View that kept
// its Store, or a pool inside the Store, which the runtime's list of pools
// holds on to until the second collection, would keep it alive.
func TestClosedStoreIsCollectable(t *testing.T) {
	src, dst, _ := streamGraph(10, 4<<10, 1)
	w := func() weak.Pointer[Store] {
		st := New(pagedFromEdges(1<<10, src, dst, 2), Options{})
		for _, u := range src[:8] {
			v := st.View()
			v.Degree(u)
			v.Release()
		}
		st.NumEdges()
		st.NeighborRange(0, 64, func(uint32, []uint32) bool { return true })
		st.Close()
		return weak.Make(st)
	}()
	runtime.GC()
	if w.Value() != nil {
		t.Fatal("a closed Store whose views were all released survived a collection")
	}
}
