package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lsgraph/internal/gen"
	"lsgraph/internal/refgraph"
)

func TestBatchLengthMismatchPanics(t *testing.T) {
	g := New(16, Config{})
	for _, tc := range []struct {
		op string
		f  func()
	}{
		{"InsertBatch", func() { g.InsertBatch([]uint32{1, 2}, []uint32{3}) }},
		{"DeleteBatch", func() { g.DeleteBatch([]uint32{1}, []uint32{2, 3}) }},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: no panic on mismatched lengths", tc.op)
				}
				msg, ok := r.(string)
				if !ok {
					t.Fatalf("%s: panic value %T, want string", tc.op, r)
				}
				for _, want := range []string{tc.op, "src/dst length mismatch"} {
					if !strings.Contains(msg, want) {
						t.Fatalf("%s: panic %q missing %q", tc.op, msg, want)
					}
				}
			}()
			tc.f()
		}()
	}
}

// batchShape is one update batch on a vertex space of its own, built to
// stress a corner of the range partition.
type batchShape struct {
	name     string
	nv       uint32
	src, dst []uint32
}

// batchShapes returns the shapes the partition must get right: sources
// clustered in one narrow window at the top of the ID space (the ranges must
// come from the bits that vary, not from the vertex space), one hub owning
// half the batch (an indivisible range next to divisible ones), nothing but
// duplicates (no varying bit at all), the sizes around the parallel
// threshold, fewer vertices than ranges, a vertex count that is not a power
// of two, and a bulk load whose fan-out hits the range cap.
func batchShapes() []batchShape {
	rng := rand.New(rand.NewSource(17))
	random := func(name string, nv uint32, k int, lo, hi uint32) batchShape {
		sh := batchShape{name: name, nv: nv}
		sh.src, sh.dst = randomBatch(rng, k, lo, hi, nv)
		return sh
	}
	const nv = 1 << 15
	shapes := []batchShape{
		random("window-top", nv, 20000, nv-128, nv),
		random("parPrepMin-1", nv, parPrepMin-1, 0, nv),
		random("parPrepMin", nv, parPrepMin, 0, nv),
		random("parPrepMin+1", nv, parPrepMin+1, 0, nv),
		random("few-vertices", 6, 20000, 0, 6),
		random("not-power-of-two", 3001, 30000, 0, 3001),
	}
	hub := random("hub-half", nv, 20000, 0, nv)
	for i := 0; i < len(hub.src); i += 2 {
		hub.src[i] = 12345
	}
	dup := batchShape{name: "all-duplicates", nv: nv, src: make([]uint32, 10000), dst: make([]uint32, 10000)}
	for i := range dup.src {
		dup.src[i], dup.dst[i] = 777, 4242
	}
	bulk := batchShape{name: "bulk-0.6M", nv: nv}
	for _, e := range gen.NewRMatPaper(15, 5).Edges(600_000) {
		bulk.src, bulk.dst = append(bulk.src, e.Src), append(bulk.dst, e.Dst)
	}
	return append(shapes, hub, dup, bulk)
}

// sources returns the distinct values of src, ascending.
func sources(src []uint32) []uint32 {
	out := slices.Clone(src)
	slices.Sort(out)
	return slices.Compact(out)
}

// TestBatchShapesMatchOracle applies every shape, then deletes every third
// edge of it, with 1, 2 and 4 workers, and checks the graph against the
// reference implementation after each of the two.
func TestBatchShapesMatchOracle(t *testing.T) {
	for _, shape := range batchShapes() {
		ref := refgraph.New(shape.nv)
		for i := range shape.src {
			ref.Insert(shape.src[i], shape.dst[i])
		}
		var dsrc, ddst []uint32
		for i := 0; i < len(shape.src); i += 3 {
			dsrc, ddst = append(dsrc, shape.src[i]), append(ddst, shape.dst[i])
		}
		refDel := refgraph.New(shape.nv)
		for v := uint32(0); v < shape.nv; v++ {
			for _, u := range ref.Neighbors(v) {
				refDel.Insert(v, u)
			}
		}
		for i := range dsrc {
			refDel.Delete(dsrc[i], ddst[i])
		}
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/p=%d", shape.name, p), func(t *testing.T) {
				g := New(shape.nv, Config{Workers: p})
				g.InsertBatch(shape.src, shape.dst)
				checkAgainstOracle(t, g, ref)
				g.DeleteBatch(dsrc, ddst)
				checkAgainstOracle(t, g, refDel)
			})
		}
	}
}

// TestOneVertexOneWorker checks §5's invariant on the range-partitioned
// schedule: every source vertex's group reaches apply exactly once, whole,
// and so from exactly one worker — on a skewed rMat batch and on a batch
// whose sources all sit in the top 128-vertex window, which more than one
// worker must share (ranges are cut from the bits that vary in the batch; a
// partition by vertex-space position would hand the window to one worker).
func TestOneVertexOneWorker(t *testing.T) {
	const nv = 1 << 15
	rng := rand.New(rand.NewSource(7))
	wsrc, wdst := randomBatch(rng, 20000, nv-128, nv, nv)
	var rsrc, rdst []uint32
	for _, e := range gen.NewRMatPaper(15, 7).Edges(100000) {
		rsrc, rdst = append(rsrc, e.Src), append(rdst, e.Dst)
	}
	for _, tc := range []struct {
		name     string
		src, dst []uint32
	}{{"window-top", wsrc, wdst}, {"rmat", rsrc, rdst}} {
		g := New(nv, Config{Workers: 4})
		sh := &g.pc
		want := map[uint32]int{} // vertex -> distinct edges in the batch
		seen := map[uint64]bool{}
		for i := range tc.src {
			if k := uint64(tc.src[i])<<32 | uint64(tc.dst[i]); !seen[k] {
				seen[k] = true
				want[tc.src[i]]++
			}
		}

		var mu sync.Mutex
		worker := map[uint32]int{}               // vertex -> applying worker
		first, second := -1, make(chan struct{}) // closed once a second worker applies
		var once sync.Once
		sh.applyBatch(nv, tc.src, tc.dst, 4, func(w int, _ *keyRange, _ int, lv uint32, ks []uint64) uint64 {
			v := uint32(ks[0] >> 32)
			mu.Lock()
			if prev, dup := worker[v]; dup {
				t.Errorf("%s: vertex %d applied twice, by workers %d and %d", tc.name, v, prev, w)
			}
			worker[v] = w
			wait := first == -1
			if wait {
				first = w
			} else if w != first {
				once.Do(func() { close(second) })
			}
			mu.Unlock()
			if lv != v || len(ks) != want[v] || !slices.IsSorted(ks) {
				t.Errorf("%s: vertex %d got %d keys (sorted %v), want its %d distinct edges",
					tc.name, v, len(ks), slices.IsSorted(ks), want[v])
			}
			if wait {
				// Hold the first group until another worker has claimed a
				// range, so the check below does not depend on how fast the
				// other goroutines get a CPU; the timeout is the failure path.
				select {
				case <-second:
				case <-time.After(10 * time.Second):
				}
			}
			return g.insertGroup(&sh.apply[w], w, &g.verts[lv], ks)
		}, nil)
		if len(worker) != len(want) {
			t.Fatalf("%s: %d vertices applied, batch has %d sources", tc.name, len(worker), len(want))
		}
		workers := map[int]bool{}
		for _, w := range worker {
			workers[w] = true
		}
		if len(workers) < 2 {
			t.Fatalf("%s: one worker applied every range; the batch must spread over the workers", tc.name)
		}
	}
}

// TestParallelPrepareLargeBatchMatchesOracle pushes batches big enough to
// engage every parallel stage (pack, partition, range-claiming apply) and
// checks the final graph against the reference implementation and a
// single-worker engine.
func TestParallelPrepareLargeBatchMatchesOracle(t *testing.T) {
	const nv = 1 << 13
	rm := gen.NewRMatPaper(13, 99)
	g1 := New(nv, Config{Workers: 1})
	g8 := New(nv, Config{Workers: 8})
	ref := refgraph.New(nv)
	for round := 0; round < 3; round++ {
		es := rm.Edges(120000)
		src := make([]uint32, len(es))
		dst := make([]uint32, len(es))
		for i, e := range es {
			src[i], dst[i] = e.Src, e.Dst
			ref.Insert(e.Src, e.Dst)
		}
		g1.InsertBatch(src, dst)
		g8.InsertBatch(src, dst)

		// Delete a large slice of what was just inserted, plus misses.
		del := es[:len(es)/2]
		dsrc := make([]uint32, 0, len(del)+100)
		ddst := make([]uint32, 0, len(del)+100)
		for _, e := range del {
			dsrc = append(dsrc, e.Src)
			ddst = append(ddst, e.Dst)
			ref.Delete(e.Src, e.Dst)
		}
		g1.DeleteBatch(dsrc, ddst)
		g8.DeleteBatch(dsrc, ddst)
	}
	checkAgainstOracle(t, g8, ref)
	checkAgainstOracle(t, g1, ref)
}

// TestPackKeysOutOfRangeParallel ensures the bounds panic survives the
// parallel pack: it must surface on the caller's goroutine with the legacy
// message even when the bad edge sits deep inside a large batch.
func TestPackKeysOutOfRangeParallel(t *testing.T) {
	const nv = 64
	g := New(nv, Config{Workers: 8})
	n := 3 * parPrepMin
	src := make([]uint32, n)
	dst := make([]uint32, n)
	for i := range src {
		src[i] = uint32(i % nv)
		dst[i] = uint32((i * 7) % nv)
	}
	src[n-3], dst[n-3] = 9, 777 // out of range near the tail
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic for out-of-range edge")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, want := range []string{"edge (9,777)", "[0,64)", "EnsureVertices"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q missing %q", msg, want)
			}
		}
	}()
	g.InsertBatch(src, dst)
}
