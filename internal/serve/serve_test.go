package serve

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lsgraph/internal/core"
)

// pairBatch returns the symmetric edge pair {(a,b),(b,a)} in columnar form.
func pairBatch(a, b uint32) (src, dst []uint32) {
	return []uint32{a, b}, []uint32{b, a}
}

func TestStoreBasicFlushAndViews(t *testing.T) {
	st := New(core.NewPaged(64, 1, 2), Options{})
	defer st.Close()

	if st.Epoch() != 0 || st.NumEdges() != 0 {
		t.Fatalf("initial state: epoch=%d m=%d", st.Epoch(), st.NumEdges())
	}

	src, dst := pairBatch(1, 2)
	st.InsertBatch(src, dst)
	st.Flush()

	if st.NumEdges() != 2 {
		t.Fatalf("after flush m=%d, want 2", st.NumEdges())
	}
	if st.Epoch() != 1 {
		t.Fatalf("epoch=%d, want 1", st.Epoch())
	}

	v := st.View()
	if v.Epoch() != 1 || v.NumEdges() != 2 || v.Degree(1) != 1 {
		t.Fatalf("view: epoch=%d m=%d deg(1)=%d", v.Epoch(), v.NumEdges(), v.Degree(1))
	}
	if ns := v.Neighbors(1); len(ns) != 1 || ns[0] != 2 {
		t.Fatalf("view neighbors(1)=%v", ns)
	}

	// The view stays frozen while the store moves on.
	s2, d2 := pairBatch(3, 4)
	st.InsertBatch(s2, d2)
	st.Flush()
	if v.NumEdges() != 2 {
		t.Fatalf("pinned view changed: m=%d", v.NumEdges())
	}
	if st.NumEdges() != 4 {
		t.Fatalf("store m=%d, want 4", st.NumEdges())
	}
	v.Release()

	// A fresh view sees the new epoch.
	v2 := st.View()
	if v2.Epoch() != 2 || v2.NumEdges() != 4 {
		t.Fatalf("second view: epoch=%d m=%d", v2.Epoch(), v2.NumEdges())
	}
	v2.Release()
}

func TestStoreDeleteOrderingPreserved(t *testing.T) {
	st := New(core.NewPaged(16, 1, 0), Options{})
	defer st.Close()

	src, dst := pairBatch(1, 2)
	st.InsertBatch(src, dst)
	st.DeleteBatch(src, dst)
	s2, d2 := pairBatch(3, 4)
	st.InsertBatch(s2, d2)
	st.Flush()

	if st.NumEdges() != 2 {
		t.Fatalf("m=%d, want 2 (insert+delete of (1,2) must cancel)", st.NumEdges())
	}
	if st.Degree(1) != 0 || st.Degree(3) != 1 {
		t.Fatalf("deg(1)=%d deg(3)=%d", st.Degree(1), st.Degree(3))
	}
}

// TestStoreCoalescing holds the writer mid-drain with the test hook so
// enqueues pile up deterministically past MaxQueue and merge.
func TestStoreCoalescing(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 64)
	testHookBeforeApply = func() { entered <- struct{}{}; <-gate }
	defer func() { testHookBeforeApply = nil }()

	st := New(core.NewPaged(256, 1, 0), Options{MaxQueue: 2})

	// First batch: wait until the writer has taken it off the queue and
	// parked in the hook, so the queue below fills deterministically.
	src, dst := pairBatch(0, 1)
	st.InsertBatch(src, dst)
	<-entered

	// Fill the queue to its bound, then overflow it with same-op batches
	// that must merge into the newest entry.
	const extra = 8
	for i := uint32(1); i <= 2+extra; i++ {
		s, d := pairBatch(2*i, 2*i+1)
		st.InsertBatch(s, d)
	}

	// Unpark the writer for every applied batch.
	go func() {
		for {
			select {
			case gate <- struct{}{}:
			case <-st.done:
				return
			}
		}
	}()
	st.Flush()

	// Backpressure merged the extra batches into the second queued one,
	// and the drain merged the two queued entries ahead of the Flush.
	stats := st.Stats()
	if stats.CoalescedBatches != extra+1 {
		t.Fatalf("coalesced=%d, want %d", stats.CoalescedBatches, extra+1)
	}
	// Merging must not lose updates: every pair is present.
	if want := uint64(2 * (3 + extra)); st.NumEdges() != want {
		t.Fatalf("m=%d, want %d", st.NumEdges(), want)
	}
	// The parked batch, then the merged rest: two applies, every batch in
	// the epoch.
	if stats.BatchesApplied != 2 || st.Epoch() != 3+extra {
		t.Fatalf("applied=%d epoch=%d, want 2 and %d", stats.BatchesApplied, st.Epoch(), 3+extra)
	}
	st.Close()
}

func TestStoreSnapshotReclaimAndAppend(t *testing.T) {
	st := New(core.NewPaged(128, 1, 0), Options{})
	defer st.Close()

	// No readers pin anything, so each publish retires the previous epoch
	// and the next publish's reclaim scan recycles it.
	for i := uint32(0); i < 8; i++ {
		s, d := pairBatch(2*i, 2*i+1)
		st.InsertBatch(s, d)
		st.Flush()
	}
	stats := st.Stats()
	if stats.SnapshotsReclaimed == 0 {
		t.Fatal("no snapshots reclaimed despite drained epochs")
	}
	if stats.SnapshotsPublished != 9 { // epoch 0 + 8 batches
		t.Fatalf("published=%d, want 9", stats.SnapshotsPublished)
	}
}

func TestStorePinnedEpochBlocksReclaimUntilRelease(t *testing.T) {
	st := New(core.NewPaged(64, 1, 0), Options{})
	defer st.Close()

	src, dst := pairBatch(1, 2)
	st.InsertBatch(src, dst)
	st.Flush()

	v := st.View() // pins epoch 1
	base := st.Stats().SnapshotsReclaimed

	s2, d2 := pairBatch(3, 4)
	st.InsertBatch(s2, d2)
	st.Flush() // retires epoch 1, but it is pinned

	if v.NumEdges() != 2 || v.Degree(1) != 1 {
		t.Fatalf("pinned view corrupted: m=%d deg(1)=%d", v.NumEdges(), v.Degree(1))
	}
	v.Release()

	// The next publish's reclaim scan drains the released epoch.
	s3, d3 := pairBatch(5, 6)
	st.InsertBatch(s3, d3)
	st.Flush()
	if st.Stats().SnapshotsReclaimed <= base {
		t.Fatal("released epoch was never reclaimed")
	}
}

func TestStoreUpdateAfterClosePanics(t *testing.T) {
	st := New(core.NewPaged(8, 1, 0), Options{})
	st.Close()
	st.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("InsertBatch on closed Store did not panic")
		}
	}()
	st.InsertBatch([]uint32{0}, []uint32{1})
}

func TestStoreMismatchedBatchPanics(t *testing.T) {
	st := New(core.NewPaged(8, 1, 0), Options{})
	defer st.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched src/dst did not panic")
		}
	}()
	st.InsertBatch([]uint32{0, 1}, []uint32{1})
}

// TestEnqueueRefusesUnappliableBatches: a batch naming vertex 2³²−1 — whose
// vertex-space bound, one past it, wraps to 0 — or with src and dst of
// different lengths is refused by Enqueue with an error and by InsertBatch
// with a panic on the caller's goroutine, before the writer sees it;
// the store keeps serving. (Before, Enqueue took the ID and the writer
// goroutine's panic took the process down.)
func TestEnqueueRefusesUnappliableBatches(t *testing.T) {
	st := New(core.NewPaged(8, 2, 0), Options{})
	defer st.Close()
	for _, b := range [][2][]uint32{
		{{math.MaxUint32}, {1}},
		{{1, 2}, {3, math.MaxUint32}},
		{{0, 1}, {1}},
	} {
		if err := st.Enqueue(false, b[0], b[1]); err == nil {
			t.Fatalf("Enqueue(%v, %v) accepted the batch", b[0], b[1])
		}
		if err := st.Enqueue(true, b[0], b[1]); err == nil {
			t.Fatalf("Enqueue(delete, %v, %v) accepted the batch", b[0], b[1])
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("InsertBatch naming vertex 2^32-1 did not panic")
			}
		}()
		st.InsertBatch([]uint32{math.MaxUint32}, []uint32{1})
	}()
	if err := st.Enqueue(false, []uint32{5}, []uint32{1}); err != nil {
		t.Fatal(err)
	}
	st.Flush()
	if st.NumEdges() != 1 || st.NumVertices() != 8 || st.Stats().EdgesEnqueued != 1 {
		t.Fatalf("after the refusals: %d edges, %d vertices, %d enqueued", st.NumEdges(), st.NumVertices(), st.Stats().EdgesEnqueued)
	}
}

// TestSharedSnapshotOutlivesEveryHolder pins views across a stream of
// batches that each touch only some of the shards, so that successive
// epochs share the untouched shards' snapshots, and releases the views in
// random order. A shard snapshot may be recycled only once no undrained
// epoch holds it: recycled early, its table becomes the next table copy's
// target, and a still-pinned view that holds it reads the copy's entries.
// Every pinned view must read what it read when it was pinned.
func TestSharedSnapshotOutlivesEveryHolder(t *testing.T) {
	const n, shards = 256, 4
	st := New(core.NewPaged(n, shards, 2), Options{})
	defer st.Close()
	span := uint32(n / shards)
	rng := rand.New(rand.NewSource(42))
	type held struct {
		v   *View
		adj [][]uint32
	}
	var views []held
	check := func(step int) {
		t.Helper()
		for _, h := range views {
			for u, want := range h.adj {
				if got := h.v.Neighbors(uint32(u)); !slices.Equal(got, want) {
					t.Fatalf("step %d: view at epoch %d reads vertex %d as %v, read %v when pinned", step, h.v.Epoch(), u, got, want)
				}
			}
		}
	}
	for step := 0; step < 400; step++ {
		// A batch into one or two random shards.
		var src, dst []uint32
		for k := 0; k < 1+rng.Intn(2); k++ {
			base := uint32(rng.Intn(shards)) * span
			for i := 0; i < 8; i++ {
				src, dst = append(src, base+uint32(rng.Intn(int(span)))), append(dst, uint32(rng.Intn(n)))
			}
		}
		if rng.Intn(4) == 0 {
			st.DeleteBatch(src, dst)
		} else {
			st.InsertBatch(src, dst)
		}
		st.Flush()
		if rng.Intn(3) == 0 {
			v := st.View()
			views = append(views, held{v, pinned(v)})
		}
		if len(views) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(views))
			views[i].v.Release()
			views = slices.Delete(views, i, i+1)
		}
		check(step)
	}
	for _, h := range views {
		h.v.Release()
	}
	if st.Stats().SnapshotsReclaimed == 0 {
		t.Fatal("no snapshot was reclaimed")
	}
}

// TestEnqueueAllocs holds an enqueue to its one copy of the batch: a warm
// 1 000-edge enqueue on an in-memory two-shard Store allocates the one
// allocation its columns share and nothing else — the scatter is the
// writer's. The writer is parked for the measurement, so that what it
// allocates applying batches does not count, and the queue's slice is grown
// up front: its growth is the queue's cost, not the batch's.
func TestEnqueueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build's instrumentation changes what allocates")
	}
	const runs, n = 100, 1000
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	testHookBeforeApply = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	}
	defer func() { testHookBeforeApply = nil }()
	st := New(core.NewPaged(1<<12, 2, 2), Options{MaxQueue: 4 * runs})
	defer st.Close()
	defer close(gate)
	src, dst := make([]uint32, n), make([]uint32, n)
	for i := range src {
		src[i], dst[i] = uint32(i*4), uint32(i*7%(1<<12))
	}
	st.InsertBatch(src, dst)
	<-entered
	st.mu.Lock()
	st.queue = slices.Grow(st.queue, 2*runs)
	st.mu.Unlock()
	if a := testing.AllocsPerRun(runs, func() { st.InsertBatch(src, dst) }); a != 1 {
		t.Errorf("a %d-edge enqueue allocates %v objects, want 1: its copy", n, a)
	}
}
