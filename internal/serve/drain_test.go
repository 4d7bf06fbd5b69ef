package serve

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"lsgraph/internal/core"
	"lsgraph/internal/obs"
	"lsgraph/internal/refgraph"
)

// parkWriter makes the writer stop before every apply until the returned
// release is called; parked receives once the writer first stops. A test
// enqueues one batch, waits on parked, and then fills the queue the writer
// takes at its next drain.
func parkWriter(t *testing.T) (parked <-chan struct{}, release func()) {
	t.Helper()
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	testHookBeforeApply = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	}
	released := false
	release = func() {
		if !released {
			released = true
			close(gate)
		}
	}
	t.Cleanup(func() {
		release()
		testHookBeforeApply = nil
	})
	return entered, release
}

// waitDepth waits until st's queue holds n entries.
func waitDepth(t *testing.T, st *Store, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); st.depth() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", st.depth(), n)
		}
	}
}

// bigBatch returns sideBySideMin+extra random edges over [0, n), both
// shards' sources among them.
func bigBatch(rng *rand.Rand, n uint32, extra int) (src, dst []uint32) {
	m := sideBySideMin + extra
	src, dst = make([]uint32, m), make([]uint32, m)
	for i := range src {
		src[i], dst[i] = uint32(rng.Intn(int(n))), uint32(rng.Intn(int(n)))
	}
	return src, dst
}

// TestDrainMergesSideBySideRun queues k big inserts and a Flush behind a
// parked batch: the writer applies the k as one batch, which publishes
// each shard it touches once and installs one epoch holding all k.
func TestDrainMergesSideBySideRun(t *testing.T) {
	const n, k = 1 << 14, 3
	parked, release := parkWriter(t)
	st := New(core.NewPaged(n, 2, 2), Options{})
	defer st.Close()
	ref := refgraph.New(n)
	st.InsertBatch([]uint32{1}, []uint32{2}) // touches shard 0 only
	ref.Insert(1, 2)
	<-parked
	before := st.Stats()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < k; i++ {
		src, dst := bigBatch(rng, n, i)
		for j := range src {
			ref.Insert(src[j], dst[j])
		}
		st.InsertBatch(src, dst)
	}
	go st.Flush()
	waitDepth(t, st, k+1)
	release()
	st.Flush()

	after := st.Stats()
	if got := after.BatchesApplied - before.BatchesApplied; got != 2 {
		t.Errorf("applied %d entries, want 2: the parked batch and the merged run", got)
	}
	if got := after.SnapshotsPublished - before.SnapshotsPublished; got != 1+2 {
		t.Errorf("published %d snapshots, want 3: one for the parked batch, one per shard for the run", got)
	}
	if got := after.CoalescedBatches - before.CoalescedBatches; got != k-1 {
		t.Errorf("coalesced %d batches, want %d", got, k-1)
	}
	if st.Epoch() != 1+k {
		t.Errorf("epoch %d, want %d: every merged batch counts", st.Epoch(), 1+k)
	}
	v := st.View()
	defer v.Release()
	checkViewAgainstRef(t, v, ref)
}

// TestDrainRunEndsAtOpChange queues an insert, a delete and an insert again
// of the same big batch behind a parked batch, then a Flush. Each op
// change ends a run, so the three apply in order, one by one, and the
// edges end present.
func TestDrainRunEndsAtOpChange(t *testing.T) {
	const n = 1 << 14
	parked, release := parkWriter(t)
	st := New(core.NewPaged(n, 2, 2), Options{})
	defer st.Close()
	ref := refgraph.New(n)
	st.InsertBatch([]uint32{1}, []uint32{2})
	ref.Insert(1, 2)
	<-parked
	before := st.Stats()
	src, dst := bigBatch(rand.New(rand.NewSource(2)), n, 0)
	st.InsertBatch(src, dst)
	st.DeleteBatch(src, dst)
	st.InsertBatch(src, dst)
	for j := range src {
		ref.Insert(src[j], dst[j])
	}
	go st.Flush()
	waitDepth(t, st, 4)
	release()
	st.Flush()

	if got := st.Stats().BatchesApplied - before.BatchesApplied; got != 4 {
		t.Errorf("applied %d entries, want 4: no run crosses an op change", got)
	}
	if st.Epoch() != 4 {
		t.Errorf("epoch %d, want 4", st.Epoch())
	}
	v := st.View()
	defer v.Release()
	checkViewAgainstRef(t, v, ref)
}

// TestDrainRunEndsAtMove queues a big batch, a boundary move and another
// big batch behind a parked batch: the move splits the run, so the second
// batch is routed by the moved boundary, in an apply of its own.
func TestDrainRunEndsAtMove(t *testing.T) {
	const n = 1 << 14
	parked, release := parkWriter(t)
	st := New(core.NewPaged(n, 2, 2), Options{})
	defer st.Close()
	ref := refgraph.New(n)
	st.InsertBatch([]uint32{1}, []uint32{2})
	ref.Insert(1, 2)
	<-parked
	before := st.Stats()
	rng := rand.New(rand.NewSource(3))
	enqueue := func(extra int) {
		src, dst := bigBatch(rng, n, extra)
		for j := range src {
			ref.Insert(src[j], dst[j])
		}
		st.InsertBatch(src, dst)
	}
	enqueue(0)
	moved := make(chan error, 1)
	go func() {
		_, _, err := st.MoveBoundary(0, n/4)
		moved <- err
	}()
	waitDepth(t, st, 2)
	enqueue(1)
	release()
	if err := <-moved; err != nil {
		t.Fatalf("move: %v", err)
	}
	st.Flush()

	after := st.Stats()
	if got := after.BatchesApplied - before.BatchesApplied; got != 3 {
		t.Errorf("applied %d entries, want 3: the move splits the run", got)
	}
	if after.BoundaryMoves != 1 || st.Epoch() != 3 {
		t.Errorf("%d moves, epoch %d; want 1 and 3", after.BoundaryMoves, st.Epoch())
	}
	if p := st.Partition(); p.Starts[1] != n/4 {
		t.Errorf("starts %v, want the boundary at %d", p.Starts, n/4)
	}
	v := st.View()
	defer v.Release()
	checkViewAgainstRef(t, v, ref)
}

// TestSmallBackgroundBatchesApplyAlone queues k small batches with no
// caller waiting behind them: background work too small to split keeps one
// apply each, one after another.
func TestSmallBackgroundBatchesApplyAlone(t *testing.T) {
	const n, k = 1 << 12, 5
	parked, release := parkWriter(t)
	st := New(core.NewPaged(n, 2, 2), Options{})
	defer st.Close()
	st.InsertBatch([]uint32{1}, []uint32{2})
	<-parked
	before := st.Stats()
	for i := uint32(0); i < k; i++ {
		s, d := pairBatch(10+2*i, n-1-i)
		st.InsertBatch(s, d)
	}
	release()
	for deadline := time.Now().Add(10 * time.Second); st.Epoch() != 1+k; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("epoch %d, want %d", st.Epoch(), 1+k)
		}
	}
	if got := st.Stats().BatchesApplied - before.BatchesApplied; got != 1+k {
		t.Errorf("applied %d entries, want %d: small background batches are not merged", got, 1+k)
	}
	if got := st.Stats().CoalescedBatches; got != 0 {
		t.Errorf("coalesced %d batches, want 0", got)
	}
}

// TestFlushedBatchesApplyOneByOne is the shape of the benchmark's
// store-stream and durable-recover workloads: a base graph loaded as one
// batch, then batches each flushed before the next is sent. No drain holds
// two batches, so every enqueued batch is one apply.
func TestFlushedBatchesApplyOneByOne(t *testing.T) {
	const n, batches, size = 1 << 12, 8, 1000
	for _, durable := range []bool{false, true} {
		var st *Store
		if durable {
			st = openDur(t, t.TempDir(), n, 2, DurabilityOptions{})
		} else {
			st = New(core.NewPaged(n, 2, 2), Options{})
		}
		rng := rand.New(rand.NewSource(4))
		src, dst := bigBatch(rng, n, 20000)
		st.InsertBatch(src, dst)
		st.Flush()
		enqueued := uint64(1)
		for _, del := range []bool{false, true} {
			for i := 0; i < batches; i++ {
				s, d := src[i*size:(i+1)*size], dst[i*size:(i+1)*size]
				if del {
					st.DeleteBatch(s, d)
				} else {
					st.InsertBatch(s, d)
				}
				st.Flush()
				enqueued++
			}
		}
		stats := st.Stats()
		if stats.BatchesApplied != enqueued || stats.CoalescedBatches != 0 || st.Epoch() != enqueued {
			t.Errorf("durable=%v: %d batches enqueued, %d applied, %d coalesced, epoch %d",
				durable, enqueued, stats.BatchesApplied, stats.CoalescedBatches, st.Epoch())
		}
		st.Close()
	}
}

// TestDurableMergedRunTakesLastLSN queues k big inserts and a Flush behind
// a parked batch on a durable Store: the merged run's epoch is a cut at its
// last record, the largest LSN of the run, and a reopen finds the same
// edges.
func TestDurableMergedRunTakesLastLSN(t *testing.T) {
	const n, k = 1 << 14, 3
	dir := t.TempDir()
	parked, release := parkWriter(t)
	st := openDur(t, dir, n, 2, DurabilityOptions{})
	st.InsertBatch([]uint32{1}, []uint32{2})
	<-parked
	if lsn := st.cur.Load().lsn; lsn != 0 {
		t.Fatalf("epoch LSN %d before the first apply, want 0", lsn)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < k; i++ {
		src, dst := bigBatch(rng, n, i)
		st.InsertBatch(src, dst)
	}
	go st.Flush()
	waitDepth(t, st, k+1)
	release()
	st.Flush()
	if got := st.Stats().BatchesApplied; got != 2 {
		t.Fatalf("applied %d entries, want 2", got)
	}
	if lsn := st.cur.Load().lsn; lsn != 1+k {
		t.Errorf("epoch LSN %d, want %d: the merged run's last record", lsn, 1+k)
	}
	want := edgeSet(st)
	st.Close()
	re := openDur(t, dir, n, 2, DurabilityOptions{})
	defer re.Close()
	sameEdges(t, edgeSet(re), want, "reopened after a merged run")
}

// TestFlushedEnqueueAllocs holds an enqueue behind a Flush to its one copy
// of the batch: the writer hands the slice it drained back as the next
// queue, so a writer that keeps up does not make the next enqueue allocate
// one. runtime.MemStats.Mallocs counts every goroutine's allocations, so
// the measurement keeps the others out: the writer is parked before each
// apply; the collector is off, since a cycle's set-up allocates (the first
// one starts its mark workers); and one P runs the test, since the writer
// could otherwise still be finishing its drain behind the Flush beside the
// measured enqueue, and the runtime now and then allocates for it (1.01
// objects in 2 of 900 runs on a loaded two-CPU host without this).
func TestFlushedEnqueueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build's instrumentation changes what allocates")
	}
	const runs, n = 100, 1000
	gate := make(chan struct{})
	testHookBeforeApply = func() { <-gate }
	defer func() { testHookBeforeApply = nil }()
	st := New(core.NewPaged(1<<12, 2, 2), Options{})
	defer st.Close()
	src, dst := make([]uint32, n), make([]uint32, n)
	for i := range src {
		src[i], dst[i] = uint32(i*4), uint32(i*7%(1<<12))
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	var allocs uint64
	for r := -10; r < runs; r++ { // ten warm-up rounds
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		st.InsertBatch(src, dst)
		runtime.ReadMemStats(&ms)
		if r >= 0 {
			allocs += ms.Mallocs - m0
		}
		gate <- struct{}{}
		st.Flush()
	}
	if a := float64(allocs) / runs; a != 1 {
		t.Errorf("a %d-edge enqueue after a Flush allocates %v objects, want 1: its copy", n, a)
	}
}

// TestMergedRunMeasuresEveryBatch: with metrics and tracing on, a merged
// run of k batches records k-1 coalesce instants under its first batch's
// ID, and its install closes the visibility-lag measurement of each of the
// k batches, not only the first.
func TestMergedRunMeasuresEveryBatch(t *testing.T) {
	const n, k = 1 << 14, 3
	prevMetrics, prevMode, prevN := obs.Enabled(), obs.CurrentTraceMode(), obs.TraceSampleN()
	t.Cleanup(func() {
		obs.SetEnabled(prevMetrics)
		obs.SetTraceMode(prevMode, prevN)
	})
	obs.SetEnabled(true)
	obs.SetTraceMode(obs.TraceAll, 1)
	parked, release := parkWriter(t)
	st := New(core.NewPaged(n, 2, 2), Options{})
	defer st.Close()
	st.InsertBatch([]uint32{1}, []uint32{2})
	<-parked
	lag0, evs0 := obsVisibilityLag.Count(), len(obs.Events())
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < k; i++ {
		src, dst := bigBatch(rng, n, i)
		st.InsertBatch(src, dst)
	}
	go st.Flush()
	waitDepth(t, st, k+1)
	release()
	st.Flush()

	if got := obsVisibilityLag.Count() - lag0; got != 1+k {
		t.Errorf("visibility lag observed %d times, want %d: once per batch", got, 1+k)
	}
	var first uint64
	coalesced := 0
	for _, ev := range obs.Events()[evs0:] {
		switch {
		case ev.Phase == obs.PhaseEnqueue && first == 0:
			first = ev.Batch
		case ev.Phase == obs.PhaseCoalesce:
			coalesced++
			if ev.Batch != first {
				t.Errorf("coalesce instant under batch %d, want the run's first, %d", ev.Batch, first)
			}
		}
	}
	if coalesced != k-1 {
		t.Errorf("%d coalesce instants, want %d", coalesced, k-1)
	}
}
