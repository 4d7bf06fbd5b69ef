package serve

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsgraph/internal/core"
	"lsgraph/internal/gen"
)

// skewedStore builds an S-shard store preloaded with a Zipf-skewed batch
// so the low-ID shard is far over its fair share.
func skewedStore(t *testing.T, n uint32, shards, edges int) *Store {
	t.Helper()
	z := gen.NewZipf(n, 1.1, 42)
	src, dst := z.Batch(edges)
	st := New(core.NewPaged(n, shards, 2), Options{})
	st.InsertBatch(src, dst)
	st.Flush()
	return st
}

func TestRebalanceReducesSkew(t *testing.T) {
	st := skewedStore(t, 4096, 4, 30000)
	defer st.Close()

	before := st.Partition()
	if before.SkewPct < 50 {
		t.Fatalf("workload not skewed enough to test: skew %.1f%%", before.SkewPct)
	}
	res, err := st.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves == 0 {
		t.Fatal("rebalance made no moves on a skewed store")
	}
	after := st.Partition()
	if after.Epoch == before.Epoch {
		t.Fatal("map epoch did not advance")
	}
	// Acceptance bar: the skew gauge must drop by at least 2x.
	if after.SkewPct > before.SkewPct/2 {
		t.Fatalf("skew %.1f%% -> %.1f%%: reduction < 2x", before.SkewPct, after.SkewPct)
	}
	if res.SkewPctBefore != before.SkewPct {
		t.Fatalf("result skew-before %.1f != measured %.1f", res.SkewPctBefore, before.SkewPct)
	}
	// Edge mass is preserved across moves.
	var total uint64
	for _, m := range after.Edges {
		total += m
	}
	var wantTotal uint64
	for _, m := range before.Edges {
		wantTotal += m
	}
	if total != wantTotal {
		t.Fatalf("edge mass changed: %d -> %d", wantTotal, total)
	}
	st.Flush()
	if err := checkStoreInvariants(st); err != nil {
		t.Fatal(err)
	}
}

// checkStoreInvariants flushes and deep-validates the store's graph.
func checkStoreInvariants(st *Store) error {
	st.Flush()
	return st.g.CheckInvariants()
}

// TestPinnedViewSurvivesRebalance pins a view, then supersedes every run it
// reads eight times over — so the pages under it retire and every shard is
// short of pages to reuse — then a rebalance's boundary moves and further
// appends: the view must keep reading its own epoch — including vertices
// whose owning shard changed — from the pages and tables it pinned, while
// a fresh view sees everything that happened since.
func TestPinnedViewSurvivesRebalance(t *testing.T) {
	const nv = 2048
	st := skewedStore(t, nv, 4, 20000)
	defer st.Close()
	// A few small batches first, so the pinned snapshots are fragmented
	// ones that share their pages with the epochs around them.
	for i := uint32(0); i < 8; i++ {
		st.InsertBatch([]uint32{i, nv - 1 - i}, []uint32{nv - 1 - i, i})
		st.Flush()
	}

	v := st.View()
	want := make([][]uint32, v.NumVertices())
	for u := range want {
		want[u] = append([]uint32(nil), v.Neighbors(uint32(u))...)
	}
	wantEpoch, wantM := v.Epoch(), v.NumEdges()
	check := func(when string) {
		t.Helper()
		if v.Epoch() != wantEpoch || v.NumEdges() != wantM {
			t.Fatalf("%s: pinned view now epoch %d with %d edges, was %d with %d", when, v.Epoch(), v.NumEdges(), wantEpoch, wantM)
		}
		for u := range want {
			if !slices.Equal(v.Neighbors(uint32(u)), want[u]) {
				t.Fatalf("%s: pinned view Neighbors(%d) = %v, was %v", when, u, v.Neighbors(uint32(u)), want[u])
			}
		}
	}

	// A batch that changes every vertex supersedes every run, after which
	// nothing the latest epoch reads is on a page the pinned view reads.
	const rounds = 8
	all := make([]uint32, nv)
	to := make([]uint32, nv)
	for round := uint32(1); round <= rounds; round++ {
		for u := range all {
			all[u], to[u] = uint32(u), (uint32(u)+round)%nv
		}
		st.InsertBatch(all, to)
		st.Flush()
		check("after a whole-graph batch")
	}
	for i := range st.shards {
		if ps := st.shards[i].shard.Published(); ps.Retired == 0 {
			t.Fatalf("shard %d: the pinned view holds no retired page (%+v)", i, ps)
		}
	}

	res, err := st.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves == 0 {
		t.Fatal("rebalance made no moves")
	}
	check("after the boundary moves")

	for i := uint32(0); i < 32; i++ {
		st.DeleteBatch([]uint32{i, i + 1}, []uint32{(i + 1) % nv, (i + 2) % nv})
		st.Flush()
	}
	check("after appends into the post-move pages")

	v.Release()

	// A fresh view sees the post-rebuild, post-rebalance, post-ingest state.
	v2 := st.View()
	defer v2.Release()
	if v2.Epoch() <= wantEpoch || v2.NumEdges() == wantM {
		t.Fatalf("fresh view at epoch %d with %d edges, pinned one was %d with %d", v2.Epoch(), v2.NumEdges(), wantEpoch, wantM)
	}
	for u := uint32(0); u < nv; u++ {
		for round := uint32(1); round <= rounds; round++ {
			if w := (u + round) % nv; u >= 34 && !slices.Contains(v2.Neighbors(u), w) {
				t.Fatalf("fresh view lost edge (%d,%d) inserted after the pin", u, w)
			}
		}
	}
}

// TestRebalanceZeroStopTheWorld holds a boundary move mid-execution (the
// writer parked before the splice) and asserts that readers keep making
// progress throughout: Views pin the epoch before the move and read it
// whole, and point reads answer. Ingest waits for the splice; readers
// never do.
func TestRebalanceZeroStopTheWorld(t *testing.T) {
	st := skewedStore(t, 4096, 4, 20000)
	defer st.Close()

	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	testHookRebalanceExecute = func() {
		once.Do(func() { close(entered) })
		<-gate
	}
	defer func() { testHookRebalanceExecute = nil }()

	pm := st.Partition()
	// Move boundary 0: shards 0 and 1 are affected; shards 2 and 3 are not.
	cut := pm.Starts[1] / 2
	if cut == 0 {
		cut = 1
	}
	moveDone := make(chan error, 1)
	go func() {
		_, _, err := st.MoveBoundary(0, cut)
		moveDone <- err
	}()
	<-entered // the writer is parked at the move, splice not yet begun

	// Readers make progress: views acquire and read without blocking.
	for i := 0; i < 3; i++ {
		v := st.View()
		if v.NumEdges() == 0 || v.NumEdges() != pm.Edges[0]+pm.Edges[1]+pm.Edges[2]+pm.Edges[3] {
			t.Fatalf("mid-rebalance view holds %d edges, want %v's", v.NumEdges(), pm.Edges)
		}
		v.Release()
	}
	for _, u := range []uint32{0, cut, pm.Starts[1], pm.Starts[3] + 5} {
		_ = st.Degree(u)
	}

	close(gate)
	if err := <-moveDone; err != nil {
		t.Fatal(err)
	}
	if got := st.Partition().Starts[1]; got != cut {
		t.Fatalf("boundary at %d after move, want %d", got, cut)
	}
	if err := checkStoreInvariants(st); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceUnderLiveTraffic runs concurrent ingest, reads, and
// repeated boundary moves, then differentially compares the final state
// against a single-shard oracle fed the same edges.
func TestRebalanceUnderLiveTraffic(t *testing.T) {
	const n = 2048
	st := New(core.NewPaged(n, 4, 2), Options{MaxQueue: 8})
	defer st.Close()

	var mu sync.Mutex
	var allSrc, allDst []uint32
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writer: skewed batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		z := gen.NewZipf(n, 1.2, 7)
		for i := 0; i < 200; i++ {
			src, dst := z.Batch(100)
			mu.Lock()
			allSrc = append(allSrc, src...)
			allDst = append(allDst, dst...)
			mu.Unlock()
			st.InsertBatch(src, dst)
		}
	}()
	// Readers: continuous views, stopped after the writers finish (their
	// own WaitGroup — they must not gate the stop flag they poll).
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				v := st.View()
				_ = v.Degree(uint32(len(v.e.shards)))
				v.Release()
			}
		}()
	}
	// Rebalancer: repeated full rebalances while traffic flows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := st.Rebalance(); err != nil {
				t.Errorf("rebalance: %v", err)
				return
			}
		}
	}()

	// Wait for the writer and rebalancer, then stop the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("timeout")
	}
	stop.Store(true)
	readers.Wait()
	st.Flush()

	oracle := core.NewFromEdges(n, allSrc, allDst, core.Config{Workers: 2})
	v := st.View()
	defer v.Release()
	if v.NumEdges() != oracle.NumEdges() {
		t.Fatalf("store has %d edges, oracle %d", v.NumEdges(), oracle.NumEdges())
	}
	for u := uint32(0); u < n; u++ {
		if v.Degree(u) != oracle.Degree(u) {
			t.Fatalf("Degree(%d): store %d, oracle %d", u, v.Degree(u), oracle.Degree(u))
		}
		got := v.Neighbors(u)
		want := oracle.AppendNeighbors(u, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Neighbors(%d) diverge at %d", u, i)
			}
		}
	}
	if err := st.g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Quiescent, the pinned epoch's ranges are the paged shards' own, which
	// tile the ID space.
	for i, e := range v.e.shards {
		sh := st.g.Shard(i)
		end := uint64(openEnd)
		if i+1 < len(v.e.shards) {
			end = uint64(st.g.Shard(i + 1).Base())
		}
		if sh.Base() != e.lo || sh.End() != end || e.hi != end {
			t.Fatalf("shard %d: pinned [%d,%d), shard [%d,%d), want end %d",
				i, e.lo, e.hi, sh.Base(), sh.End(), end)
		}
	}
}

// stop flag needs atomic across goroutines; declared here to keep the
// test self-contained.
func TestAutoRebalance(t *testing.T) {
	st := New(core.NewPaged(4096, 4, 2),
		Options{AutoRebalance: 1.3, AutoInterval: 10 * time.Millisecond})
	defer st.Close()

	z := gen.NewZipf(4096, 1.1, 99)
	src, dst := z.Batch(30000)
	st.InsertBatch(src, dst)
	st.Flush()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st.Stats().BoundaryMoves > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Stats().BoundaryMoves == 0 {
		t.Fatal("auto-rebalancer never moved a boundary on a skewed store")
	}
	// Let it converge, then confirm the layout is no longer heavily skewed.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st.Partition().SkewPct < 30 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if sk := st.Partition().SkewPct; sk >= 30 {
		t.Fatalf("auto-rebalance left skew at %.1f%%", sk)
	}
}

func TestMoveBoundaryOnStore(t *testing.T) {
	st := New(core.NewPaged(100, 2, 2), Options{})
	defer st.Close()
	st.InsertBatch([]uint32{10, 60}, []uint32{11, 61})
	st.Flush()

	if _, _, err := st.MoveBoundary(0, 50); err != core.ErrNoMove {
		t.Fatalf("no-op move: %v, want ErrNoMove", err)
	}
	mv, me, err := st.MoveBoundary(0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if mv != 20 {
		t.Fatalf("moved %d vertices, want 20 (range [30,50))", mv)
	}
	if me != 0 {
		t.Fatalf("moved %d edges, want 0 (10 stays in shard 0, 60 in shard 1)", me)
	}
	p := st.Partition()
	if p.Starts[1] != 30 || p.Epoch != 1 {
		t.Fatalf("partition %+v after move", p)
	}
	// Both vertices still read correctly from their (possibly new) shards.
	if st.Degree(10) != 1 || st.Degree(60) != 1 {
		t.Fatalf("degrees after move: %d, %d", st.Degree(10), st.Degree(60))
	}
}

// TestRebalanceInstallsOneEpoch rebalances a skewed four-shard Store into
// several boundary moves: the writer makes them as one step, so each shard
// they touch publishes once and one epoch holds them all — not two
// snapshots and an epoch per move.
func TestRebalanceInstallsOneEpoch(t *testing.T) {
	st := skewedStore(t, 4096, 4, 30000)
	defer st.Close()
	before, published := st.Partition(), st.Stats().SnapshotsPublished
	res, err := st.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves < 2 {
		t.Fatalf("rebalance made %d moves, want a skew that takes several", res.Moves)
	}
	after := st.Partition()
	touched := 0
	for i := range after.Starts {
		moved := after.Starts[i] != before.Starts[i]
		if i+1 < len(after.Starts) {
			moved = moved || after.Starts[i+1] != before.Starts[i+1]
		}
		if moved {
			touched++
		}
	}
	if got := st.Stats().SnapshotsPublished - published; got != uint64(touched) {
		t.Fatalf("%d moves over %d shards published %d snapshots, want one per touched shard", res.Moves, touched, got)
	}
	if after.Epoch != before.Epoch+uint64(res.Moves) || res.MapEpoch != after.Epoch {
		t.Fatalf("partition epoch %d -> %d (result %d) after %d moves", before.Epoch, after.Epoch, res.MapEpoch, res.Moves)
	}
	if res.SkewPctAfter != after.SkewPct {
		t.Fatalf("result skew-after %.1f != measured %.1f", res.SkewPctAfter, after.SkewPct)
	}
}

// TestIllegalMoveRefusedOnWriter queues a move that would empty shard 0
// behind a batch the writer is parked on. The writer refuses it in queue
// order — its caller gets the error only once the batch ahead has applied
// — and the layout, the partition epoch and the next batch's routing stay
// those of before.
func TestIllegalMoveRefusedOnWriter(t *testing.T) {
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	testHookBeforeApply = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	}
	defer func() { testHookBeforeApply = nil }()
	st := New(core.NewPaged(100, 2, 2), Options{})
	defer st.Close()
	before := st.Partition()
	st.InsertBatch([]uint32{10}, []uint32{60})
	<-entered

	type outcome struct {
		err  error
		seen bool // the batch ahead was visible when the move returned
	}
	out := make(chan outcome, 1)
	go func() {
		_, _, err := st.MoveBoundary(0, 0)
		out <- outcome{err, st.Degree(10) == 1}
	}()
	select {
	case o := <-out:
		close(gate)
		t.Fatalf("the move returned (%v) while the batch ahead of it was unapplied", o.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	o := <-out
	if o.err == nil || errors.Is(o.err, core.ErrNoMove) || !strings.Contains(o.err.Error(), "would empty shard 0") {
		t.Fatalf("emptying move: %v, want the refusal to empty shard 0", o.err)
	}
	if !o.seen {
		t.Fatal("the move's error arrived before the batch ahead of it was visible")
	}
	after := st.Partition()
	if !slices.Equal(after.Starts, before.Starts) || after.Epoch != 0 || st.Stats().BoundaryMoves != 0 {
		t.Fatalf("refused move changed the partition: %+v -> %+v", before, after)
	}
	st.InsertBatch([]uint32{49, 50, 50}, []uint32{1, 2, 3})
	st.Flush()
	if p := st.Partition(); p.Edges[0] != 2 || p.Edges[1] != 2 {
		t.Fatalf("per-shard edges %v, want [2 2]: (10,60) and (49,1) below 50, (50,2) and (50,3) above", p.Edges)
	}
	if err := checkStoreInvariants(st); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionEpochCountsInstalledMoves moves a boundary back and forth
// and reads Partition while each move is parked on the writer before its
// splice, and after it: the partition epoch comes from the same pin as the
// layout, so it always equals Stats().BoundaryMoves and counts the moves of
// the layout shown — never one ahead of it. After each move, a batch with
// a source on each side of the new boundary lands in the shards of the new
// layout.
func TestPartitionEpochCountsInstalledMoves(t *testing.T) {
	parked, resume, released := make(chan struct{}), make(chan struct{}), make(chan struct{})
	testHookRebalanceExecute = func() {
		select {
		case parked <- struct{}{}:
			select {
			case <-resume:
			case <-released:
			}
		case <-released:
		}
	}
	defer func() { testHookRebalanceExecute = nil }()
	st := New(core.NewPaged(100, 2, 2), Options{})
	defer st.Close()
	defer close(released) // a failed check must not leave the writer parked

	var srcs []uint32 // every edge's source; each edge is distinct
	check := func(when string, moves uint64, boundary uint32) {
		t.Helper()
		p := st.Partition()
		if b := st.Stats().BoundaryMoves; p.Epoch != b || p.Epoch != moves || p.Starts[1] != boundary {
			t.Fatalf("%s: partition epoch %d over starts %v, %d boundary moves; want %d moves over a boundary at %d",
				when, p.Epoch, p.Starts, b, moves, boundary)
		}
		var below uint64
		for _, v := range srcs {
			if v < boundary {
				below++
			}
		}
		if p.Edges[0] != below || p.Edges[1] != uint64(len(srcs))-below {
			t.Fatalf("%s: per-shard edges %v, want [%d %d] at boundary %d", when, p.Edges, below, uint64(len(srcs))-below, boundary)
		}
	}
	boundary := uint32(50)
	for i, to := range []uint32{30, 70, 40, 60} {
		done := make(chan error, 1)
		go func() {
			_, _, err := st.MoveBoundary(0, to)
			done <- err
		}()
		<-parked
		check("mid-move", uint64(i), boundary)
		resume <- struct{}{}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		boundary = to
		check("after the move", uint64(i+1), boundary)
		st.InsertBatch([]uint32{to - 1, to}, []uint32{uint32(i), uint32(i)})
		st.Flush()
		srcs = append(srcs, to-1, to)
		check("after a batch across the boundary", uint64(i+1), boundary)
	}
	if err := checkStoreInvariants(st); err != nil {
		t.Fatal(err)
	}
}
