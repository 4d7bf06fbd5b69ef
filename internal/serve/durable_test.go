package serve

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"lsgraph/internal/core"
	"lsgraph/internal/wal"
)

// openDur opens a durable store with fast test-friendly defaults.
func openDur(t *testing.T, dir string, n uint32, shards int, dopt DurabilityOptions) *Store {
	t.Helper()
	dopt.Dir = dir
	if dopt.FsyncInterval == 0 {
		dopt.FsyncInterval = time.Millisecond
	}
	st, err := OpenDurable(n, shards, 2, Options{}, dopt)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return st
}

// edgeSet flattens a store's current view into a sorted (src,dst) list.
func edgeSet(st *Store) [][2]uint32 {
	v := st.View()
	defer v.Release()
	var out [][2]uint32
	for u := uint32(0); u < v.NumVertices(); u++ {
		for _, w := range v.Neighbors(u) {
			out = append(out, [2]uint32{u, w})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func sameEdges(t *testing.T, got, want [][2]uint32, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: edge[%d]=%v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openDur(t, dir, 64, 2, DurabilityOptions{})
	if !st.Durable() {
		t.Fatal("store not durable")
	}
	r := rand.New(rand.NewSource(7))
	for b := 0; b < 20; b++ {
		src := make([]uint32, 8)
		dst := make([]uint32, 8)
		for i := range src {
			src[i] = uint32(r.Intn(64))
			dst[i] = uint32(r.Intn(64))
		}
		st.InsertBatch(src, dst)
	}
	st.DeleteBatch([]uint32{1}, []uint32{2})
	st.Flush()
	want := edgeSet(st)
	ws := st.Stats()
	if ws.WALRecords == 0 || ws.WALBytes == 0 {
		t.Fatalf("no WAL activity recorded: %+v", ws)
	}
	st.Close()

	// Reopen: everything flushed before Close must come back, with no
	// checkpoint ever written (pure replay).
	re := openDur(t, dir, 64, 2, DurabilityOptions{})
	defer re.Close()
	rst := re.Recovery()
	if rst.CheckpointLoaded {
		t.Fatal("unexpected checkpoint on pure-WAL reopen")
	}
	if rst.ReplayedRecords == 0 || rst.MaxLSN == 0 {
		t.Fatalf("nothing replayed: %+v", rst)
	}
	sameEdges(t, edgeSet(re), want, "recovered store")
}

func TestDurableCheckpointAndGC(t *testing.T) {
	dir := t.TempDir()
	// Small segments so rotation + GC actually trigger.
	st := openDur(t, dir, 32, 2, DurabilityOptions{SegmentBytes: 1 << 10})
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("empty checkpoint: %v", err)
	}
	for b := 0; b < 50; b++ {
		st.InsertBatch([]uint32{uint32(b % 32)}, []uint32{uint32((b + 1) % 32)})
	}
	st.Flush()
	want := edgeSet(st)
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Segments go one checkpoint late: the predecessor is kept as the
	// fallback for a damaged newest checkpoint, so the log past it is too.
	if ws := st.Stats(); ws.Checkpoints != 2 || ws.SegmentsGCed != 0 {
		t.Fatalf("after the covering checkpoint: %d checkpoints, %d segments GCed, want 2 and 0", ws.Checkpoints, ws.SegmentsGCed)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if ws := st.Stats(); ws.SegmentsGCed == 0 {
		t.Fatal("no segments GCed once both retained checkpoints cover them")
	}
	st.Close()

	// Reopen: state should come from the checkpoint with nothing to replay
	// (everything logged was covered, and its segments are gone).
	re := openDur(t, dir, 32, 2, DurabilityOptions{})
	defer re.Close()
	rst := re.Recovery()
	if !rst.CheckpointLoaded {
		t.Fatal("checkpoint not loaded on reopen")
	}
	if rst.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records past a full checkpoint", rst.ReplayedRecords)
	}
	sameEdges(t, edgeSet(re), want, "checkpoint-recovered store")

	// Writes after the checkpoint replay on the next reopen.
	re.InsertBatch([]uint32{30}, []uint32{31})
	re.Flush()
	want2 := edgeSet(re)
	re.Close()
	re2 := openDur(t, dir, 32, 2, DurabilityOptions{})
	defer re2.Close()
	if re2.Recovery().ReplayedRecords == 0 {
		t.Fatal("post-checkpoint batch not replayed")
	}
	sameEdges(t, edgeSet(re2), want2, "checkpoint+tail store")
}

func TestDurableDeleteReplayOrder(t *testing.T) {
	dir := t.TempDir()
	st := openDur(t, dir, 16, 2, DurabilityOptions{})
	st.InsertBatch([]uint32{3, 3}, []uint32{4, 5})
	st.Flush()
	st.DeleteBatch([]uint32{3}, []uint32{4})
	st.InsertBatch([]uint32{3}, []uint32{6})
	st.Flush()
	want := edgeSet(st)
	st.Close()

	re := openDur(t, dir, 16, 2, DurabilityOptions{})
	defer re.Close()
	sameEdges(t, edgeSet(re), want, "insert/delete replay")
	v := re.View()
	if ns := v.Neighbors(3); len(ns) != 2 || ns[0] != 5 || ns[1] != 6 {
		t.Fatalf("neighbors(3)=%v after replay, want [5 6]", ns)
	}
	v.Release()
}

func TestDurableAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st := openDur(t, dir, 16, 1, DurabilityOptions{CheckpointEvery: 10})
	for b := 0; b < 40; b++ {
		st.InsertBatch([]uint32{uint32(b % 16)}, []uint32{uint32((b + 3) % 16)})
		st.Flush() // defeat coalescing so every batch logs a record
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-checkpoint never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st.Close()
	if _, err := os.Stat(filepath.Join(dir, "checkpoint")); err != nil {
		t.Fatalf("checkpoint dir missing: %v", err)
	}
}

// TestDurableShardCountChange recovers a directory in the layout Stores
// wrote when each shard logged its own records — four logs, a batch's
// shard parts in separate records — at two shards: every edge comes back,
// the first checkpoint covers the three logs nothing appends to any more so
// that its GC deletes them, and a fresh four-shard Store writes log 0
// alone.
func TestDurableShardCountChange(t *testing.T) {
	dir := t.TempDir()
	var bs []randomBatch
	for b := uint32(0); b < 16; b++ {
		bs = append(bs, randomBatch{src: []uint32{b, b + 16}, dst: []uint32{b + 16, b}})
	}
	logPerShard(t, dir, 32, 4, 0, bs)
	if got := logDirs(t, dir); len(got) != 4 {
		t.Fatalf("the four-shard layout wrote logs %v", got)
	}
	mirror := New(core.NewPaged(32, 1, 2), Options{})
	applyBatches(mirror, bs)
	want := edgeSet(mirror)
	mirror.Close()

	// Reopen with fewer shards: records from all four old logs replay in
	// LSN order and re-scatter by the new uniform map.
	re := openDur(t, dir, 32, 2, DurabilityOptions{})
	sameEdges(t, edgeSet(re), want, "4->2 shard reopen")
	if rst := re.Recovery(); rst.ReplayedRecords != 32 {
		t.Fatalf("replayed %d records, want 32: 16 batches of two shard parts", rst.ReplayedRecords)
	}
	// A checkpoint must cover the stale shard-1/2/3 logs so they can be GCed.
	if err := re.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after reshard: %v", err)
	}
	if got := logDirs(t, dir); !slices.Equal(got, []string{"shard-000"}) {
		t.Fatalf("logs %v after the first checkpoint, want shard-000 alone", got)
	}
	re.Close()

	re2 := openDur(t, dir, 32, 2, DurabilityOptions{})
	sameEdges(t, edgeSet(re2), want, "post-reshard checkpoint reopen")
	if n := re2.Recovery().ReplayedRecords; n != 0 {
		t.Fatalf("replayed %d records past a reshard checkpoint", n)
	}
	re2.Close()

	fresh := t.TempDir()
	st := openDur(t, fresh, 32, 4, DurabilityOptions{})
	applyBatches(st, bs)
	if got := st.Stats().WALRecords; got != uint64(len(bs)) {
		t.Fatalf("a four-shard store logged %d records for %d batches", got, len(bs))
	}
	st.Close()
	if got := logDirs(t, fresh); !slices.Equal(got, []string{"shard-000"}) {
		t.Fatalf("a fresh four-shard store wrote logs %v, want shard-000 alone", got)
	}
}

// logDirs lists the log directories under dir's wal directory.
func logDirs(t *testing.T, dir string) []string {
	t.Helper()
	es, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range es {
		names = append(names, e.Name())
	}
	return names
}

// logPerShard appends bs to dir's logs as a Store whose shards logged
// their own records wrote them: each batch scattered by the uniform map of
// n vertices over shards shards, one record per non-empty part in that
// shard's log, LSNs continuing after last.
func logPerShard(t *testing.T, dir string, n uint32, shards int, last uint64, bs []randomBatch) {
	t.Helper()
	l, err := wal.OpenLog(dir, shards, last, wal.Options{Fsync: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	g := core.NewPaged(n, shards, 1)
	pm := &core.PartitionMap{Starts: make([]uint32, shards)}
	for i := range pm.Starts {
		pm.Starts[i] = g.Shard(i).Base()
	}
	for _, b := range bs {
		op := uint8(wal.OpInsert)
		if b.del {
			op = wal.OpDelete
		}
		parts, _ := core.Scatter(pm, b.src, b.dst, 1)
		for i, p := range parts {
			if len(p.Src) == 0 {
				continue
			}
			if _, err := l.Append(i, op, 0, p.Src, p.Dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableFsyncAlways(t *testing.T) {
	dir := t.TempDir()
	st := openDur(t, dir, 8, 1, DurabilityOptions{Fsync: wal.FsyncAlways})
	st.InsertBatch([]uint32{1}, []uint32{2})
	st.Flush()
	if st.Stats().WALFsyncs == 0 {
		t.Fatal("fsync=always logged without syncing")
	}
	st.Close()
	re := openDur(t, dir, 8, 1, DurabilityOptions{})
	defer re.Close()
	v := re.View()
	if d := v.Degree(1); d != 1 {
		t.Fatalf("deg(1)=%d after reopen", d)
	}
	v.Release()
}

// TestFlushSyncsBesideApply pins where a durable Flush's fsync runs: on the
// caller's goroutine while the writer applies the batches ahead of the
// sentinel, not after them, so a Flush costs the longer of the two. The
// writer is held in its apply; the Flush's one fsync must happen anyway,
// and the Flush must still wait for the apply before it returns. FsyncNone
// leaves no group-commit fsync to stand in for the Flush's.
func TestFlushSyncsBesideApply(t *testing.T) {
	st := openDur(t, t.TempDir(), 8, 2, DurabilityOptions{Fsync: wal.FsyncNone})
	defer st.Close()
	parked, release := parkWriter(t)
	defer release() // before Close, which waits for the writer
	st.InsertBatch([]uint32{1, 6}, []uint32{2, 7})
	<-parked
	fsyncs := st.Stats().WALFsyncs
	flushed := make(chan struct{})
	go func() {
		st.Flush()
		close(flushed)
	}()
	for deadline := time.Now().Add(5 * time.Second); st.Stats().WALFsyncs == fsyncs; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Flush ran no fsync while the writer applied: it waits for the apply first")
		}
	}
	select {
	case <-flushed:
		t.Fatal("Flush returned before the batch ahead of it was applied")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	<-flushed
	if got := st.Stats().WALFsyncs - fsyncs; got != 1 {
		t.Fatalf("Flush ran %d fsyncs, want 1", got)
	}
	v := st.View()
	defer v.Release()
	if v.Degree(1) != 1 || v.Degree(6) != 1 {
		t.Fatal("the flushed batch is not visible")
	}
}

func TestCheckpointOnNonDurableStore(t *testing.T) {
	st := New(core.NewPaged(8, 1, 1), Options{})
	defer st.Close()
	if err := st.Checkpoint(); err != ErrNotDurable {
		t.Fatalf("Checkpoint on in-memory store: %v, want ErrNotDurable", err)
	}
	if st.Durable() {
		t.Fatal("in-memory store claims durability")
	}
}

// requireFreshStart checks that a recovered store's own history is that
// of a store just built by New on the same shard count: one first publish
// per shard and epoch 0, whatever recovery loaded and however long the WAL
// tail was — recovery happens on the graph, before the Store exists, and
// writes each recovered edge once, so even the cleaner has copied nothing.
func requireFreshStart(t *testing.T, re *Store) {
	t.Helper()
	// Read before anything else runs: the recovered store's group-commit
	// timer (1 ms in these tests) syncs its freshly opened logs at its first
	// tick, which is history of its own and not recovery's.
	got := re.Stats()
	fresh := New(core.NewPaged(8, re.Shards(), 2), Options{})
	defer fresh.Close()
	want := fresh.Stats()
	got.PublishedBytes, want.PublishedBytes = 0, 0 // a gauge of what is held, not history
	if got != want {
		t.Fatalf("recovered store's counters %+v, a fresh store's %+v", got, want)
	}
	v := re.View()
	defer v.Release()
	if v.Epoch() != 0 {
		t.Fatalf("recovered store starts at epoch %d", v.Epoch())
	}
	if err := checkStoreInvariants(re); err != nil {
		t.Fatal(err)
	}
	// The five phases run back to back inside the recovery's wall time, and
	// each that had work to do took some: reduce has none without a tail.
	r := re.Recovery()
	phases := []int64{r.LoadNanos, r.ScanNanos, r.ReduceNanos, r.MergeNanos, r.PublishNanos}
	var sum int64
	for _, ns := range phases {
		if ns < 0 {
			t.Fatalf("negative recovery phase: %+v", r)
		}
		sum += ns
	}
	if sum > r.DurationNanos || r.LoadNanos == 0 || r.ScanNanos == 0 || r.MergeNanos == 0 || r.PublishNanos == 0 ||
		(r.ReplayedEdges > 0) != (r.ReduceNanos > 0) {
		t.Fatalf("recovery phases %v do not fit %d ns with %d edges replayed", phases, r.DurationNanos, r.ReplayedEdges)
	}
}

// randomBatch is one batch of randomBatches.
type randomBatch struct {
	del      bool
	src, dst []uint32
}

// randomBatches returns k seeded batches of up to 24 edges over [0, n),
// every third a delete.
func randomBatches(seed int64, k int, n uint32) []randomBatch {
	r := rand.New(rand.NewSource(seed))
	bs := make([]randomBatch, k)
	for b := range bs {
		src := make([]uint32, 1+r.Intn(24))
		dst := make([]uint32, len(src))
		for i := range src {
			src[i], dst[i] = uint32(r.Intn(int(n))), uint32(r.Intn(int(n)))
		}
		bs[b] = randomBatch{del: b%3 == 2, src: src, dst: dst}
	}
	return bs
}

// applyBatches applies bs to st, flushing after each so each logs its own
// record.
func applyBatches(st *Store, bs []randomBatch) {
	for _, b := range bs {
		if b.del {
			st.DeleteBatch(b.src, b.dst)
		} else {
			st.InsertBatch(b.src, b.dst)
		}
		st.Flush()
	}
}

// randomUpdates applies randomBatches(seed, k, n) to st.
func randomUpdates(st *Store, seed int64, k int, n uint32) {
	applyBatches(st, randomBatches(seed, k, n))
}

// TestRecoveryBuildsOnlyPages reopens a checkpoint holding a vertex above M
// — a HITree in the bare engine — plus a WAL tail that changes every other
// vertex, so every page the checkpoint loads into is left half holes.
// Recovery must allocate no vertex block, array, RIA or HITree on the way,
// and the store must come out dense: on each shard nothing free or retired,
// and pages in use beyond its edges only in the one page being filled.
func TestRecoveryBuildsOnlyPages(t *testing.T) {
	const n, deg, hub, tailPage = 1 << 14, 16, 5000, 4 << 14
	dir := t.TempDir()
	st := openDur(t, dir, n, 2, DurabilityOptions{})
	var src, dst []uint32
	for v := uint32(0); v < n; v++ {
		for j := uint32(0); j < deg; j++ {
			src, dst = append(src, v), append(dst, (v*31+j*977)%n)
		}
	}
	for j := uint32(0); j < hub; j++ {
		src, dst = append(src, 7), append(dst, j*3)
	}
	st.InsertBatch(src, dst)
	st.Flush()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	src, dst = src[:0], dst[:0]
	for v := uint32(0); v < n; v += 2 {
		src, dst = append(src, v), append(dst, (v+1)%n)
	}
	st.InsertBatch(src, dst)
	st.DeleteBatch([]uint32{7, 7}, []uint32{0, 3})
	st.Flush()
	want := edgeSet(st)
	st.Close()

	// No group-commit tick during a recovery this size: it would count.
	re := openDur(t, dir, n, 2, DurabilityOptions{FsyncInterval: time.Hour})
	defer re.Close()
	requireFreshStart(t, re)
	if rst := re.Recovery(); !rst.CheckpointLoaded || rst.ReplayedRecords == 0 {
		t.Fatalf("recovery %+v, want a checkpoint and a tail", rst)
	}
	sameEdges(t, edgeSet(re), want, "checkpoint with a hub plus a tail")
	for i := range re.shards {
		sh := re.shards[i].shard
		ps, live := sh.Published(), 4*sh.NumEdges()
		if ps.Free != 0 || ps.Retired != 0 || ps.InUse > live+tailPage {
			t.Fatalf("shard %d of %d B of edges holds %+v", i, live, ps)
		}
	}
}

// TestRecoveryRefusesUnappliableRecord: a logged record naming vertex 2³²−1,
// which enqueue refuses now but may have taken before, fails the open with
// an error instead of a panic on its vertex-space bound, which wraps to 0.
func TestRecoveryRefusesUnappliableRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.OpenLog(dir, 1, 0, wal.Options{Fsync: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(0, wal.OpInsert, 0, []uint32{1, math.MaxUint32}, []uint32{2, 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := OpenDurable(8, 1, 2, Options{}, DurabilityOptions{Dir: dir}); err == nil {
		t.Fatal("OpenDurable replayed a record naming vertex 2^32-1")
	}
}

// TestRecoveryTailOrderAcrossShardLogs logs insert, delete and re-insert
// of the same edges, with sources in both shards, as consecutive records:
// the reduce must keep each edge's last op, or the deletes would be lost or
// win. The log is one for every shard, one record per batch.
func TestRecoveryTailOrderAcrossShardLogs(t *testing.T) {
	dir := t.TempDir()
	st := openDur(t, dir, 16, 2, DurabilityOptions{})
	st.InsertBatch([]uint32{1, 9}, []uint32{2, 3})
	st.Flush()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	both := func() ([]uint32, []uint32) { return []uint32{3, 12}, []uint32{4, 1} } // one source per shard
	for _, op := range []func([]uint32, []uint32){st.InsertBatch, st.DeleteBatch, st.InsertBatch} {
		op(both())
		st.Flush()
	}
	st.DeleteBatch([]uint32{12}, []uint32{1})
	st.Flush()
	want := edgeSet(st)
	st.Close()

	re := openDur(t, dir, 16, 2, DurabilityOptions{})
	defer re.Close()
	if rst := re.Recovery(); !rst.CheckpointLoaded || rst.ReplayedRecords != 4 {
		t.Fatalf("recovery %+v, want a checkpoint and 4 replayed records", rst)
	}
	sameEdges(t, edgeSet(re), want, "insert/delete/re-insert tail")
	v := re.View()
	if len(v.Neighbors(3)) != 1 || len(v.Neighbors(12)) != 0 {
		t.Fatalf("neighbors(3)=%v neighbors(12)=%v, want [4] and none", v.Neighbors(3), v.Neighbors(12))
	}
	v.Release()
	requireFreshStart(t, re)
}

// TestRecoveryTailBeyondCap replays a tail of 1 200 batches that alternate
// op over the same 40 edges — half of them checkpointed, half not, sources in
// both shards, each batch a random share of them — so every edge is inserted
// and deleted hundreds of times and only its last op decides it. The store
// must come out as it was, with a fresh store's counters.
func TestRecoveryTailBeyondCap(t *testing.T) {
	const n, batches = 64, 1200
	dir := t.TempDir()
	st := openDur(t, dir, n, 2, DurabilityOptions{Fsync: wal.FsyncNone})
	var pool [][2]uint32
	for v := uint32(0); v < n; v += 3 {
		pool = append(pool, [2]uint32{v, (v*7 + 1) % n})
	}
	pool = pool[:min(len(pool), 20)]
	var cs, cd []uint32
	for _, e := range pool {
		cs, cd = append(cs, e[0]), append(cd, e[1])
	}
	st.InsertBatch(cs, cd)
	st.Flush()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for v := uint32(1); len(pool) < 40; v += 3 {
		pool = append(pool, [2]uint32{v, (v*5 + 2) % n})
	}
	r := rand.New(rand.NewSource(9))
	for b := 0; b < batches; b++ {
		var src, dst []uint32
		for _, e := range pool {
			if r.Intn(3) > 0 {
				src, dst = append(src, e[0]), append(dst, e[1])
			}
		}
		if b%2 == 0 {
			st.InsertBatch(src, dst)
		} else {
			st.DeleteBatch(src, dst)
		}
		st.Flush()
	}
	want := edgeSet(st)
	st.Close()

	re := openDur(t, dir, n, 2, DurabilityOptions{})
	defer re.Close()
	if rst := re.Recovery(); !rst.CheckpointLoaded || rst.ReplayedRecords < batches {
		t.Fatalf("recovery %+v, want a checkpoint and ≥ %d replayed records", rst, batches)
	}
	sameEdges(t, edgeSet(re), want, "a tail alternating op over the same edges")
	requireFreshStart(t, re)
}

// TestRecoveryTailGrowsVertexSpace replays records naming vertices the
// checkpoint never saw: the tail brings its own vertex bound.
func TestRecoveryTailGrowsVertexSpace(t *testing.T) {
	dir := t.TempDir()
	st := openDur(t, dir, 16, 2, DurabilityOptions{})
	st.InsertBatch([]uint32{1, 9}, []uint32{2, 3})
	st.Flush()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.InsertBatch([]uint32{2, 120}, []uint32{100, 3})
	st.DeleteBatch([]uint32{7}, []uint32{300}) // a delete reserves its IDs too
	st.Flush()
	want, nv := edgeSet(st), st.NumVertices()
	st.Close()

	re := openDur(t, dir, 16, 2, DurabilityOptions{})
	defer re.Close()
	if rst := re.Recovery(); rst.CheckpointVertices != 16 || re.NumVertices() != nv || nv != 301 {
		t.Fatalf("checkpoint of %d vertices recovered to %d, want %d (301)", rst.CheckpointVertices, re.NumVertices(), nv)
	}
	sameEdges(t, edgeSet(re), want, "tail above the checkpoint's vertex bound")
	requireFreshStart(t, re)
}

// TestRecoveryAcrossShardCounts checkpoints at two shards, logs a tail
// past it, and then a second tail in the layout Stores wrote when each
// shard logged its own records — four logs — and reopens the directory at
// one, four and two shards: the checkpoint's CSRs are routed by the new
// map vertex by vertex, both tails are re-scattered by it.
func TestRecoveryAcrossShardCounts(t *testing.T) {
	dir := t.TempDir()
	st := openDur(t, dir, 64, 2, DurabilityOptions{})
	mirror := New(core.NewPaged(64, 1, 2), Options{})
	defer mirror.Close()
	for _, s := range []*Store{st, mirror} {
		randomUpdates(s, 1, 60, 64)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Store{st, mirror} {
		randomUpdates(s, 2, 30, 64)
	}
	st.Close()
	last, _, err := wal.Replay(dir, func(int) uint64 { return math.MaxUint64 }, nil, func(wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	tail := randomBatches(3, 30, 64)
	logPerShard(t, dir, 64, 4, last, tail)
	applyBatches(mirror, tail)
	want := edgeSet(mirror)

	for _, shards := range []int{1, 4, 2} {
		re := openDur(t, dir, 64, shards, DurabilityOptions{})
		if rst := re.Recovery(); !rst.CheckpointLoaded || rst.ReplayedRecords < 60 {
			t.Fatalf("S=%d: recovery %+v, want a checkpoint and both tails", shards, rst)
		}
		sameEdges(t, edgeSet(re), want, "reopen at another shard count")
		requireFreshStart(t, re)
		re.Close()
	}
}

// TestRecoveryFallsBackAcrossRotatedLog damages the newest checkpoint of a
// store whose log rotated many times between its two checkpoints. The
// predecessor must load and the replay must cover everything since it —
// which it can only do because segment GC runs one checkpoint behind.
// With both checkpoints damaged the open must fail, not serve the tail.
func TestRecoveryFallsBackAcrossRotatedLog(t *testing.T) {
	dir := t.TempDir()
	dopt := DurabilityOptions{SegmentBytes: 1 << 9}
	st := openDur(t, dir, 64, 2, dopt)
	randomUpdates(st, 1, 30, 64)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	randomUpdates(st, 2, 30, 64)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	randomUpdates(st, 3, 10, 64)
	want := edgeSet(st)
	st.Close()

	ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoint", "ckpt-*"))
	sort.Strings(ckpts)
	if len(ckpts) != 2 {
		t.Fatalf("retained checkpoints %v, want two", ckpts)
	}
	damage := func(ckpt string) {
		shard := filepath.Join(ckpt, "shard-000.snap")
		b, err := os.ReadFile(shard)
		if err != nil || len(b) == 0 {
			t.Fatalf("read %s: %v", shard, err)
		}
		b[len(b)/2] ^= 0x40
		if err := os.WriteFile(shard, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damage(ckpts[1])
	re := openDur(t, dir, 64, 2, dopt)
	rst := re.Recovery()
	if !rst.CheckpointLoaded || rst.ReplayedRecords < 40 {
		t.Fatalf("recovery %+v, want the predecessor plus both later runs of records", rst)
	}
	sameEdges(t, edgeSet(re), want, "predecessor checkpoint plus the log since")
	requireFreshStart(t, re)
	re.Close()

	damage(ckpts[0])
	_, err := OpenDurable(64, 2, 2, Options{}, DurabilityOptions{Dir: dir})
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open with every checkpoint damaged: %v, want ErrCorrupt", err)
	}
}

// TestTailReduceKeepsLastOp reduces tails against a map that replays the
// same records in order: IDs narrow enough to pack the run index beside an
// edge and IDs past 2³¹ (the pairs sort), ops that change every record,
// never, or at random, and a tail of many chunks that alternates op over a
// small pool of edges. The delta must hold each edge named once, ascending,
// with its last op.
func TestTailReduceKeepsLastOp(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name             string
		records, maxEdge int
		ids              []uint32
		change           func(i int) bool
	}{
		{"alternating", 300, 40, []uint32{0, 1, 2, 3, 5, 8, 13, 21, 34, 55}, func(int) bool { return true }},
		{"one-op", 300, 40, []uint32{0, 7, 1 << 20, 1<<20 + 1}, func(int) bool { return false }},
		{"random", 300, 40, []uint32{4, 9, 16, 1000, 1001}, func(int) bool { return rng.Intn(3) == 0 }},
		{"wide-alternating", 300, 40, []uint32{0, 1, 1 << 31, math.MaxUint32 - 1}, func(int) bool { return true }},
		{"wide-random", 300, 40, []uint32{6, 1<<31 + 5, math.MaxUint32 - 2}, func(int) bool { return rng.Intn(2) == 0 }},
		{"many-chunks", 3000, 200, []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1 << 14}, func(int) bool { return true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tl tail
			want := map[uint64]bool{} // edge → deleted by its last op
			op := uint8(rng.Intn(2))
			for i := 0; i < tc.records; i++ {
				if tc.change(i) {
					op ^= 1
				}
				src, dst := make([]uint32, 1+rng.Intn(tc.maxEdge)), []uint32(nil)
				for j := range src {
					src[j] = tc.ids[rng.Intn(len(tc.ids))]
					dst = append(dst, tc.ids[rng.Intn(len(tc.ids))])
					want[uint64(src[j])<<32|uint64(dst[j])] = op == wal.OpDelete
				}
				if err := tl.add(wal.Record{LSN: uint64(i + 1), Op: op, Src: src, Dst: dst}); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range []int{1, 2, 4} {
				d := tl.clone().reduce(p)
				if len(d.Keys) != len(want) || len(d.Del) != len(d.Keys) {
					t.Fatalf("p=%d: %d edges with %d ops, want %d", p, len(d.Keys), len(d.Del), len(want))
				}
				for i, k := range d.Keys {
					if i > 0 && k <= d.Keys[i-1] {
						t.Fatalf("p=%d: edge %d (%d,%d) not above its predecessor", p, i, k>>32, uint32(k))
					}
					if del, ok := want[k]; !ok || del != d.Del[i] {
						t.Fatalf("p=%d: edge (%d,%d) reduced to delete=%v, its last op deletes=%v (named: %v)", p, k>>32, uint32(k), d.Del[i], del, ok)
					}
				}
			}
		})
	}
}

// clone is a copy of the tail that reduce may consume.
func (t *tail) clone() *tail {
	c := *t
	c.chunks = make([][]uint64, len(t.chunks))
	for i, ch := range t.chunks {
		c.chunks[i] = slices.Clone(ch)
	}
	return &c
}
