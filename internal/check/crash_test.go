package check

import (
	"fmt"
	"os"
	"testing"
	"time"

	"lsgraph/internal/refgraph"
	"lsgraph/internal/serve"
	"lsgraph/internal/wal"
)

// crashPoints is the lifecycle matrix: every place the WAL can be frozen,
// each exercised at an early and a later occurrence where that differs.
var crashPoints = []CrashPoint{
	{Kind: wal.EvAppend, Nth: 1},              // crash on the very first append
	{Kind: wal.EvAppend, Nth: 17},             // mid-workload append, record dropped
	{Kind: wal.EvAppend, Nth: 9, Torn: true},  // mid-workload append, half a frame on disk
	{Kind: wal.EvAppend, Nth: 23, Torn: true}, // torn tail later in the log
	{Kind: wal.EvSync, Nth: 5},                // record written, killed before its fsync
	{Kind: wal.EvCheckpointFile, Nth: 1},      // mid-checkpoint tmp write, never renamed
	{Kind: wal.EvCheckpointDone, Nth: 1},      // checkpoint renamed, killed before WAL GC
	{Kind: wal.EvReplayRecord, Nth: 4},        // killed while recovering
	{Kind: wal.EvAppend, Nth: 1 << 30},        // never fires: clean kill-free baseline
}

// planFor builds the standard matrix workload for one shard count and
// crash point. EvSync points run under FsyncAlways so sync events track
// appends one-to-one; everything else uses FsyncNone, which leaves the
// process-kill durability model unchanged and keeps event counts exactly
// deterministic.
func planFor(shards int, pt CrashPoint) CrashPlan {
	fsync := wal.FsyncNone
	if pt.Kind == wal.EvSync {
		fsync = wal.FsyncAlways
	}
	return CrashPlan{
		Seed:              int64(shards)*1000 + int64(pt.Nth),
		Shards:            shards,
		Vertices:          48,
		Batches:           40,
		BatchLen:          5,
		DeleteEvery:       4,
		CheckpointBatches: 15,
		Fsync:             fsync,
		Point:             pt,
	}
}

// TestCrashMatrix runs every crash point at 1, 2, and 4 shards: the
// recovered store must equal the oracle that replays exactly the acked
// records, and must keep accepting durable writes afterwards.
func TestCrashMatrix(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, pt := range crashPoints {
			t.Run(fmt.Sprintf("S%d/%v", shards, pt), func(t *testing.T) {
				rep, err := RunCrash(t.TempDir(), planFor(shards, pt))
				if err != nil {
					t.Fatal(err)
				}
				if pt.Nth < 1<<30 && !rep.Fired {
					t.Fatalf("crash point %v never fired (workload too small?)", pt)
				}
				if pt.Nth == 1<<30 && rep.Recovery.ReplayedRecords == 0 {
					t.Fatalf("clean-kill baseline replayed nothing: %+v", rep.Recovery)
				}
				if pt.Nth == 1<<30 && rep.Driven.Checkpoints == 0 {
					t.Fatal("clean-kill baseline published no checkpoint")
				}
			})
		}
	}
}

// TestCrashTornTailTruncated pins the torn-append contract: the
// half-written frame is counted and truncated by recovery, not replayed.
func TestCrashTornTailTruncated(t *testing.T) {
	rep, err := RunCrash(t.TempDir(), planFor(2, CrashPoint{Kind: wal.EvAppend, Nth: 11, Torn: true}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovery.TornBytes == 0 || rep.Recovery.TruncatedSegments == 0 {
		t.Fatalf("torn tail not truncated: %+v", rep.Recovery)
	}
	if rep.Lost == nil {
		t.Fatal("torn crash recorded no lost record")
	}
}

// TestCrashSyncKeepsRecord pins the EvSync contract: the record whose
// fsync was killed had already been written, so it survives — the
// recovered store must contain the acked prefix INCLUDING that record
// (which the recorder acked at its append event).
func TestCrashSyncKeepsRecord(t *testing.T) {
	rep, err := RunCrash(t.TempDir(), planFor(1, CrashPoint{Kind: wal.EvSync, Nth: 7}))
	if err != nil {
		t.Fatal(err)
	}
	// Under FsyncAlways, sync N follows append N: 7 appends were acked
	// before the kill and all must have replayed.
	if got := len(rep.Acked); got != 7 {
		t.Fatalf("acked %d records before sync-7 kill, want 7", got)
	}
	if rep.Recovery.ReplayedRecords != 7 {
		t.Fatalf("replayed %d records, want 7: %+v", rep.Recovery.ReplayedRecords, rep.Recovery)
	}
}

// TestCrashHarnessDetectsLoss is the harness self-test: a harness that
// cannot see a lost acked record proves nothing. Build the oracle the
// WRONG way — acked records plus the record the crash dropped — and
// require CompareDurable to flag the divergence. The workload inserts
// unique edges so the dropped record always changes the graph.
func TestCrashHarnessDetectsLoss(t *testing.T) {
	dir := t.TempDir()
	rec := newCrashRecorder(CrashPoint{Kind: wal.EvAppend, Nth: 6})
	s, err := serve.OpenDurable(32, 1, 2, serve.Options{}, serve.DurabilityOptions{
		Dir: dir, Fsync: wal.FsyncNone, Hook: rec.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	for b := uint32(0); b < 10; b++ {
		s.InsertBatch([]uint32{b}, []uint32{b + 16}) // unique edge per record
	}
	s.Flush()
	s.Close()
	if !rec.fired || rec.lost == nil {
		t.Fatal("crash point never fired")
	}

	s2, err := serve.OpenDurable(32, 1, 2, serve.Options{}, serve.DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	good := refgraph.New(32)
	ApplyLogged(good, rec.acked)
	if err := CompareDurable(s2, good); err != nil {
		t.Fatalf("correct oracle diverged: %v", err)
	}
	bad := refgraph.New(32)
	ApplyLogged(bad, rec.acked)
	ApplyLogged(bad, []LoggedOp{*rec.lost})
	if err := CompareDurable(s2, bad); err == nil {
		t.Fatal("harness blind spot: oracle including the lost record compared equal")
	}
}

// TestSoakRecover is the long-haul sweep behind `make soak`: fresh seeds
// until the budget runs out, random crash points drawn from the full
// matrix, at every shard count.
func TestSoakRecover(t *testing.T) {
	deadline := time.Now().Add(soakBudget(t))
	root := t.TempDir()
	seeds := 0
	for seed := int64(1); time.Now().Before(deadline); seed++ {
		for _, shards := range []int{1, 2, 4} {
			pt := crashPoints[int(seed)%len(crashPoints)]
			plan := planFor(shards, pt)
			plan.Seed = seed * 7919
			plan.Batches = 120
			// Not t.TempDir(): that keeps every scenario's log on disk
			// until the test returns, and this loop runs for hours.
			dir, err := os.MkdirTemp(root, "")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunCrash(dir, plan); err != nil {
				t.Fatalf("seed %d shards %d point %v: %v", seed, shards, pt, err)
			}
			os.RemoveAll(dir)
			seeds++
		}
	}
	t.Logf("soak: %d kill-and-recover scenarios passed", seeds)
}
