package check

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"lsgraph/internal/refgraph"
	"lsgraph/internal/serve"
	"lsgraph/internal/wal"
)

// never is an ordinal no workload reaches.
const never = 1 << 30

// crashScenarios is the matrix: where the workload's file system freezes
// (point) and where the first recovery's does (reopen). The names are the
// lifecycle points each scenario kills at.
var crashScenarios = []struct {
	name          string
	point, reopen FaultPoint
}{
	// Crash on the very first append.
	{"append-1", FaultPoint{Op: OpWrite, Files: SegmentFiles, Nth: 1}, FaultPoint{}},
	// Mid-workload append, record refused.
	{"append-17", FaultPoint{Op: OpWrite, Files: SegmentFiles, Nth: 17}, FaultPoint{}},
	// Mid-workload append, half a frame on disk.
	{"append-9-torn", FaultPoint{Op: OpWrite, Files: SegmentFiles, Nth: 9, Torn: true}, FaultPoint{}},
	// A torn tail later in the log.
	{"append-23-torn", FaultPoint{Op: OpWrite, Files: SegmentFiles, Nth: 23, Torn: true}, FaultPoint{}},
	// Record written, killed at its fsync (the plan runs FsyncAlways).
	{"sync-5", FaultPoint{Op: OpSync, Files: SegmentFiles, Nth: 5}, FaultPoint{}},
	// Mid-checkpoint: the first shard file refused, the tmp dir never renamed.
	{"checkpoint-file-1", FaultPoint{Op: OpWrite, Files: CheckpointFiles, Nth: 1}, FaultPoint{}},
	// Mid-checkpoint: half of the first shard file written.
	{"checkpoint-file-1-torn", FaultPoint{Op: OpWrite, Files: CheckpointFiles, Nth: 1, Torn: true}, FaultPoint{}},
	// The checkpoint complete in its tmp dir, its rename refused.
	{"checkpoint-rename-1", FaultPoint{Op: OpRename, Files: CheckpointFiles, Nth: 1}, FaultPoint{}},
	// Checkpoint renamed into place, killed syncing its root: before WAL GC.
	{"checkpoint-done-1", FaultPoint{Op: OpSyncDir, Files: CheckpointFiles, Nth: 2}, FaultPoint{}},
	// Killed while recovering: replay has scanned the log, and the first
	// append target fails to open.
	{"replay-record-4", FaultPoint{}, FaultPoint{Op: OpOpen, Files: SegmentFiles, Nth: 1}},
	// A torn tail, and the recovery that would truncate it killed there.
	{"replay-truncate-1", FaultPoint{Op: OpWrite, Files: SegmentFiles, Nth: 11, Torn: true}, FaultPoint{Op: OpTruncate, Files: SegmentFiles, Nth: 1}},
	// Never fires: the clean baseline.
	{"append-1073741824", FaultPoint{Op: OpWrite, Files: SegmentFiles, Nth: never}, FaultPoint{}},
}

// planFor builds the standard matrix workload for one shard count and
// crash scenario. Sync points run under FsyncAlways, so that segment syncs
// track appends one-to-one; everything else uses FsyncNone, which leaves
// the process-kill durability model unchanged. Both keep the file
// operations exactly repeatable.
func planFor(shards int, point, reopen FaultPoint) CrashPlan {
	fsync := wal.FsyncNone
	if point.Op == OpSync {
		fsync = wal.FsyncAlways
	}
	return CrashPlan{
		Seed:              int64(shards)*1000 + int64(point.Nth),
		Shards:            shards,
		Vertices:          48,
		Batches:           40,
		BatchLen:          5,
		DeleteEvery:       4,
		CheckpointBatches: 15,
		Fsync:             fsync,
		Point:             point,
		Reopen:            reopen,
	}
}

// TestCrashMatrix runs every crash scenario at 1, 2, and 4 shards: the
// recovered store must equal the oracle that replays exactly the acked
// records, and must keep accepting durable writes afterwards.
func TestCrashMatrix(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, sc := range crashScenarios {
			t.Run(fmt.Sprintf("S%d/%s", shards, sc.name), func(t *testing.T) {
				rep, err := RunCrash(t.TempDir(), planFor(shards, sc.point, sc.reopen))
				if err != nil {
					t.Fatal(err)
				}
				if sc.point.Nth != 0 && sc.point.Nth != never && !rep.Drive.Fired() {
					t.Fatalf("crash point %+v never fired (workload too small?)", sc.point)
				}
				if sc.reopen.Nth != 0 && !rep.Reopen.Fired() {
					t.Fatalf("recovery crash point %+v never fired", sc.reopen)
				}
				if sc.point.Nth == never && rep.Recovery.ReplayedRecords == 0 {
					t.Fatalf("clean baseline replayed nothing: %+v", rep.Recovery)
				}
				if sc.point.Nth == never && rep.Drive.Counts()[OpRename][CheckpointFiles] == 0 {
					t.Fatal("clean baseline published no checkpoint")
				}
			})
		}
	}
}

// TestCrashTornTailTruncated pins the torn-append contract: the
// half-written frame is counted and truncated by recovery, not replayed.
func TestCrashTornTailTruncated(t *testing.T) {
	rep, err := RunCrash(t.TempDir(), planFor(2, FaultPoint{Op: OpWrite, Files: SegmentFiles, Nth: 11, Torn: true}, FaultPoint{}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovery.TornBytes == 0 || rep.Recovery.TruncatedSegments == 0 {
		t.Fatalf("torn tail not truncated: %+v", rep.Recovery)
	}
	if rep.Drive.Lost() == nil {
		t.Fatal("torn crash recorded no lost record")
	}
}

// TestCrashSyncKeepsRecord pins the fsync contract: the record whose fsync
// was killed had already been written, so it survives — the recovered
// store must contain the acked prefix INCLUDING that record.
func TestCrashSyncKeepsRecord(t *testing.T) {
	rep, err := RunCrash(t.TempDir(), planFor(1, FaultPoint{Op: OpSync, Files: SegmentFiles, Nth: 7}, FaultPoint{}))
	if err != nil {
		t.Fatal(err)
	}
	// Under FsyncAlways, sync N follows append N: 7 appends were acked
	// before the kill and all must have replayed.
	if got := len(rep.Drive.Acked()); got != 7 {
		t.Fatalf("acked %d records before sync-7 kill, want 7", got)
	}
	if rep.Recovery.ReplayedRecords != 7 {
		t.Fatalf("replayed %d records, want 7: %+v", rep.Recovery.ReplayedRecords, rep.Recovery)
	}
}

// TestCrashHarnessDetectsLoss is the harness self-test: a harness that
// cannot see a lost acked record proves nothing. Build the oracle the
// WRONG way — acked records plus the record the crash refused — and
// require CompareDurable to flag the divergence. The workload inserts
// unique edges so the refused record always changes the graph.
func TestCrashHarnessDetectsLoss(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(dir, FaultPoint{Op: OpWrite, Files: SegmentFiles, Nth: 6})
	s, err := serve.OpenDurable(32, 1, 2, serve.Options{}, serve.DurabilityOptions{
		Dir: dir, Fsync: wal.FsyncNone, FS: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	for b := uint32(0); b < 10; b++ {
		s.InsertBatch([]uint32{b}, []uint32{b + 16}) // unique edge per record
	}
	s.Flush()
	s.Close()
	if !fs.Fired() || fs.Lost() == nil {
		t.Fatal("crash point never fired")
	}

	s2, err := serve.OpenDurable(32, 1, 2, serve.Options{}, serve.DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	good := refgraph.New(32)
	ApplyLogged(good, fs.Acked())
	if err := CompareDurable(s2, good); err != nil {
		t.Fatalf("correct oracle diverged: %v", err)
	}
	bad := refgraph.New(32)
	ApplyLogged(bad, fs.Acked())
	ApplyLogged(bad, []wal.Record{*fs.Lost()})
	if err := CompareDurable(s2, bad); err == nil {
		t.Fatal("harness blind spot: oracle including the lost record compared equal")
	}
}

// drawPoint draws a crash point from a fault-free run's operation counts:
// an operation kind the run asked for, uniformly, then one of its
// ordinals, and for a Write whether to tear it.
func drawPoint(rng *rand.Rand, ops OpCounts) FaultPoint {
	var kinds []FileOp
	for op := FileOp(0); op < NumFileOps; op++ {
		if ops[op][AnyFile] > 0 {
			kinds = append(kinds, op)
		}
	}
	op := kinds[rng.Intn(len(kinds))]
	return FaultPoint{Op: op, Nth: 1 + rng.Intn(ops[op][AnyFile]), Torn: op == OpWrite && rng.Intn(2) == 0}
}

// TestSoakRecover is the long-haul sweep behind `make soak`: fresh seeds
// until the budget runs out, at every shard count. Each seed's plan runs
// once without a fault, and its crash point is drawn from the file
// operations that run counted, so over time the soak crashes at every
// operation the workload makes.
func TestSoakRecover(t *testing.T) {
	deadline := time.Now().Add(soakBudget(t))
	root := t.TempDir()
	runs := 0
	// Not t.TempDir(): that keeps every scenario's log on disk until the
	// test returns, and this loop runs for hours.
	run := func(plan CrashPlan) *CrashReport {
		dir, err := os.MkdirTemp(root, "")
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		rep, err := RunCrash(dir, plan)
		if err != nil {
			t.Fatalf("seed %d shards %d fsync %v point %+v: %v", plan.Seed, plan.Shards, plan.Fsync, plan.Point, err)
		}
		return rep
	}
	for seed := int64(1); time.Now().Before(deadline); seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, shards := range []int{1, 2, 4} {
			plan := planFor(shards, FaultPoint{}, FaultPoint{})
			plan.Seed = seed * 7919
			plan.Batches = 120
			if rng.Intn(2) == 0 {
				plan.Fsync = wal.FsyncAlways
			}
			plan.Point = drawPoint(rng, run(plan).Drive.Counts())
			if !run(plan).Drive.Fired() {
				t.Fatalf("seed %d shards %d: point %+v drawn from the dry run never fired", plan.Seed, shards, plan.Point)
			}
			runs++
		}
	}
	t.Logf("soak: %d kill-and-recover scenarios passed", runs)
}
