package check

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"lsgraph/internal/obs"
	"lsgraph/internal/refgraph"
	"lsgraph/internal/serve"
	"lsgraph/internal/wal"
)

// appendN appends n single-edge insert records to shard 0 of l and returns
// the first error.
func appendN(l *wal.Log, n int) error {
	for i := 0; i < n; i++ {
		if _, err := l.Append(0, wal.OpInsert, 0, []uint32{uint32(i)}, []uint32{uint32(i + 1)}); err != nil {
			return err
		}
	}
	return nil
}

// replayLSNs replays dir from the start on the OS and returns the LSNs it
// hands on.
func replayLSNs(t *testing.T, dir string) ([]uint64, wal.ReplayStats) {
	t.Helper()
	var lsns []uint64
	_, st, err := wal.Replay(dir, func(int) uint64 { return 0 }, nil, func(r wal.Record) error {
		lsns = append(lsns, r.LSN)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return lsns, st
}

// TestFaultFSFreezesLog checks that a frozen file system freezes the log:
// the append it lands on and every later write, checkpoint and GC fail with
// ErrFrozen, and the disk keeps exactly the records written before.
func TestFaultFSFreezesLog(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(dir, FaultPoint{Op: OpWrite, Files: SegmentFiles, Nth: 4})
	l, err := wal.OpenLog(dir, 1, 0, wal.Options{Fsync: wal.FsyncNone, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendN(l, 3); err != nil {
		t.Fatal(err)
	}
	if err := appendN(l, 1); !errors.Is(err, ErrFrozen) {
		t.Fatalf("append at the fault point: %v", err)
	}
	if err := appendN(l, 1); !errors.Is(err, ErrFrozen) {
		t.Fatalf("append after the freeze: %v", err)
	}
	if err := l.WriteCheckpoint(&wal.Checkpoint{N: 1, Shards: []wal.ShardSnap{{Offs: []uint64{0, 0}}}}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("checkpoint after the freeze: %v", err)
	}
	if _, err := l.GC([]uint64{99}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("gc after the freeze: %v", err)
	}
	if err := l.Close(); !errors.Is(err, ErrFrozen) {
		t.Fatalf("close after the freeze: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint")); !os.IsNotExist(err) {
		t.Fatalf("a frozen checkpoint touched the disk: %v", err)
	}
	if lsns, _ := replayLSNs(t, dir); !slices.Equal(lsns, []uint64{1, 2, 3}) {
		t.Fatalf("disk moved after the freeze: records %v", lsns)
	}
}

// TestFaultFSTornAppend checks the two crashes an append can meet: a
// refused Write leaves no trace, a torn one half a frame that replay
// truncates; either way only the records before it replay, and the
// oracle has the crashed one as lost.
func TestFaultFSTornAppend(t *testing.T) {
	for _, torn := range []bool{false, true} {
		dir := t.TempDir()
		fs := NewFaultFS(dir, FaultPoint{Op: OpWrite, Files: SegmentFiles, Nth: 3, Torn: torn})
		l, err := wal.OpenLog(dir, 1, 0, wal.Options{Fsync: wal.FsyncAlways, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		if err := appendN(l, 3); !errors.Is(err, ErrFrozen) {
			t.Fatalf("torn=%v: append 3: %v", torn, err)
		}
		l.Close()
		lsns, st := replayLSNs(t, dir)
		if !slices.Equal(lsns, []uint64{1, 2}) {
			t.Fatalf("torn=%v: the crashed append leaked: records %v", torn, lsns)
		}
		if want := map[bool]int{false: 0, true: 1}[torn]; st.TruncatedSegments != want || (st.TornBytes > 0) != torn {
			t.Fatalf("torn=%v: truncation stats %+v", torn, st)
		}
		if acked := fs.Acked(); len(acked) != 2 || fs.Lost() == nil || fs.Lost().LSN != 3 {
			t.Fatalf("torn=%v: oracle acked %d records, lost %+v", torn, len(acked), fs.Lost())
		}
	}
}

// TestShortAppendKeepsLaterBatches runs a durable store whose disk comes
// up short on one segment write (half a frame written, then ENOSPC): the
// reopened store must hold every batch logged after it, and miss only the
// record that write lost.
func TestShortAppendKeepsLaterBatches(t *testing.T) {
	const n, shards = 64, 2
	dir := t.TempDir()
	fs := NewFaultFS(dir, FaultPoint{Op: OpWrite, Files: SegmentFiles, Nth: 5, Torn: true, Err: syscall.ENOSPC})
	s, err := serve.OpenDurable(n, shards, 2, serve.Options{}, serve.DurabilityOptions{Dir: dir, Fsync: wal.FsyncNone, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for b := uint32(0); b < 16; b++ {
		s.InsertBatch([]uint32{b, b + 32}, []uint32{b + 16, b + 48})
		s.Flush()
	}
	s.Close()
	lost := fs.Lost()
	if lost == nil {
		t.Fatal("the short write never fired")
	}
	acked := fs.Acked()
	if last := acked[len(acked)-1].LSN; last < lost.LSN {
		t.Fatalf("no record was logged after the short write (LSN %d): the test proves nothing", lost.LSN)
	}
	want := refgraph.New(n)
	ApplyLogged(want, acked)
	re, err := serve.OpenDurable(n, shards, 2, serve.Options{}, serve.DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := CompareDurable(re, want); err != nil {
		t.Fatal(err)
	}
}

// TestReplayFailedRemoveFailsRecovery checks that recovery fails when it
// cannot remove a segment past a corrupt frame, instead of leaving records
// beyond the gap to the log's next append and the next recovery, and that
// it cuts in an order a retry repeats: the segments past the frame go
// before the frame's segment is truncated.
func TestReplayFailedRemoveFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.OpenLog(dir, 1, 0, wal.Options{Fsync: wal.FsyncNone, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendN(l, 8); err != nil {
		t.Fatal(err)
	}
	l.Close()
	sd := filepath.Join(dir, "wal", "shard-000")
	segs, _ := filepath.Glob(filepath.Join(sd, "*.wal"))
	if len(segs) != 2 {
		t.Fatalf("want a sealed segment and a newer one, have %d segments", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	var clean []uint64
	wal.ScanSegment(data, func(r wal.Record) error { clean = append(clean, r.LSN); return nil })

	fault := NewFaultFS(dir, FaultPoint{Op: OpRemove, Files: SegmentFiles, Nth: 1, Err: syscall.EIO})
	if s, err := serve.OpenDurable(16, 1, 1, serve.Options{}, serve.DurabilityOptions{Dir: dir, FS: fault}); !errors.Is(err, syscall.EIO) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("recovery past a failed remove: %v, want EIO", err)
	}
	if fi, err := os.Stat(segs[0]); err != nil || fi.Size() != int64(len(data)) {
		t.Fatalf("the corrupt segment was cut before the segment past it went: %v, %v", fi, err)
	}
	lsns, st := replayLSNs(t, dir)
	if st.DroppedSegments != 1 || st.TruncatedSegments != 1 || !slices.Equal(lsns, clean) {
		t.Fatalf("retry replayed %v with %+v; want %v, one segment dropped", lsns, st, clean)
	}
}

// publishedCheckpoints lists dir's published checkpoint directories.
func publishedCheckpoints(t *testing.T, dir string) []string {
	t.Helper()
	es, _ := os.ReadDir(filepath.Join(dir, "checkpoint"))
	var names []string
	for _, e := range es {
		if strings.HasPrefix(e.Name(), "ckpt-") && !strings.HasSuffix(e.Name(), ".tmp") {
			names = append(names, e.Name())
		}
	}
	return names
}

// segmentFiles lists dir's WAL segments.
func segmentFiles(dir string) []string {
	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "*", "*.wal"))
	return segs
}

// TestCheckpointFaultsKeepLog injects the faults a checkpoint meets
// without a crash — a full disk on a shard file, a failed fsync in the
// WAL sync that precedes it — into a checkpoint whose GC would otherwise
// remove segments. The checkpoint must fail with the fault's error,
// publish nothing and remove no segment, and a reopen must recover
// exactly the records written.
func TestCheckpointFaultsKeepLog(t *testing.T) {
	const shards = 2
	// run writes three rounds of batches, each flushed, checkpointing after
	// the first two, and returns the file operations counted before the
	// third checkpoint, which it leaves to the caller.
	run := func(dir string, fsys *FaultFS) (*serve.Store, OpCounts) {
		s, err := serve.OpenDurable(64, shards, 2, serve.Options{}, serve.DurabilityOptions{
			Dir: dir, Fsync: wal.FsyncNone, SegmentBytes: 256, FS: fsys,
		})
		if err != nil {
			t.Fatal(err)
		}
		for round := uint32(0); round < 3; round++ {
			for b := uint32(0); b < 8; b++ {
				s.InsertBatch([]uint32{round*8 + b, b}, []uint32{b + 1, round*8 + b + 32})
			}
			s.Flush()
			if round < 2 {
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s, fsys.Counts()
	}
	dry := t.TempDir()
	s, before := run(dry, NewFaultFS(dry, FaultPoint{}))
	gced := s.Stats().SegmentsGCed
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().SegmentsGCed == gced {
		t.Fatal("the third checkpoint removes no segment even without a fault: the test proves nothing")
	}
	s.Close()

	for _, tc := range []struct {
		name string
		pt   FaultPoint
	}{
		{"shard-file-enospc", FaultPoint{Op: OpWrite, Files: CheckpointFiles, Nth: before[OpWrite][CheckpointFiles] + 1, Err: syscall.ENOSPC}},
		{"wal-fsync-eio", FaultPoint{Op: OpSync, Files: SegmentFiles, Nth: before[OpSync][SegmentFiles] + 1, Err: syscall.EIO}},
	} {
		pt := tc.pt
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := NewFaultFS(dir, pt)
			s, _ := run(dir, fs)
			ckpts, segs := publishedCheckpoints(t, dir), segmentFiles(dir)
			err := s.Checkpoint()
			if !errors.Is(err, pt.Err) || !fs.Fired() {
				t.Fatalf("checkpoint: %v, want %v", err, pt.Err)
			}
			if got := publishedCheckpoints(t, dir); !slices.Equal(got, ckpts) {
				t.Fatalf("a failed checkpoint published: %v, was %v", got, ckpts)
			}
			if got := segmentFiles(dir); !slices.Equal(got, segs) {
				t.Fatalf("a failed checkpoint moved the log: %v, was %v", got, segs)
			}
			s.Close()
			want := refgraph.New(64)
			ApplyLogged(want, fs.Acked())
			re, err := serve.OpenDurable(64, shards, 2, serve.Options{}, serve.DurabilityOptions{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if err := CompareDurable(re, want); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFaultFSControlRun is the seam's control: a FaultFS that injects
// nothing must leave every segment, manifest and shard file byte-identical
// to the OS's, over the crash matrix's workload — so the FS is the only
// thing fault injection changes.
func TestFaultFSControlRun(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		plan := planFor(shards, FaultPoint{}, FaultPoint{})
		osDir, faultDir := t.TempDir(), t.TempDir()
		if err := driveCrash(osDir, plan, nil); err != nil {
			t.Fatal(err)
		}
		if err := driveCrash(faultDir, plan, NewFaultFS(faultDir, FaultPoint{})); err != nil {
			t.Fatal(err)
		}
		want, got := readTree(t, osDir), readTree(t, faultDir)
		kinds := map[string]int{}
		for name, b := range want {
			if !bytes.Equal(got[name], b) {
				t.Fatalf("S%d: %s differs between the OS and a FaultFS that injects nothing", shards, name)
			}
			kinds[filepath.Ext(name)]++
		}
		if len(got) != len(want) || kinds[".wal"] == 0 || kinds[".snap"] == 0 || kinds[".json"] == 0 {
			t.Fatalf("S%d: %d files through the FaultFS, %d through the OS, of kinds %v", shards, len(got), len(want), kinds)
		}
	}
}

// readTree returns every file under root by its path relative to root.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestFlushSyncErrorCounted fails the segment fsync of a Flush with EIO: the
// failure is counted, not dropped, the store keeps serving reads and
// writes, and the next Flush's fsync succeeds. An injected EIO drops no
// page, so that fsync covers both batches.
func TestFlushSyncErrorCounted(t *testing.T) {
	exported0 := syncErrorsExported(t)
	dir := t.TempDir()
	fs := NewFaultFS(dir, FaultPoint{Op: OpSync, Files: SegmentFiles, Nth: 1, Err: syscall.EIO})
	s, err := serve.OpenDurable(16, 2, 2, serve.Options{}, serve.DurabilityOptions{Dir: dir, Fsync: wal.FsyncNone, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.InsertBatch([]uint32{1, 9}, []uint32{2, 10})
	s.Flush()
	if !fs.Fired() {
		t.Fatal("the Flush ran no segment fsync")
	}
	if st := s.Stats(); st.WALSyncErrors != 1 || st.WALFsyncs != 0 {
		t.Fatalf("after a failed flush fsync: WALSyncErrors %d, WALFsyncs %d; want 1, 0", st.WALSyncErrors, st.WALFsyncs)
	}
	if got := syncErrorsExported(t) - exported0; got != 1 {
		t.Fatalf("lsgraph_wal_sync_errors_total grew by %d, want 1", got)
	}
	if len(fs.Synced()) != 0 {
		t.Fatalf("a failed fsync covered %d records", len(fs.Synced()))
	}
	s.InsertBatch([]uint32{3}, []uint32{4})
	s.Flush()
	if st := s.Stats(); st.WALSyncErrors != 1 || st.WALFsyncs != 1 || st.WALAppendErrors != 0 {
		t.Fatalf("after the next flush: WALSyncErrors %d, WALFsyncs %d, WALAppendErrors %d; want 1, 1, 0",
			st.WALSyncErrors, st.WALFsyncs, st.WALAppendErrors)
	}
	if got := len(fs.Synced()); got != 2 {
		t.Fatalf("the next flush's fsync covered %d records, want both batches'", got)
	}
	want := refgraph.New(16)
	ApplyLogged(want, fs.Acked())
	if err := CompareDurable(s, want); err != nil {
		t.Fatal(err)
	}
}

// syncErrorsExported reads lsgraph_wal_sync_errors_total from the metrics
// registry.
func syncErrorsExported(t *testing.T) uint64 {
	t.Helper()
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "lsgraph_wal_sync_errors_total "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			return n
		}
	}
	t.Fatal("lsgraph_wal_sync_errors_total is not exported")
	return 0
}

// TestSealSyncErrorCounted fails the fsync that seals a full segment: it
// counts as a sync error, and as an append error for the record that was to
// start the next segment, which is not written; the append after it is.
func TestSealSyncErrorCounted(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(dir, FaultPoint{Op: OpSync, Files: SegmentFiles, Nth: 1, Err: syscall.EIO})
	s, err := serve.OpenDurable(16, 1, 2, serve.Options{}, serve.DurabilityOptions{
		Dir: dir, Fsync: wal.FsyncNone, SegmentBytes: 64, FS: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for b := uint32(0); b < 3; b++ {
		s.InsertBatch([]uint32{b, b + 1, b + 2}, []uint32{b + 4, b + 5, b + 6})
	}
	if !fs.Fired() {
		t.Fatal("no segment was sealed: the test proves nothing")
	}
	if st := s.Stats(); st.WALSyncErrors != 1 || st.WALAppendErrors != 1 || st.WALRecords != 2 {
		t.Fatalf("WALSyncErrors %d, WALAppendErrors %d, WALRecords %d; want 1, 1, 2",
			st.WALSyncErrors, st.WALAppendErrors, st.WALRecords)
	}
}
