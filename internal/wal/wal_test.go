package wal

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// appendN appends n single-edge insert records to shard and returns the
// last LSN.
func appendN(t *testing.T, l *Log, shard, n int) uint64 {
	t.Helper()
	var last uint64
	for i := 0; i < n; i++ {
		lsn, err := l.Append(shard, OpInsert, 0, []uint32{uint32(i)}, []uint32{uint32(i + 1)})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		last = lsn
	}
	return last
}

func replayAll(t *testing.T, dir string) ([]Record, uint64, ReplayStats) {
	t.Helper()
	var recs []Record
	maxLSN, st, err := Replay(dir, func(int) uint64 { return 0 }, nil, func(r Record) error {
		r.Src, r.Dst = slices.Clone(r.Src), slices.Clone(r.Dst) // Replay reuses them
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, maxLSN, st
}

func TestLogAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, 2, 0, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(0, OpInsert, 7, []uint32{1, 2}, []uint32{3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, OpDelete, 8, []uint32{5}, []uint32{6}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(0, OpInsert, 9, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs, maxLSN, _ := replayAll(t, dir)
	if len(recs) != 3 || maxLSN != 3 {
		t.Fatalf("got %d records maxLSN=%d", len(recs), maxLSN)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d out of LSN order: %d", i, r.LSN)
		}
	}
	if recs[1].Op != OpDelete || recs[1].Src[0] != 5 || recs[1].Dst[0] != 6 || recs[1].Batch != 8 {
		t.Fatalf("record payload mismatch: %+v", recs[1])
	}

	// Reopen continues LSNs after the observed max.
	l2, err := OpenLog(dir, 2, maxLSN, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l2.Append(0, OpInsert, 0, []uint32{9}, []uint32{9})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Fatalf("LSN after reopen = %d, want 4", lsn)
	}
	l2.Close()
}

func TestReplayWatermarkSkips(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, 1, 0, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 6)
	l.Close()

	var recs []Record
	maxLSN, st, err := Replay(dir, func(int) uint64 { return 4 }, nil, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxLSN != 6 || len(recs) != 2 || recs[0].LSN != 5 || recs[1].LSN != 6 {
		t.Fatalf("maxLSN=%d recs=%v", maxLSN, recs)
	}
	if st.RecordsScanned != 6 || st.RecordsReplayed != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestReplayTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, 1, 0, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 3)
	l.Close()

	// Tear the tail by appending garbage to the single segment.
	sd := filepath.Join(dir, "wal", shardDirName(0))
	segs, _ := listSegments(osFS{}, sd)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	path := filepath.Join(sd, segName(segs[0]))
	clean, _ := os.Stat(path)
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Close()

	recs, maxLSN, st := replayAll(t, dir)
	if len(recs) != 3 || maxLSN != 3 {
		t.Fatalf("after torn tail: %d records maxLSN=%d", len(recs), maxLSN)
	}
	if st.TruncatedSegments != 1 || st.TornBytes != 11 {
		t.Fatalf("stats: %+v", st)
	}
	if fi, _ := os.Stat(path); fi.Size() != clean.Size() {
		t.Fatalf("tail not truncated: %d vs %d", fi.Size(), clean.Size())
	}
	// Idempotent: a second replay sees the same clean state.
	recs2, _, st2 := replayAll(t, dir)
	if len(recs2) != 3 || st2.TruncatedSegments != 0 {
		t.Fatalf("second replay: %d records, stats %+v", len(recs2), st2)
	}
}

// TestReplayChecksCoveredFramesWithoutDecoding replays a log that lies
// wholly at or below its watermarks: every record is counted and the
// highest LSN found, nothing is handed on, and — each frame checked through
// a window reused from segment to segment, not decoded — about nothing is
// allocated per covered edge.
func TestReplayChecksCoveredFramesWithoutDecoding(t *testing.T) {
	const records, edges = 128, 8192
	dir := t.TempDir()
	l, err := OpenLog(dir, 2, 0, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := make([]uint32, edges), make([]uint32, edges)
	for i := range src {
		src[i], dst[i] = uint32(i), uint32(i*7)
	}
	for i := 0; i < records; i++ {
		if _, err := l.Append(i%2, OpInsert, 0, src, dst); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	maxLSN, st, err := Replay(dir, func(int) uint64 { return math.MaxUint64 }, nil, func(r Record) error {
		t.Fatalf("covered record %d handed on", r.LSN)
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if maxLSN != records || st.RecordsScanned != records || st.RecordsReplayed != 0 || st.Segments != 2 {
		t.Fatalf("max LSN %d, stats %+v; want %d records scanned, none replayed, two segments", maxLSN, st, records)
	}
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / (records * edges)
	t.Logf("%d covered edges: %.3f B allocated per edge", records*edges, perEdge)
	if perEdge > 0.5 {
		t.Fatalf("replaying a covered log allocated %.3f B per edge, want about none", perEdge)
	}
}

// TestReplayTruncatesAtDamagedCoveredFrame damages a covered record that is
// larger than the scan window, past the window's first fill: checked rather
// than decoded, it still fails its CRC, and the log is truncated at it —
// the records after it are gone, and a second replay finds the clean prefix.
func TestReplayTruncatesAtDamagedCoveredFrame(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, 1, 0, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]uint32, 3*scanWindow/8)
	appendN(t, l, 0, 2)
	if _, err := l.Append(0, OpInsert, 0, big, big); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 2)
	l.Close()

	path := filepath.Join(dir, "wal", shardDirName(0), segName(1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	small := frameHeaderBytes + recordFixedBytes + 8
	b[2*small+frameHeaderBytes+recordFixedBytes+8*len(big)-1] ^= 0x10 // the big record's last byte
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	maxLSN, st, err := Replay(dir, func(int) uint64 { return math.MaxUint64 }, nil, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if maxLSN != 2 || st.RecordsScanned != 2 || st.TruncatedSegments != 1 || st.TornBytes != int64(len(b)-2*small) {
		t.Fatalf("max LSN %d, stats %+v; want the two records before the damage and the rest truncated", maxLSN, st)
	}
	if fi, _ := os.Stat(path); fi.Size() != int64(2*small) {
		t.Fatalf("segment is %d bytes after the replay, want %d", fi.Size(), 2*small)
	}
	if recs, maxLSN, st := replayAll(t, dir); len(recs) != 2 || maxLSN != 2 || st.TruncatedSegments != 0 {
		t.Fatalf("second replay: %d records, max LSN %d, stats %+v", len(recs), maxLSN, st)
	}
}

func TestRotationAndGC(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation.
	l, err := OpenLog(dir, 1, 0, Options{Fsync: FsyncNone, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	last := appendN(t, l, 0, 20)
	sd := filepath.Join(dir, "wal", shardDirName(0))
	segs, _ := listSegments(osFS{}, sd)
	if len(segs) < 2 {
		t.Fatalf("no rotation at 128-byte segments: %d segment(s)", len(segs))
	}

	// GC with watermark at the last LSN removes every sealed segment but
	// keeps the active one.
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	removed, err := l.GC([]uint64{last})
	if err != nil {
		t.Fatal(err)
	}
	after, _ := listSegments(osFS{}, sd)
	if removed == 0 || len(after) != 1 {
		t.Fatalf("GC removed %d, %d segments remain", removed, len(after))
	}

	// Appends continue cleanly post-GC, and replay sees only what GC kept.
	appendN(t, l, 0, 2)
	l.Close()
	recs, maxLSN, _ := replayAll(t, dir)
	if maxLSN != last+2 || len(recs) < 2 {
		t.Fatalf("post-GC replay: %d records maxLSN=%d", len(recs), maxLSN)
	}
	for _, r := range recs {
		if r.LSN < after[0] {
			t.Fatalf("replayed record %d from a GC'd segment (first kept segment starts at %d)", r.LSN, after[0])
		}
	}
}

func TestCheckpointWriteLoadAndFallback(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, 2, 0, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ck1 := &Checkpoint{
		N:          10,
		Starts:     []uint32{0, 5},
		Watermarks: []uint64{3, 4},
		Shards: []ShardSnap{
			{Base: 0, Offs: []uint64{0, 2, 2, 3, 3, 3}, Adj: []uint32{1, 9, 7}},
			{Base: 5, Offs: []uint64{0, 0, 1, 1, 1, 1}, Adj: []uint32{0}},
		},
	}
	if err := l.WriteCheckpoint(ck1); err != nil {
		t.Fatal(err)
	}
	ck2 := &Checkpoint{N: 12, Starts: []uint32{0, 6}, Watermarks: []uint64{8, 9},
		Shards: []ShardSnap{
			{Base: 0, Offs: []uint64{0, 1}, Adj: []uint32{2}},
			{Base: 6, Offs: []uint64{0, 0}, Adj: nil},
		}}
	if err := l.WriteCheckpoint(ck2); err != nil {
		t.Fatal(err)
	}

	got, err := LoadLatestCheckpoint(dir)
	if err != nil || got == nil {
		t.Fatalf("load: %v %v", got, err)
	}
	if got.N != 12 || got.Watermarks[0] != 8 || got.Shards[0].Adj[0] != 2 {
		t.Fatalf("loaded wrong checkpoint: %+v", got)
	}

	// Corrupt the newest checkpoint's shard file: load must fall back to
	// the previous one.
	root := filepath.Join(dir, "checkpoint")
	seqs := listCheckpoints(osFS{}, root)
	newest := filepath.Join(root, ckptDirName(seqs[len(seqs)-1]))
	if err := os.WriteFile(filepath.Join(newest, shardSnapName(0)), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = LoadLatestCheckpoint(dir)
	if err != nil || got == nil {
		t.Fatalf("fallback load: %v %v", got, err)
	}
	if got.N != 10 || got.Shards[0].Adj[1] != 9 {
		t.Fatalf("fallback returned wrong checkpoint: %+v", got)
	}

	// Both retained checkpoints damaged: an error naming the newest, never
	// (nil, nil) — the log those checkpoints covered may be gone, so the
	// caller must not mistake this for a store that never checkpointed.
	oldest := filepath.Join(root, ckptDirName(seqs[0]))
	if err := os.Remove(filepath.Join(oldest, manifestName)); err != nil {
		t.Fatal(err)
	}
	got, err = LoadLatestCheckpoint(dir)
	if got != nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), filepath.Base(newest)) {
		t.Fatalf("load with every checkpoint damaged: %v, %v; want ErrCorrupt naming %s", got, err, filepath.Base(newest))
	}

	// No checkpoint ever published.
	os.RemoveAll(root)
	got, err = LoadLatestCheckpoint(dir)
	if err != nil || got != nil {
		t.Fatalf("empty load: %v %v", got, err)
	}
}

// TestLoadCheckpointRejectsUnloadableCSR publishes checkpoints whose files
// are exactly what was written (every CRC matches) but are not CSRs the
// engine can load; each must fail validation as ErrCorrupt, so the load
// falls back to the sound predecessor instead of panicking in recovery or
// being quietly re-sorted.
func TestLoadCheckpointRejectsUnloadableCSR(t *testing.T) {
	good := &Checkpoint{N: 8, Starts: []uint32{0}, Watermarks: []uint64{1},
		Shards: []ShardSnap{{Base: 0, Offs: []uint64{0, 2, 2, 3, 3, 3, 3, 3, 3}, Adj: []uint32{1, 7, 0}}}}
	for _, tc := range []struct {
		name string
		n    uint32
		sh   ShardSnap
	}{
		{"neighbor at the vertex bound", 8, ShardSnap{Base: 0, Offs: []uint64{0, 2}, Adj: []uint32{1, 8}}},
		{"descending run", 8, ShardSnap{Base: 0, Offs: []uint64{0, 2}, Adj: []uint32{5, 1}}},
		{"duplicate neighbor", 8, ShardSnap{Base: 0, Offs: []uint64{0, 0, 2}, Adj: []uint32{5, 5}}},
		{"vertex range past the bound", 8, ShardSnap{Base: 7, Offs: []uint64{0, 1, 1}, Adj: []uint32{0}}},
		{"offsets not monotone", 8, ShardSnap{Base: 0, Offs: []uint64{0, 2, 1, 2}, Adj: []uint32{1, 2}}},
		{"offset past the adjacency", 8, ShardSnap{Base: 0, Offs: []uint64{0, 3, 2}, Adj: []uint32{1, 2}}},
	} {
		dir := t.TempDir()
		l, err := OpenLog(dir, 1, 0, Options{Fsync: FsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		bad := &Checkpoint{N: tc.n, Starts: []uint32{0}, Watermarks: []uint64{2}, Shards: []ShardSnap{tc.sh}}
		if err := l.WriteCheckpoint(bad); err != nil {
			t.Fatal(err)
		}
		if got, err := LoadLatestCheckpoint(dir); got != nil || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s, alone: %v, %v; want ErrCorrupt", tc.name, got, err)
		}
		os.RemoveAll(filepath.Join(dir, "checkpoint"))
		if err := l.WriteCheckpoint(good); err != nil {
			t.Fatal(err)
		}
		if err := l.WriteCheckpoint(bad); err != nil {
			t.Fatal(err)
		}
		got, err := LoadLatestCheckpoint(dir)
		if err != nil || got == nil || got.Watermarks[0] != 1 {
			t.Fatalf("%s, after a sound one: %+v, %v; want the predecessor", tc.name, got, err)
		}
		l.Close()
	}
	// A shard that owns no vertices may sit past the bound (uneven splits
	// put the last shards' bases there); that is not damage.
	dir := t.TempDir()
	l, err := OpenLog(dir, 1, 0, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	empty := &Checkpoint{N: 3, Starts: []uint32{0, 2, 4}, Watermarks: []uint64{1},
		Shards: []ShardSnap{{Base: 0, Offs: []uint64{0, 1, 1}, Adj: []uint32{2}}, {Base: 2, Offs: []uint64{0, 0}}, {Base: 4, Offs: []uint64{0}}}}
	if err := l.WriteCheckpoint(empty); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadLatestCheckpoint(dir); err != nil || got == nil || len(got.Shards) != 3 {
		t.Fatalf("checkpoint with an empty shard past the bound: %+v, %v", got, err)
	}
}

// TestGCKeepsLogForFallbackCheckpoint checks that a segment is collected
// only once both retained checkpoints cover it: the predecessor is the
// fallback for a damaged newest checkpoint, and recovers nothing newer than
// itself without the log since.
func TestGCKeepsLogForFallbackCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, 1, 0, Options{Fsync: FsyncNone, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sd := filepath.Join(dir, "wal", shardDirName(0))
	checkpointAt := func(wm uint64) int {
		t.Helper()
		ck := &Checkpoint{N: 64, Starts: []uint32{0}, Watermarks: []uint64{wm}, Shards: []ShardSnap{{Offs: []uint64{0}}}}
		if err := l.WriteCheckpoint(ck); err != nil {
			t.Fatal(err)
		}
		if err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
		removed, err := l.GC(ck.Watermarks)
		if err != nil {
			t.Fatal(err)
		}
		return removed
	}
	first := appendN(t, l, 0, 20)
	if removed := checkpointAt(first); removed == 0 {
		t.Fatal("the only checkpoint covers its log, yet nothing was collected")
	}
	second := appendN(t, l, 0, 20)
	checkpointAt(second)
	// Falling back to the first checkpoint must find every record since it,
	// though the second covers them all.
	var got int
	if _, _, err := Replay(dir, func(int) uint64 { return first }, nil, func(Record) error { got++; return nil }); err != nil || got != 20 {
		t.Fatalf("replay past the predecessor's watermark: %d records, %v; want 20", got, err)
	}
	third := appendN(t, l, 0, 20)
	before, _ := listSegments(osFS{}, sd)
	if removed := checkpointAt(third); removed == 0 {
		t.Fatal("nothing collected once two checkpoints cover the first interval")
	}
	after, _ := listSegments(osFS{}, sd)
	if after[0] <= before[0] || after[0] > second+1 {
		t.Fatalf("oldest segment went from %d to %d; want the log since checkpoint two (LSN %d) kept", before[0], after[0], second)
	}
}
