package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// segSuffix is the segment file extension; names are the 16-hex-digit
// first LSN of the segment plus this suffix, so lexical order is LSN
// order.
const segSuffix = ".wal"

// segName formats the file name of a segment whose first record is lsn.
func segName(lsn uint64) string { return fmt.Sprintf("%016x%s", lsn, segSuffix) }

// parseSegName returns the first LSN encoded in a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	lsn, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 16, 64)
	return lsn, err == nil
}

// shardDirName formats the per-shard log directory name.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// parseShardDir returns the shard index encoded in a log directory name.
func parseShardDir(name string) (int, bool) {
	if !strings.HasPrefix(name, "shard-") {
		return 0, false
	}
	i, err := strconv.Atoi(strings.TrimPrefix(name, "shard-"))
	return i, err == nil && i >= 0
}

// shardLog is one append stream: an active segment file plus an encode
// scratch buffer, guarded by mu so the file's record order is the order in
// which appenders begin their records — a Store's queue order, as it
// begins each record under its queue lock (Begin).
type shardLog struct {
	mu   sync.Mutex
	dir  string
	f    File
	path string // the active segment's
	size int64
	buf  []byte
	// broken is set when a failed append's bytes could not be cut off the
	// active segment; every later append fails with it, since recovery
	// would cut what it wrote there.
	broken error
}

// LogStats is a point-in-time copy of a Log's counters. They are the only
// count of each event: a Store's Stats reports them, and the lsgraph_wal_*
// series read them from there when the metrics registry is exported.
type LogStats struct {
	// Records counts appended (written) records.
	Records uint64
	// Bytes counts framed bytes written to segment files.
	Bytes uint64
	// Syncs counts fsync calls across all shards.
	Syncs uint64
	// Rotations counts sealed segments.
	Rotations uint64
	// AppendErrors counts appends that failed to reach the file (an error
	// from the FS, or a closed log); the serving layer keeps applying in
	// memory and surfaces the count as a degraded-durability signal.
	AppendErrors uint64
	// SyncErrors counts fsyncs that failed: Sync's and SyncAll's (a
	// Flush's, a group commit's, a checkpoint's), an append's under
	// FsyncAlways, and a segment seal's. The records they were to cover may
	// not be on stable storage, and a later fsync that succeeds does not
	// prove they are: the OS may have dropped the pages it failed to write.
	SyncErrors uint64
}

// Log is the write side of the durability directory: one append stream
// per shard, a global LSN counter, and the group-commit machinery.
// Append/Sync are safe for concurrent use; Close stops the interval
// syncer and seals the active segments.
type Log struct {
	dir    string // durability root; segments live under dir/wal
	opt    Options
	fs     FS
	shards []*shardLog
	// dirs is the number of shard log directories present on disk, which
	// can exceed len(shards) after a shard-count change; checkpoint
	// watermarks must cover all of them so stale dirs stay GC-able.
	dirs int

	last   atomic.Uint64 // last assigned LSN
	closed atomic.Bool

	stopSync chan struct{}
	syncDone chan struct{}

	stats struct {
		records      atomic.Uint64
		bytes        atomic.Uint64
		syncs        atomic.Uint64
		rotations    atomic.Uint64
		appendErrors atomic.Uint64
		syncErrors   atomic.Uint64
	}
}

// OpenLog opens (creating as needed) the append side of a durability
// directory for shards append streams, with LSNs continuing after last —
// the highest LSN recovery observed, or 0 for a fresh directory. Torn
// tails must already have been truncated (Replay does this); OpenLog
// appends to each shard's newest segment as-is.
func OpenLog(dir string, shards int, last uint64, opt Options) (*Log, error) {
	opt.sanitize()
	if shards < 1 {
		shards = 1
	}
	walRoot := filepath.Join(dir, "wal")
	l := &Log{dir: dir, opt: opt, fs: orOS(opt.FS), shards: make([]*shardLog, shards), dirs: shards}
	l.last.Store(last)
	entries, err := l.fs.ReadDir(walRoot)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: list log dirs: %w", err)
	}
	for _, e := range entries {
		if i, ok := parseShardDir(e.Name()); ok && i+1 > l.dirs {
			l.dirs = i + 1
		}
	}
	for i := range l.shards {
		sl, err := l.openShard(filepath.Join(walRoot, shardDirName(i)))
		if err != nil {
			for _, sl := range l.shards[:i] {
				if sl.f != nil {
					sl.f.Close()
				}
			}
			return nil, err
		}
		l.shards[i] = sl
	}
	if opt.Fsync == FsyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// openShard opens the append stream of the shard log directory sd,
// creating the directory, and continuing its newest segment if it has one.
func (l *Log) openShard(sd string) (*shardLog, error) {
	if err := l.fs.MkdirAll(sd, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create shard dir: %w", err)
	}
	sl := &shardLog{dir: sd}
	segs, err := listSegments(l.fs, sd)
	if err != nil || len(segs) == 0 {
		return sl, err
	}
	path := filepath.Join(sd, segName(segs[len(segs)-1]))
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("wal: stat segment: %w", err)
	}
	if sl.f, err = l.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	sl.path, sl.size = path, st.Size()
	return sl, nil
}

// listSegments returns the first-LSNs of dir's segment files, ascending.
func listSegments(fsys FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		if lsn, ok := parseSegName(e.Name()); ok {
			segs = append(segs, lsn)
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a] < segs[b] })
	return segs, nil
}

// NumDirs returns the number of shard log directories the checkpoint
// watermark vector must cover (live shards plus any stale directories
// left by an earlier shard-count change).
func (l *Log) NumDirs() int { return l.dirs }

// Append frames one shard batch, assigns it the next global LSN, and
// writes it to the shard's active segment. Under FsyncAlways the record
// is fsynced before Append returns. The returned LSN is valid even when
// err is non-nil (the record was assigned a number but may not be
// durable). Src/dst are read synchronously; the caller keeps ownership.
func (l *Log) Append(shard int, op uint8, batch uint64, src, dst []uint32) (uint64, error) {
	return l.Begin(shard, op, batch, src, dst).Commit()
}

// Appender is one reserved append slot: Begin fixes the record's position
// in the shard's stream and captures its content; Commit performs the
// file write. The shard's log lock is held from Begin to Commit, so a
// caller that serializes appends with its own ordering lock can release
// that lock before the write syscall without letting another record slip
// in between. The zero Appender commits as a failed append.
type Appender struct {
	l   *Log
	sl  *shardLog
	lsn uint64
	err error
}

// LSN returns the reserved record's sequence number (0 when Begin
// failed before assigning one).
func (a Appender) LSN() uint64 { return a.lsn }

// Begin reserves the next record slot on shard's stream: it assigns the
// LSN and encodes the frame into the shard's scratch buffer, leaving the
// shard log locked until Commit.
// Call it under whatever lock defines the shard's apply order — the WAL
// order is fixed here — then Commit after releasing that lock, keeping
// the write syscall out of the critical section. Src/dst are captured by
// the encode; the caller may reuse them once Begin returns.
func (l *Log) Begin(shard int, op uint8, batch uint64, src, dst []uint32) Appender {
	if l.closed.Load() {
		l.stats.appendErrors.Add(1)
		return Appender{err: ErrClosed}
	}
	sl := l.shards[shard]
	sl.mu.Lock()
	lsn := l.last.Add(1)
	sl.buf = appendRecord(sl.buf[:0], &Record{LSN: lsn, Batch: batch, Op: op, Src: src, Dst: dst})
	return Appender{l: l, sl: sl, lsn: lsn}
}

// Commit writes the frame reserved by Begin to the shard's active
// segment (rotating it first when full), fsyncs under FsyncAlways, and
// releases the slot. The returned LSN is Begin's even on error.
func (a Appender) Commit() (uint64, error) {
	if a.l == nil {
		return a.lsn, a.err
	}
	l, sl := a.l, a.sl
	defer sl.mu.Unlock()
	if sl.broken != nil {
		l.stats.appendErrors.Add(1)
		return a.lsn, sl.broken
	}
	if sl.f != nil && sl.size > 0 && sl.size+int64(len(sl.buf)) > l.opt.SegmentBytes {
		if err := l.seal(sl); err != nil {
			l.stats.appendErrors.Add(1)
			return a.lsn, err
		}
		l.stats.rotations.Add(1)
	}
	if err := sl.ensureSegment(l.fs, a.lsn); err != nil {
		l.stats.appendErrors.Add(1)
		return a.lsn, err
	}
	n, err := sl.f.Write(sl.buf)
	if err != nil {
		l.stats.appendErrors.Add(1)
		err = fmt.Errorf("wal: append: %w", err)
		// A short write left part of a frame where the next record would
		// land, and recovery cuts the log there: cut it off first.
		if n > 0 {
			if terr := l.fs.Truncate(sl.path, sl.size); terr != nil {
				sl.broken = fmt.Errorf("%w; cutting it off the segment: %v", err, terr)
				err = sl.broken
			}
		}
		return a.lsn, err
	}
	sl.size += int64(n)
	l.stats.records.Add(1)
	l.stats.bytes.Add(uint64(n))
	if l.opt.Fsync == FsyncAlways {
		if err := l.syncLocked(sl); err != nil {
			return a.lsn, err
		}
	}
	return a.lsn, nil
}

// ensureSegment opens a fresh segment named for lsn when the shard has no
// active file. It appends, like a continued segment, so a write after a
// truncation lands at the new end.
func (sl *shardLog) ensureSegment(fsys FS, lsn uint64) error {
	if sl.f != nil {
		return nil
	}
	path := filepath.Join(sl.dir, segName(lsn))
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	sl.f, sl.path, sl.size = f, path, 0
	return nil
}

// seal fsyncs and closes sl's active segment; the next append starts a
// new one. Callers hold sl.mu.
func (l *Log) seal(sl *shardLog) error {
	if sl.f == nil {
		return nil
	}
	err := sl.f.Sync()
	if err != nil {
		l.stats.syncErrors.Add(1)
	}
	if cerr := sl.f.Close(); err == nil {
		err = cerr
	}
	sl.f = nil
	sl.size = 0
	if err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	return nil
}

// syncLocked fsyncs sl's active segment. Callers hold sl.mu.
func (l *Log) syncLocked(sl *shardLog) error {
	if sl.f == nil {
		return nil
	}
	if err := sl.f.Sync(); err != nil {
		l.stats.syncErrors.Add(1)
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.stats.syncs.Add(1)
	return nil
}

// Sync fsyncs one shard's active segment.
func (l *Log) Sync(shard int) error {
	sl := l.shards[shard]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return l.syncLocked(sl)
}

// SyncAll fsyncs every shard's active segment — the durability barrier
// behind Store.Flush, regardless of policy. The first error is returned
// but every shard is attempted.
func (l *Log) SyncAll() error {
	var first error
	for i := range l.shards {
		if err := l.Sync(i); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Rotate seals every shard's active segment so the next checkpoint's GC
// can consider the whole current tail. Called after a checkpoint publish.
func (l *Log) Rotate() error {
	var first error
	for _, sl := range l.shards {
		sl.mu.Lock()
		if err := l.seal(sl); err != nil && first == nil {
			first = err
		} else if err == nil {
			l.stats.rotations.Add(1)
		}
		sl.mu.Unlock()
	}
	return first
}

// GC removes sealed segments wholly covered by the checkpoint watermarks
// wms — and by those of the retained predecessor checkpoint, when there is
// one: it is kept as the fallback for a damaged newest checkpoint, and it
// is one only with the log since it, so a segment goes when both cover it
// (one checkpoint later than the newest alone would allow). Segment k of a
// shard directory is removable when the next segment's first LSN is at or
// below wm+1 (every record in k has LSN ≤ wm) and k is not the newest
// segment of a live shard. For stale directories beyond the live shard
// count the newest segment is removable too (their entire content is below
// their watermark by construction), and an emptied stale directory is
// removed. Returns the number of segments deleted.
func (l *Log) GC(wms []uint64) (int, error) {
	walRoot := filepath.Join(l.dir, "wal")
	removed := 0
	var firstErr error
	newest, fallback := &Checkpoint{Watermarks: wms}, fallbackCheckpoint(l.dir)
	for dirIdx := 0; dirIdx < l.dirs; dirIdx++ {
		wm := newest.Watermark(dirIdx)
		if fallback != nil {
			wm = min(wm, fallback.Watermark(dirIdx))
		}
		sd := filepath.Join(walRoot, shardDirName(dirIdx))
		live := dirIdx < len(l.shards)
		var sl *shardLog
		if live {
			sl = l.shards[dirIdx]
			sl.mu.Lock()
		}
		segs, err := listSegments(l.fs, sd)
		if err == nil {
			for k, segFirst := range segs {
				covered := false
				if k+1 < len(segs) {
					covered = segs[k+1] <= wm+1
				} else if !live {
					covered = true // stale dir: everything is below its watermark
				}
				if !covered || segFirst > wm {
					continue
				}
				if rmErr := l.fs.Remove(filepath.Join(sd, segName(segFirst))); rmErr == nil {
					removed++
				}
			}
		} else if firstErr == nil {
			firstErr = err
		}
		if live {
			sl.mu.Unlock()
		} else {
			l.fs.Remove(sd) // succeeds only once emptied
		}
	}
	return removed, firstErr
}

// syncLoop is the FsyncInterval group-commit timer.
func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opt.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			if l.closed.Load() {
				return
			}
			l.SyncAll()
		}
	}
}

// Close stops the interval syncer and seals the active segments. Append
// after Close returns ErrClosed.
func (l *Log) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	if l.stopSync != nil {
		close(l.stopSync)
		<-l.syncDone
	}
	var first error
	for _, sl := range l.shards {
		sl.mu.Lock()
		if err := l.seal(sl); err != nil && first == nil {
			first = err
		}
		sl.mu.Unlock()
	}
	return first
}

// Stats returns a copy of the log's counters.
func (l *Log) Stats() LogStats {
	return LogStats{
		Records:      l.stats.records.Load(),
		Bytes:        l.stats.bytes.Load(),
		Syncs:        l.stats.syncs.Load(),
		Rotations:    l.stats.rotations.Load(),
		AppendErrors: l.stats.appendErrors.Load(),
		SyncErrors:   l.stats.syncErrors.Load(),
	}
}
