package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// ReplayStats summarizes one recovery scan.
type ReplayStats struct {
	// Segments is the number of segment files scanned.
	Segments int
	// RecordsScanned counts CRC-valid records found, including those at or
	// below their shard's watermark.
	RecordsScanned uint64
	// RecordsReplayed counts records handed to the apply callback.
	RecordsReplayed uint64
	// EdgesReplayed counts edges across replayed records.
	EdgesReplayed uint64
	// TornBytes is the total length of torn or corrupt tails truncated
	// away.
	TornBytes int64
	// TruncatedSegments counts segments whose tail was truncated.
	TruncatedSegments int
	// DroppedSegments counts segments discarded because they followed a
	// corrupt frame in an earlier segment of the same shard (the log's
	// clean prefix ends there).
	DroppedSegments int
}

// Replay scans every shard log directory under dir, truncates torn or
// corrupt tails down to the clean prefix (mutating segment files — the
// only disk mutation recovery performs, and an idempotent one), skips
// records at or below wm(shardDir), and applies the rest in global LSN
// order via fn. It returns the highest LSN observed across all scanned
// records — the value the new Log's LSN counter must continue after —
// even when that record was skipped.
//
// The directories are read side by side, each through a window of its own,
// and merged by LSN as they are read, so no record is held past its turn. A
// skipped record is checked, not decoded: its frame's length, CRC and LSN
// are read on its way through the window, and nothing is allocated for it.
// The records fn receives are decoded one at a time into one Record whose
// edge slices are reused for the next: fn (and the hook) must copy what
// they keep.
//
// Applying in LSN order is what makes recovery exact for multi-shard
// batches: an enqueue that scattered to several shards logged one record
// per shard with consecutive-but-independent LSNs, and a crash mid-scatter
// legitimately persists only a prefix of them. Replaying per-shard streams
// merged by LSN reproduces precisely the acknowledged prefix, in an order
// consistent with every per-source history.
func Replay(dir string, wm func(shardDir int) uint64, hook Hook, fn func(Record) error) (uint64, ReplayStats, error) {
	var st ReplayStats
	walRoot := filepath.Join(dir, "wal")
	entries, err := os.ReadDir(walRoot)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, st, nil
		}
		return 0, st, fmt.Errorf("wal: list log dirs: %w", err)
	}
	var dirIdxs []int
	for _, e := range entries {
		if i, ok := parseShardDir(e.Name()); ok && e.IsDir() {
			dirIdxs = append(dirIdxs, i)
		}
	}
	sort.Ints(dirIdxs)

	var maxLSN uint64
	logs := make([]logStream, len(dirIdxs))
	heads := make([][]byte, len(dirIdxs)) // each log's next record past its watermark; nil: none
	defer func() {
		for i := range logs {
			logs[i].close()
		}
	}()
	for i, di := range dirIdxs {
		sd := filepath.Join(walRoot, shardDirName(di))
		segs, err := listSegments(sd)
		if err != nil {
			return maxLSN, st, err
		}
		logs[i] = logStream{dir: sd, segs: segs, wm: wm(di), st: &st, maxLSN: &maxLSN}
		if heads[i], err = logs[i].next(); err != nil {
			return maxLSN, st, err
		}
	}

	// K-way merge by LSN. Each log is ascending (append order), so a linear
	// min-head scan suffices at realistic shard counts.
	var r Record
	for {
		best := -1
		for i, h := range heads {
			if h != nil && (best < 0 || payloadLSN(h) < payloadLSN(heads[best])) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		decodeInto(heads[best], &r)
		if hook != nil {
			if hook(Event{Kind: EvReplayRecord, Shard: best, LSN: r.LSN, Op: r.Op, Src: r.Src, Dst: r.Dst}) != Continue {
				return maxLSN, st, ErrKilled
			}
		}
		if err := fn(r); err != nil {
			return maxLSN, st, err
		}
		st.RecordsReplayed++
		st.EdgesReplayed += uint64(len(r.Src))
		if heads[best], err = logs[best].next(); err != nil {
			return maxLSN, st, err
		}
	}
	return maxLSN, st, nil
}

// logStream reads one shard log directory's segments in order for Replay,
// counting every valid record in st and maxLSN and handing on those past
// wm.
type logStream struct {
	dir    string
	segs   []uint64 // segments not yet opened, by first LSN
	wm     uint64
	st     *ReplayStats
	maxLSN *uint64

	sr     segmentReader
	f      *os.File // the segment being read; nil between segments
	path   string
	broken bool // a torn or corrupt frame ended the log's clean prefix
}

// next returns the log's next record past its watermark — its payload,
// valid until the next call — or nil at the log's end.
func (ls *logStream) next() ([]byte, error) {
	for {
		if ls.f == nil {
			if len(ls.segs) == 0 {
				return nil, nil
			}
			ls.path = filepath.Join(ls.dir, segName(ls.segs[0]))
			ls.segs = ls.segs[1:]
			if ls.broken {
				// The log's clean prefix ended in an earlier segment; records
				// here are beyond a gap and must not be replayed. Remove them so
				// the on-disk state is the clean prefix.
				if os.Remove(ls.path) == nil {
					ls.st.DroppedSegments++
				}
				continue
			}
			if err := ls.open(); err != nil {
				return nil, err
			}
			ls.st.Segments++
		}
		lsn, p, err := ls.sr.next(func(lsn uint64) bool { return lsn <= ls.wm })
		switch {
		case err == nil:
			ls.st.RecordsScanned++
			*ls.maxLSN = max(*ls.maxLSN, lsn)
			if p != nil {
				return p, nil
			}
		case err == io.EOF:
			ls.close()
		case errors.Is(err, ErrTorn) || errors.Is(err, ErrCorrupt):
			ls.close()
			ls.st.TornBytes += int64(ls.sr.size - ls.sr.off)
			ls.st.TruncatedSegments++
			if err := os.Truncate(ls.path, int64(ls.sr.off)); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			ls.broken = true
		default:
			return nil, err
		}
	}
}

// open starts reading the segment at ls.path.
func (ls *logStream) open() error {
	f, err := os.Open(ls.path)
	if err != nil {
		return fmt.Errorf("wal: read segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: read segment: %w", err)
	}
	ls.f = f
	ls.sr.reset(f, int(fi.Size()))
	return nil
}

// close closes the segment being read, if any.
func (ls *logStream) close() {
	if ls.f != nil {
		ls.f.Close()
		ls.f = nil
	}
}
