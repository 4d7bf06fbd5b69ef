// Package wal is LSGraph's durability subsystem: a write-ahead log of one
// or more append streams, snapshot checkpoints, and replay-on-open, built
// so the serving layer (internal/serve) can survive kill -9 without giving
// up its lock-free ingest path.
//
// The design leans on two properties the engine already has. First,
// batches are the natural log record: the serving layer's unit of
// application, acknowledgment, and coalescing is the batch, so one
// length-prefixed CRC32C-framed record per enqueued batch captures exactly
// what the store promised to apply. Second, the epoch layer gives
// consistent cuts for free: every installed epoch is an exact prefix of
// the applied batch sequence, so stamping it with the highest log sequence
// number (LSN) it contains yields a watermark that says precisely which
// log records a checkpoint already reflects. The serving layer appends to
// stream 0 alone; a directory written when each shard logged its own
// records holds one stream per shard, all numbered by one LSN counter,
// and replays the same way.
//
// Layout under a durability directory:
//
//	<dir>/wal/shard-000/00000000000000000001.wal   per-stream segment files,
//	<dir>/wal/shard-001/...                        named by their first LSN
//	<dir>/checkpoint/ckpt-00000000000000000003/    checkpoint dirs, atomic
//	    MANIFEST.json  shard-000.snap ...          tmp+rename publish
//
// Write path: Log.Append frames one record — a global LSN, the
// flight-recorder batch ID, the op, and the src/dst payload — under the
// owning shard's lock, so the log order of each shard's file equals its
// queue order. Appends go straight to the file (no userspace buffering);
// fsync is governed by the group-commit policy: FsyncAlways syncs in
// Append, FsyncInterval syncs all shards on a timer, FsyncNone leaves it
// to the OS. Flush on the serving layer is always a durability barrier
// (it calls SyncAll regardless of policy).
//
// Checkpoint: a pinned view is serialized as one local CSR file per shard
// plus a JSON manifest carrying the logical vertex bound, the
// partition-map range starts, and the per-log watermarks. Everything
// is written into a ".tmp" directory, fsynced, then atomically renamed —
// a checkpoint either exists completely or not at all. After a successful
// checkpoint the caller rotates and garbage-collects log segments whose
// records are all at or below their shard's watermark.
//
// Recovery: LoadLatestCheckpoint walks checkpoint dirs newest-first and
// returns the first one that passes CRC validation. Replay then scans each
// shard's segments, truncates any torn or corrupt tail to the clean
// prefix, skips records at or below the shard's watermark, and hands back
// the remainder merged across shards in global LSN order. A record is
// framed with its own CRC, so no corrupt tail can panic the decoder or
// resurrect data the store never acknowledged.
//
// Fault injection: every file the package mutates goes through one FS
// (Options.FS, Replay's fsys; the OS when nil). The package's one fault
// handling of its own is an append's: a Write that fails after writing
// part of its frame is cut back off the segment, so the next record lands
// where replay reads it, and when that cut fails too the shard log refuses
// every later append. A test crashes the log by passing an FS that
// freezes at a chosen operation — failing it and every later one,
// optionally after writing half of a Write, which is what kill -9 at that
// instant leaves on disk — or makes one operation fail with ENOSPC or EIO,
// a Write optionally after writing half of it. The crash harness in
// internal/check does both over the OS, reopens the directory, and
// compares the recovered store against an oracle of the records whose
// segment Write completed.
package wal

import (
	"errors"
	"fmt"
	"time"
)

// FsyncPolicy selects when appended records are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncInterval groups commits: a background goroutine fsyncs every
	// shard's log on a timer (Options.FsyncInterval). An acknowledged batch
	// may be lost if the machine dies within one interval. The default.
	FsyncInterval FsyncPolicy = iota
	// FsyncNone never fsyncs on the append path; the OS writes back at its
	// leisure. Fastest, weakest: a machine crash can lose everything since
	// the last explicit Flush/checkpoint.
	FsyncNone
	// FsyncAlways fsyncs the owning shard's log inside every Append, so an
	// acknowledged batch is on stable storage before the caller continues.
	FsyncAlways
)

// ParseFsyncPolicy parses "none", "interval", or "always".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "none":
		return FsyncNone, nil
	case "interval", "":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	}
	return FsyncInterval, fmt.Errorf("wal: unknown fsync policy %q (want none, interval, or always)", s)
}

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncNone:
		return "none"
	case FsyncAlways:
		return "always"
	default:
		return "interval"
	}
}

// Options tunes a Log. The zero value is usable: fsync=interval at the
// default interval, default segment size, files on the OS.
type Options struct {
	// Fsync is the group-commit policy (see the FsyncPolicy constants).
	Fsync FsyncPolicy
	// FsyncInterval is the timer period for FsyncInterval. Default 50ms.
	FsyncInterval time.Duration
	// SegmentBytes is the size at which a shard's active segment is sealed
	// and a new one started. Default 16 MiB.
	SegmentBytes int64
	// FS is the file system the log writes through; nil is the OS. A test
	// passes one that fails chosen operations (see FS).
	FS FS
}

func (o *Options) sanitize() {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 50 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
}

// Sentinel errors for the append, scan, and recovery paths.
var (
	// ErrCorrupt marks a record frame whose CRC or structure check failed;
	// scanning stops at the clean prefix before it.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrTorn marks a record frame cut short by a crash mid-write; scanning
	// stops at the clean prefix before it.
	ErrTorn = errors.New("wal: torn record tail")
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: log closed")
)
