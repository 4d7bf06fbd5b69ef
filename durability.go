package lsgraph

import (
	"fmt"
	"time"

	"lsgraph/internal/core"
	"lsgraph/internal/serve"
	"lsgraph/internal/wal"
)

// DurabilityOptions tunes the write-ahead log and checkpointing of a
// durable Store (WithDurability). The zero value is a sensible default:
// group-commit fsync every 50ms, 16 MiB WAL segments, checkpoints only
// when Store.Checkpoint is called.
type DurabilityOptions struct {
	// Fsync selects when WAL appends reach stable storage:
	//
	//   - "none": never fsynced explicitly; a process kill loses nothing
	//     that was written, but an OS crash can lose the page-cache tail.
	//   - "interval" (or ""): group commit — a background timer fsyncs all
	//     shard logs every FsyncInterval. The default.
	//   - "always": every append fsyncs before returning. Safest and
	//     slowest; Store.Flush is a full durability barrier under every
	//     policy, so most callers want "interval" plus Flush at commit
	//     points.
	Fsync string
	// FsyncInterval is the group-commit period for Fsync == "interval".
	// Default 50ms.
	FsyncInterval time.Duration
	// CheckpointEvery, when > 0, auto-checkpoints in the background each
	// time that many WAL records have been appended since the last
	// checkpoint, bounding both recovery replay time and WAL disk usage.
	// 0 (default) leaves checkpointing to explicit Checkpoint calls.
	CheckpointEvery int
}

// WithDurability makes the Store durable: every accepted update batch is
// appended to a per-shard write-ahead log under dir before it is applied,
// checkpoints snapshot the full graph for bounded recovery, and
// OpenStore on the same dir recovers the state. dir is created if
// missing. Ignored by Graph constructors.
//
// Durable stores should be built with OpenStore, which can report
// recovery and I/O errors; NewStore panics on them.
func WithDurability(dir string, o DurabilityOptions) Option {
	return func(s *settings) {
		s.durDir = dir
		s.dur = o
	}
}

// RecoveryStats summarizes what OpenStore loaded from the checkpoint and
// replayed from the WAL; see the field docs in internal/wal.
type RecoveryStats = wal.RecoveryStats

// OpenStore builds a Store like NewStore but reports errors instead of
// panicking, which matters once WithDurability puts disk I/O and crash
// recovery on the construction path. Opening a directory that already
// holds a durable store's state recovers it: the newest valid checkpoint
// is bulk-loaded, WAL records past its watermarks are replayed in log
// order (torn tails from a crash are truncated away), and the store
// resumes appending after the highest recovered LSN. If checkpoints were
// published but none of them loads, the open fails rather than serve the
// log's tail as if it were the graph. n is the minimum vertex-slot count;
// recovery grows it to the recovered bound if that is larger. Without
// WithDurability it is equivalent to NewStore and cannot fail.
func OpenStore(n uint32, opts ...Option) (*Store, error) {
	var s settings
	for _, o := range opts {
		o(&s)
	}
	sopt := serve.Options{
		MaxQueue:      s.maxQueue,
		AutoRebalance: s.autoRebalance,
	}
	if s.durDir == "" {
		return &Store{st: serve.New(core.NewPaged(n, s.shards, s.cfg.Workers), sopt)}, nil
	}
	pol, err := wal.ParseFsyncPolicy(s.dur.Fsync)
	if err != nil {
		return nil, err
	}
	st, err := serve.OpenDurable(n, s.shards, s.cfg.Workers, sopt, serve.DurabilityOptions{
		Dir:             s.durDir,
		Fsync:           pol,
		FsyncInterval:   s.dur.FsyncInterval,
		CheckpointEvery: s.dur.CheckpointEvery,
	})
	if err != nil {
		return nil, err
	}
	return &Store{st: st}, nil
}

// Durable reports whether the store was built with WithDurability.
func (s *Store) Durable() bool { return s.st.Durable() }

// Recovery returns what OpenStore loaded and replayed when this store
// was opened (the zero value for a non-durable or brand-new store).
func (s *Store) Recovery() RecoveryStats { return s.st.Recovery() }

// Checkpoint publishes a durable checkpoint — per-shard CSR snapshots,
// the partition layout, and WAL watermarks, written to a temporary
// directory and atomically renamed — then garbage-collects WAL segments
// the checkpoint covers. Ingest and reads continue throughout; after it
// returns, recovery replays only records logged after the call.
// Concurrent calls serialize. Returns an error wrapping
// serve.ErrNotDurable on a store built without WithDurability.
func (s *Store) Checkpoint() error {
	if err := s.st.Checkpoint(); err != nil {
		return fmt.Errorf("lsgraph: checkpoint: %w", err)
	}
	return nil
}
