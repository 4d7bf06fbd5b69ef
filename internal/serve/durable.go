package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lsgraph/internal/core"
	"lsgraph/internal/wal"
)

// ErrNotDurable is returned by Checkpoint on a Store opened without a
// durability directory.
var ErrNotDurable = errors.New("serve: store has no durability configured")

// ErrClosed is returned by Checkpoint on a Store that has been closed.
var ErrClosed = errors.New("serve: store closed")

// DurabilityOptions configures the WAL + checkpoint subsystem of a Store
// opened with OpenDurable.
type DurabilityOptions struct {
	// Dir is the durability directory (created if missing). Required.
	Dir string
	// Fsync is the group-commit policy for WAL appends. Default interval.
	Fsync wal.FsyncPolicy
	// FsyncInterval is the group-commit timer period for
	// wal.FsyncInterval. Default 50ms.
	FsyncInterval time.Duration
	// SegmentBytes is the WAL segment rotation size. Default 16 MiB.
	SegmentBytes int64
	// CheckpointEvery, when > 0, triggers an automatic background
	// checkpoint (followed by segment GC) each time that many records have
	// been logged since the last one. 0 means checkpoints happen only via
	// explicit Checkpoint calls.
	CheckpointEvery int
	// Hook is the fault-injection hook threaded to the WAL (crash tests).
	Hook wal.Hook
}

// durability is a Store's durable-state bundle.
type durability struct {
	opt DurabilityOptions
	// log is the append side, opened once recovery has applied the WAL tail.
	log *wal.Log
	// floor is the highest LSN recovery reflected into the initial state:
	// the max over the loaded checkpoint's watermarks and every scanned
	// record. Checkpoint watermarks are clamped up to it, because a shard
	// writer's appliedLSN restarts at 0 after recovery while its state
	// already contains everything at or below floor — possibly including
	// records from other shards' logs when the shard count changed.
	floor uint64
	// recovery summarizes what OpenDurable loaded and replayed.
	recovery wal.RecoveryStats

	sinceCkpt   atomic.Int64 // records logged since the last checkpoint
	ckptRunning atomic.Bool  // at most one auto-checkpoint in flight
	ckptMu      sync.Mutex   // serializes checkpoint writers

	checkpoints atomic.Uint64
	segsGCed    atomic.Uint64
}

// walOp maps a queue op to its WAL record op.
func walOp(op int) uint8 {
	if op == opDelete {
		return wal.OpDelete
	}
	return wal.OpInsert
}

// tailCap bounds the edges recovery buffers from consecutive same-op WAL
// records before applying them as one batch: enough for the pipeline's bulk
// paths, while its scratch (20 bytes an edge) stays in the tens of megabytes.
const tailCap = 1 << 20

// OpenDurable opens (creating or recovering) a durable Store over a fresh
// core.NewPaged graph of at least n vertices. Recovery is checkpointing run
// backwards, on the graph before any writer exists, and builds nothing but
// the shards' pages: load the newest valid checkpoint, copy its per-shard
// CSRs' runs to pages (core.LoadCSR: one parallel pass, no sort), merge the
// WAL records past each shard log's watermark, in global LSN order, into
// them as coalesced batches — the path the Store's batches take — pack the
// pages the tail left holes in (core.Graph.Compact), then start the Store —
// one first publish per shard, which only seals its table — and attach the
// log. So nothing replayed is re-logged, the Store's counters start at zero
// but for the entries the packing copied, and a crash mid-recovery changes
// nothing but idempotent torn-tail truncation. The shard layout is not
// recovered: the store reopens on cfg.Shards shards with a uniform
// partition map; LoadCSR and the replayed batches route by it.
func OpenDurable(n uint32, cfg core.Config, opt Options, dopt DurabilityOptions) (*Store, error) {
	if dopt.Dir == "" {
		return nil, errors.New("serve: durability requires a directory")
	}
	start := time.Now()
	ck, err := wal.LoadLatestCheckpoint(dopt.Dir)
	if err != nil {
		return nil, err
	}
	rs := wal.RecoveryStats{
		CheckpointLoaded: ck != nil,
		LoadNanos:        time.Since(start).Nanoseconds(),
	}
	if ck == nil {
		ck = &wal.Checkpoint{} // never checkpointed: no vertices, shards or watermarks
	}
	rs.CheckpointVertices = ck.N
	d := &durability{opt: dopt}
	for _, wm := range ck.Watermarks {
		d.floor = max(d.floor, wm)
	}

	t := time.Now()
	g := core.NewPaged(max(n, ck.N), cfg)
	for i := range ck.Shards {
		sh := &ck.Shards[i]
		if err := g.LoadCSR(sh.Base, sh.Offs, sh.Adj); err != nil {
			return nil, fmt.Errorf("serve: recovery: checkpoint shard %d: %w", i, err)
		}
		rs.CheckpointEdges += uint64(len(sh.Adj))
	}
	ck.Shards = nil // loaded: let the collector have the CSRs before the tail's scratch grows
	rs.BuildNanos = time.Since(t).Nanoseconds()

	t = time.Now()
	tail := walTail{g: g, cap: tailCap}
	maxLSN, rst, err := wal.Replay(dopt.Dir, ck.Watermark, dopt.Hook, tail.add)
	if err != nil {
		return nil, fmt.Errorf("serve: recovery replay: %w", err)
	}
	tail.flush()
	g.ReleaseScratch() // sized by the tail batch, which no live batch will resemble
	rs.ApplyNanos = tail.applyNs
	rs.ScanNanos = time.Since(t).Nanoseconds() - tail.applyNs
	rs.ReplayedRecords = rst.RecordsReplayed
	rs.ReplayedEdges = rst.EdgesReplayed
	rs.Segments = rst.Segments
	rs.TruncatedSegments = rst.TruncatedSegments
	rs.TornBytes = rst.TornBytes
	rs.MaxLSN = maxLSN
	d.floor = max(d.floor, maxLSN)

	d.log, err = wal.OpenLog(dopt.Dir, g.NumShards(), d.floor, wal.Options{
		Fsync:         dopt.Fsync,
		FsyncInterval: dopt.FsyncInterval,
		SegmentBytes:  dopt.SegmentBytes,
		Hook:          dopt.Hook,
	})
	if err != nil {
		return nil, err
	}
	t = time.Now()
	g.Compact()
	s := New(g, opt)
	rs.PublishNanos = time.Since(t).Nanoseconds()
	rs.DurationNanos = time.Since(start).Nanoseconds()
	d.recovery = rs
	s.dur = d
	return s, nil
}

// walTail turns the replayed WAL tail into engine batches on the recovering
// graph. Consecutive records of one op are concatenated — under set semantics
// insert(A) then insert(B) is insert(A∪B), likewise for deletes, so the merged
// batch is exact — and an op change flushes first, keeping every insert/delete
// order the log recorded. The vertex space grows from the records' own IDs,
// as the Store's enqueue grew it when they were logged; a record naming an ID
// enqueue would have refused (checkBatch) fails the recovery.
type walTail struct {
	g        *core.Graph
	cap      int
	op       uint8
	src, dst []uint32
	bound    uint32
	applyNs  int64
}

// add is the wal.Replay callback.
func (t *walTail) add(r wal.Record) error {
	if err := checkBatch(r.Src, r.Dst); err != nil {
		return fmt.Errorf("WAL record %d: %w", r.LSN, err)
	}
	if len(t.src) > 0 && (r.Op != t.op || len(t.src)+len(r.Src) > t.cap) {
		t.flush()
	}
	t.op = r.Op
	t.src = append(t.src, r.Src...)
	t.dst = append(t.dst, r.Dst...)
	for i, v := range r.Src {
		t.bound = max(t.bound, v+1, r.Dst[i]+1)
	}
	return nil
}

// flush applies the buffered records as one batch.
func (t *walTail) flush() {
	if len(t.src) == 0 {
		return
	}
	start := time.Now()
	t.g.EnsureVertices(t.bound)
	if t.op == wal.OpDelete {
		t.g.DeleteBatch(t.src, t.dst)
	} else {
		t.g.InsertBatch(t.src, t.dst)
	}
	t.src, t.dst = t.src[:0], t.dst[:0]
	t.applyNs += time.Since(start).Nanoseconds()
}

// Durable reports whether the Store was opened with a durability
// directory.
func (s *Store) Durable() bool { return s.dur != nil }

// Recovery returns what OpenDurable loaded and replayed (the zero value
// for a non-durable or freshly created store).
func (s *Store) Recovery() wal.RecoveryStats {
	if s.dur == nil {
		return wal.RecoveryStats{}
	}
	return s.dur.recovery
}

// Checkpoint pins a composed view and publishes it as a durable
// checkpoint (CSR per shard + partition layout + per-shard-log
// watermarks, atomic tmp+rename), then rotates the WAL and garbage-
// collects the segments it and its retained predecessor both cover.
// Concurrent Checkpoint calls serialize; ingest and reads continue
// throughout — the only shared work is the view pin. Returns
// ErrNotDurable on an in-memory store.
func (s *Store) Checkpoint() error {
	d := s.dur
	if d == nil {
		return ErrNotDurable
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if s.closed.Load() {
		// Close waits on ckptMu before sealing the log; bailing here keeps
		// a checkpoint that lost that race from writing to the directory
		// after Close has returned it to the caller.
		return ErrClosed
	}

	v := s.View()
	defer v.Release()
	dirs := d.log.NumDirs()
	if len(s.ws) > dirs {
		dirs = len(s.ws)
	}
	wms := make([]uint64, dirs)
	ck := &wal.Checkpoint{
		N:          v.NumVertices(),
		Starts:     make([]uint32, len(v.es)),
		Watermarks: wms,
	}
	for i, e := range v.es {
		ck.Starts[i] = e.lo
		wm := e.lsn
		if d.floor > wm {
			// The snapshot reflects everything recovery replayed even when
			// this shard has applied no new batches since (see durability.floor).
			wm = d.floor
		}
		wms[i] = wm
		offs, adj := e.snap.CSR()
		ck.Shards = append(ck.Shards, wal.ShardSnap{Base: e.lo, Offs: offs, Adj: adj})
	}
	for i := len(s.ws); i < dirs; i++ {
		// Stale log directories from an earlier, larger shard count: their
		// entire content predates recovery, hence is at or below floor.
		wms[i] = d.floor
	}
	// Sync before publishing: the checkpoint claims everything up to the
	// watermarks is durable, so the covering records must be on disk
	// before their segments become GC-eligible.
	if err := d.log.SyncAll(); err != nil {
		return err
	}
	if err := d.log.WriteCheckpoint(ck); err != nil {
		return err
	}
	d.checkpoints.Add(1)
	d.sinceCkpt.Store(0)
	if err := d.log.Rotate(); err != nil {
		return err
	}
	n, err := d.log.GC(wms)
	d.segsGCed.Add(uint64(n))
	return err
}

// maybeAutoCheckpoint fires a background Checkpoint when the configured
// record budget since the last one is spent. At most one runs at a time;
// errors (including injected crashes) are absorbed — the next trigger or
// recovery picks up from the log.
func (d *durability) maybeAutoCheckpoint(s *Store) {
	if d.opt.CheckpointEvery <= 0 {
		return
	}
	if d.sinceCkpt.Load() < int64(d.opt.CheckpointEvery) {
		return
	}
	if !d.ckptRunning.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer d.ckptRunning.Store(false)
		if s.closed.Load() {
			return
		}
		s.Checkpoint()
	}()
}
