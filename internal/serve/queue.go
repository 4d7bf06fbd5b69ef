package serve

import (
	"fmt"
	"math"

	"lsgraph/internal/core"
	"lsgraph/internal/obs"
	"lsgraph/internal/wal"
)

// Entries of the Store's queue. opFlush is a sentinel whose position in
// the queue marks a Flush call's happens-after point. opMove is a boundary
// move, which the writer runs between the batches around it
// (rebalance.go).
const (
	opInsert = iota
	opDelete
	opFlush
	opMove
)

// pending is one queue entry: a scattered update batch, a flush sentinel,
// or a boundary move. parts are the batch's shard parts, owned by the
// Store: enqueue scatters the caller's slices into them, so the caller may
// reuse its buffers immediately. bound is the vertex-space size the batch
// requires (1 + max referenced ID); the writer ensures it before applying.
// batches is the number of enqueued batches the entry holds, more than one
// once backpressure merged some.
type pending struct {
	op      int
	parts   []core.SubBatch
	bound   uint32
	batches uint64
	batch   uint64        // flight-recorder batch ID (0 when tracing is off)
	enq     int64         // obs.Now at enqueue; 0 when metrics and tracing are off
	lsn     uint64        // highest WAL LSN this entry covers (0 when durability is off)
	done    chan struct{} // flush sentinel only
	move    *moveOp       // boundary move only
}

// InsertBatch enqueues the directed edges (src[i] -> dst[i]) for
// insertion and returns without waiting for them to apply. The slices are
// copied; the caller may reuse them immediately. Call Flush to wait for
// the batch to become visible to readers. It panics where Enqueue returns an
// error: on a closed Store, and on a batch Enqueue refuses.
func (s *Store) InsertBatch(src, dst []uint32) { s.mustEnqueue(opInsert, src, dst) }

// DeleteBatch enqueues the directed edges for deletion, with the same
// asynchronous contract as InsertBatch. Enqueue order is apply order, so an
// insert followed by a delete of the same edge leaves it absent.
func (s *Store) DeleteBatch(src, dst []uint32) { s.mustEnqueue(opDelete, src, dst) }

// Enqueue is InsertBatch or, with del, DeleteBatch for a caller that shares
// the Store with whoever may Close it — a request handler and the handler
// that drops its graph: on a closed Store it returns ErrClosed and enqueues
// nothing, and a batch it accepts is in the queue before Close marks it
// closed, so Close applies and publishes it. It refuses a batch it
// could not apply, before anything is logged: src and dst of different
// lengths, or an edge naming vertex 2³²−1, for which the vertex space —
// one past the largest ID — has no bound.
func (s *Store) Enqueue(del bool, src, dst []uint32) error {
	if del {
		return s.enqueue(opDelete, src, dst)
	}
	return s.enqueue(opInsert, src, dst)
}

func (s *Store) mustEnqueue(op int, src, dst []uint32) {
	if err := s.enqueue(op, src, dst); err != nil {
		panic(err)
	}
}

// checkBatch refuses what Enqueue refuses, naming the first edge it
// refuses. Enqueue runs its scan only once the scatter's bound has shown
// that an edge names vertex 2³²−1; recovery runs it on every record.
func checkBatch(src, dst []uint32) error {
	if len(src) != len(dst) {
		return fmt.Errorf("serve: src/dst length mismatch (%d vs %d); every edge needs both endpoints", len(src), len(dst))
	}
	for i, v := range src {
		if v == math.MaxUint32 || dst[i] == math.MaxUint32 {
			return fmt.Errorf("serve: edge (%d,%d) names vertex 2^32-1, which is outside every vertex space", v, dst[i])
		}
	}
	return nil
}

func (s *Store) enqueue(op int, src, dst []uint32) error {
	if len(src) != len(dst) {
		return checkBatch(src, dst)
	}
	if s.closed.Load() {
		return ErrClosed
	}
	if len(src) == 0 {
		return nil
	}
	// The enqueue span's start anchors the enqueue-to-publish visibility-lag
	// measurement too; it is 0 when neither sink is on.
	sp := obs.PhaseEnqueue.Begin()
	var batch uint64
	if sp.Traced() {
		batch = obs.NextBatchID()
	}
	// Scatter outside the queue lock, so producers route side by side, by
	// the map current when the lock is taken: a boundary move swaps the map
	// and queues its entry under the lock, so a batch scattered by the old
	// map that lost the race to it is scattered again.
	var parts []core.SubBatch
	var wide uint64
	for pm := s.routeMap.Load(); ; {
		sc := obs.PhaseScatter.Begin()
		parts, wide = core.Scatter(pm, src, dst, s.g.Workers())
		sc.End(-1, batch, 0, uint64(len(src)))
		if wide > math.MaxUint32 {
			return checkBatch(src, dst)
		}
		s.mu.Lock()
		cur := s.routeMap.Load()
		if cur == pm {
			break
		}
		s.mu.Unlock()
		pm = cur
	}
	if s.closed.Load() {
		s.mu.Unlock()
		return ErrClosed
	}
	s.push(pending{op: op, parts: parts, bound: uint32(wide), batches: 1, batch: batch, enq: sp.Start()}, src, dst)
	sp.End(-1, batch, 0, uint64(len(src)))
	if d := s.dur; d != nil {
		d.maybeAutoCheckpoint(s)
	}
	return nil
}

// push queues b, a scattered batch, and unlocks the queue, which the
// caller locked; src and dst are the batch as the caller gave it, which a
// durable Store logs as one record. The batch's vertex bound is reserved
// before the writer can see it, and under backpressure it merges into the
// newest queued batch of the same op instead of growing the queue.
func (s *Store) push(b pending, src, dst []uint32) {
	s.g.ReserveVertices(b.bound)
	s.stats.edgesEnqueued.Add(uint64(len(src)))
	for i := range b.parts {
		s.routed[i].Add(uint64(len(b.parts[i].Src)))
	}
	if obs.Enabled() {
		obsShardSkew.Set(int64(skewPct(len(b.parts), func(i int) uint64 { return uint64(len(b.parts[i].Src)) })))
	}
	// Reserve the batch's WAL slot before it is queued, under the same
	// lock, so the log's order equals the queue's (= apply) order; the
	// write syscall itself runs after the queue lock is released (the slot
	// holds the log locked until then, so nothing can slip in between and
	// the writer's dequeues continue meanwhile). An append error (disk
	// full, injected crash) does not fail the enqueue: the store keeps
	// serving in memory and surfaces degraded durability through
	// Stats.WALAppendErrors.
	var app wal.Appender
	if d := s.dur; d != nil {
		app = d.log.Begin(0, walOp(b.op), b.batch, src, dst)
		b.lsn = app.LSN()
		d.sinceCkpt.Add(1)
	}
	if n := len(s.queue); n >= s.opt.MaxQueue && s.queue[n-1].op == b.op {
		// Backpressure: merge into the newest queued batch of the same op
		// rather than growing the queue or blocking the caller. Its parts
		// were scattered by the same map: a move would have queued an entry
		// after it. The merged entry keeps its own batch ID and enqueue
		// timestamp: its oldest edges are the ones whose visibility lag the
		// measurement is after. It takes the max LSN: the merged application
		// covers both records, and all earlier LSNs are already queued
		// ahead of it.
		last := &s.queue[n-1]
		for i := range b.parts {
			last.parts[i].Src = append(last.parts[i].Src, b.parts[i].Src...)
			last.parts[i].Dst = append(last.parts[i].Dst, b.parts[i].Dst...)
		}
		last.bound = max(last.bound, b.bound)
		last.lsn = max(last.lsn, b.lsn)
		last.batches++
		s.stats.coalescedBatches.Add(1)
		obs.Instant(obs.PhaseCoalesce, -1, last.batch, uint64(len(src)))
	} else {
		s.queue = append(s.queue, b)
	}
	s.mu.Unlock()
	// Completing the reserved write here, before returning, preserves the
	// acknowledgement contract: by the time the caller sees the enqueue
	// return, the record is in the OS page cache (and fsynced under
	// FsyncAlways), and Flush's SyncAll orders behind it via the log lock
	// held since Begin.
	_, _ = app.Commit()
	s.signal()
}

// skewPct is the skew of a load spread over shards: how far the largest of
// load(0..shards-1) lies above an even split, in percent of the fair share
// (0 = even or no load, 100 = one shard has twice its fair share, 700 = a
// shard of eight has everything). It has no upper clamp, so heavy skew —
// hubs at many times fair share — shows instead of saturating a gauge.
func skewPct(shards int, load func(i int) uint64) float64 {
	var total, max uint64
	for i := 0; i < shards; i++ {
		l := load(i)
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 0
	}
	fair := float64(total) / float64(shards)
	return math.Max((float64(max)/fair-1)*100, 0)
}

// signal wakes the writer; the buffered token coalesces repeated signals.
func (s *Store) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Flush blocks until every update enqueued before the call has been
// applied and published. Updates enqueued concurrently with Flush may or
// may not be included.
func (s *Store) Flush() {
	s.mu.Lock()
	if s.closed.Load() {
		// The writer is shutting down; it drains everything before exit,
		// so waiting for its exit subsumes the flush.
		s.mu.Unlock()
		<-s.done
		return
	}
	ch := make(chan struct{})
	s.queue = append(s.queue, pending{op: opFlush, done: ch})
	s.mu.Unlock()
	s.signal()
	<-ch
	// Flush is also the durability barrier: every acknowledged batch is
	// fsynced before return, regardless of the group-commit policy.
	if d := s.dur; d != nil {
		d.log.SyncAll()
	}
}

// Saturated reports whether the queue has reached the MaxQueue bound — the
// point where the next same-op enqueue would coalesce rather than queue.
// This is the engine's backpressure signal: admission controllers in front
// of the Store (the HTTP front-end) shed ingest load when it is true
// instead of letting coalescing grow unbounded merged batches. It briefly
// takes the queue lock, so it is safe from any goroutine but intended for
// per-request cadence, not per-edge.
func (s *Store) Saturated() bool { return s.depth() >= s.opt.MaxQueue }

// depth is the number of entries in the queue, Flush sentinels and
// boundary moves included.
func (s *Store) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}
