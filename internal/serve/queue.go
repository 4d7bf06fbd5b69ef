package serve

import (
	"fmt"
	"math"

	"lsgraph/internal/core"
	"lsgraph/internal/obs"
	"lsgraph/internal/wal"
)

// Batch ops queued for a shard writer. opFlush is a sentinel whose
// position in the queue marks a Flush call's happens-after point.
// opRebalance is a control entry appended to both shard writers affected
// by a boundary move; it marks the queue position at which the shard's
// routing changes (see rebalance.go).
const (
	opInsert = iota
	opDelete
	opFlush
	opRebalance
)

// pending is one queued update batch (or flush sentinel). src/dst are
// owned by the Store: enqueue copies (or scatters) the caller's slices so
// the caller may reuse its buffers immediately. bound is the vertex-space
// size the batch requires (1 + max referenced ID); the writer ensures it
// before applying.
type pending struct {
	op       int
	src, dst []uint32
	bound    uint32
	batch    uint64        // flight-recorder batch ID (0 when tracing is off)
	enq      int64         // obs.Now at enqueue; 0 when metrics and tracing are off
	lsn      uint64        // highest WAL LSN this entry covers (0 when durability is off)
	done     chan struct{} // flush sentinel only
	reb      *rebalanceOp  // rebalance control entry only
}

// InsertBatch enqueues the directed edges (src[i] -> dst[i]) for
// insertion and returns without waiting for them to apply. The slices are
// copied; the caller may reuse them immediately. Call Flush to wait for
// the batch to become visible to readers. It panics where Enqueue returns an
// error: on a closed Store, and on a batch Enqueue refuses.
func (s *Store) InsertBatch(src, dst []uint32) { s.mustEnqueue(opInsert, src, dst) }

// DeleteBatch enqueues the directed edges for deletion, with the same
// asynchronous contract as InsertBatch. Enqueue order is preserved per
// shard, so an insert followed by a delete of the same edge leaves it
// absent (the two land in the same shard's queue: routing is by source).
func (s *Store) DeleteBatch(src, dst []uint32) { s.mustEnqueue(opDelete, src, dst) }

// Enqueue is InsertBatch or, with del, DeleteBatch for a caller that shares
// the Store with whoever may Close it — a request handler and the handler
// that drops its graph: on a closed Store it returns ErrClosed and enqueues
// nothing, and a batch it accepts is whole in the queues before Close marks
// them closed, so Close applies and publishes it. It refuses a batch it
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
	// The enqueue span's start anchors the enqueue-to-publish visibility-lag
	// measurement too; it is 0 when neither sink is on.
	sp := obs.PhaseEnqueue.Begin()
	var batch uint64
	if sp.Traced() {
		batch = obs.NextBatchID()
	}
	// The whole scatter+append section runs under rebMu's read lock: a
	// concurrent boundary move takes the write lock to swap routeMap and
	// install its control entries, so every batch lands in the queues
	// routed wholly by one map, cleanly before or after the control entry.
	// Close takes it too, to mark the Store and its queues closed: a batch is
	// in every queue it is routed to before that, or in none.
	s.rebMu.RLock()
	if s.closed.Load() {
		s.rebMu.RUnlock()
		return ErrClosed
	}
	pm := s.routeMap.Load()
	sc := obs.PhaseScatter.Begin()
	parts, wide := core.Scatter(pm, src, dst, s.g.Workers())
	sc.End(-1, batch, 0, uint64(len(src)))
	if wide > math.MaxUint32 {
		s.rebMu.RUnlock()
		return checkBatch(src, dst)
	}
	bound := uint32(wide)
	s.stats.edgesEnqueued.Add(uint64(len(src)))
	s.g.ReserveVertices(bound)
	if obs.Enabled() {
		obsShardSkew.Set(int64(skewPct(len(parts), func(i int) uint64 { return uint64(len(parts[i].Src)) })))
	}
	for i, part := range parts {
		if len(part.Src) == 0 {
			continue
		}
		s.routed[i].Add(uint64(len(part.Src)))
		s.ws[i].enqueue(op, part.Src, part.Dst, bound, batch, sp.Start())
	}
	s.rebMu.RUnlock()
	sp.End(-1, batch, 0, uint64(len(src)))
	if d := s.dur; d != nil {
		d.maybeAutoCheckpoint(s)
	}
	return nil
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

// enqueue adds an owned batch to this shard's queue, merging under
// backpressure.
func (w *shardWriter) enqueue(op int, src, dst []uint32, bound uint32, batch uint64, enq int64) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		panic("serve: update on closed Store")
	}
	// Reserve the batch's WAL slot before it is queued, under the same
	// lock, so each shard's WAL order equals its queue (= apply) order;
	// the write syscall itself runs after the queue lock is released (the
	// slot holds the shard log locked until then, so nothing can slip in
	// between and stall-free dequeues continue meanwhile). An append
	// error (disk full, injected crash) does not fail the enqueue: the
	// store keeps serving in memory and surfaces degraded durability
	// through Stats.WALAppendErrors.
	var lsn uint64
	var app wal.Appender
	if d := w.s.dur; d != nil {
		app = d.log.Begin(w.idx, walOp(op), batch, src, dst)
		lsn = app.LSN()
		d.sinceCkpt.Add(1)
	}
	if n := len(w.queue); n >= w.s.opt.MaxQueue && w.queue[n-1].op == op {
		// Backpressure: merge into the newest queued batch of the same op
		// rather than growing the queue or blocking the caller. The merged
		// entry keeps its own batch ID and enqueue timestamp: its oldest
		// edges are the ones whose visibility lag the measurement is after.
		// It takes the max LSN: the merged application covers both records,
		// and all earlier LSNs of this shard are already queued ahead of it.
		last := &w.queue[n-1]
		last.src = append(last.src, src...)
		last.dst = append(last.dst, dst...)
		if bound > last.bound {
			last.bound = bound
		}
		if lsn > last.lsn {
			last.lsn = lsn
		}
		w.s.stats.coalescedBatches.Add(1)
		obs.Instant(obs.PhaseCoalesce, w.idx, last.batch, uint64(len(src)))
	} else {
		w.queue = append(w.queue, pending{op: op, src: src, dst: dst, bound: bound, batch: batch, enq: enq, lsn: lsn})
	}
	w.mu.Unlock()
	// Completing the reserved write here, before returning, preserves the
	// acknowledgement contract: by the time the caller sees the enqueue
	// return, the record is in the OS page cache (and fsynced under
	// FsyncAlways), and Flush's SyncAll orders behind it via the shard
	// log lock held since Begin.
	_, _ = app.Commit()
	w.signal()
}

// signal wakes the writer; the buffered token coalesces repeated signals.
func (w *shardWriter) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Flush blocks until every update enqueued before the call has been
// applied and published. Updates enqueued concurrently with Flush may or
// may not be included.
func (s *Store) Flush() {
	if s.closed.Load() {
		<-s.done
		return
	}
	chs := make([]chan struct{}, 0, len(s.ws))
	for _, w := range s.ws {
		w.mu.Lock()
		if w.closed {
			// Writer is shutting down; it drains everything before exit,
			// so waiting for its exit subsumes the flush.
			w.mu.Unlock()
			chs = append(chs, nil)
			continue
		}
		ch := make(chan struct{})
		w.queue = append(w.queue, pending{op: opFlush, done: ch})
		w.mu.Unlock()
		w.signal()
		chs = append(chs, ch)
	}
	for i, ch := range chs {
		if ch == nil {
			<-s.ws[i].done
		} else {
			<-ch
		}
	}
	// Flush is also the durability barrier: every acknowledged batch is
	// fsynced before return, regardless of the group-commit policy.
	if d := s.dur; d != nil {
		d.log.SyncAll()
	}
}

// Saturated reports whether any shard's queue has reached the MaxQueue
// bound — the point where the next same-op enqueue would coalesce rather
// than queue. This is the engine's backpressure signal: admission
// controllers in front of the Store (the HTTP front-end) shed ingest load
// when it is true instead of letting coalescing grow unbounded merged
// batches. It briefly takes each shard's queue lock, so it is safe from
// any goroutine but intended for per-request cadence, not per-edge.
func (s *Store) Saturated() bool {
	for _, w := range s.ws {
		if w.depth() >= s.opt.MaxQueue {
			return true
		}
	}
	return false
}

// depth is the number of entries in the shard's queue, Flush sentinels
// included.
func (w *shardWriter) depth() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.queue)
}
