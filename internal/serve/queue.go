package serve

import (
	"fmt"
	"math"
	"slices"

	"lsgraph/internal/obs"
	"lsgraph/internal/parallel"
	"lsgraph/internal/wal"
)

// Entries of the Store's queue. opFlush is a sentinel whose position in
// the queue marks a Flush call's happens-after point. opMove is a layout
// change — a boundary move or a Rebalance — which the writer runs between
// the batches around it (rebalance.go).
const (
	opInsert = iota
	opDelete
	opFlush
	opMove
)

// pending is one queue entry: an update batch, a flush sentinel, or a
// layout change. src and dst are the batch as enqueued, in one allocation
// the Store owns, so the caller may reuse its buffers immediately; the
// writer routes it to the shards when it applies it. bound is the
// vertex-space size the batch requires (1 + max referenced ID); the writer
// ensures it before applying. batches is the number of enqueued batches
// the entry holds, more than one once some were merged into it (absorb);
// stamp is the first one's, merged the others'.
type pending struct {
	op       int
	src, dst []uint32
	bound    uint32
	batches  uint64
	stamp
	merged []stamp       // the batches absorbed after the first, those with a stamp
	lsn    uint64        // highest WAL LSN this entry covers (0 when durability is off)
	done   chan struct{} // flush sentinel only
	move   *moveOp       // layout change only
}

// stamp is what an enqueued batch's enqueue-to-publish measurement needs
// once the epoch holding it is installed (visible).
type stamp struct {
	batch uint64 // flight-recorder batch ID (0 when tracing is off)
	enq   int64  // obs.Now at enqueue; 0 when metrics and tracing are off
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
// refuses. Enqueue runs its scan only once its copy has shown that an edge
// names vertex 2³²−1; recovery runs it on every record.
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
	n := len(src)
	if n != len(dst) {
		return checkBatch(src, dst)
	}
	if s.closed.Load() {
		return ErrClosed
	}
	if n == 0 {
		return nil
	}
	// The enqueue span's start anchors the enqueue-to-publish visibility-lag
	// measurement too; it is 0 when neither sink is on.
	sp := obs.PhaseEnqueue.Begin()
	// Copy the batch into one allocation, finding its largest ID on the way,
	// on the worker budget from the size core's pipeline splits at.
	cols := make([]uint32, 2*n)
	b := pending{op: op, src: cols[:n:n], dst: cols[n:], batches: 1, stamp: stamp{enq: sp.Start()}}
	p := 1
	if n >= sideBySideMin {
		p = s.g.Workers()
	}
	top := copyBatch(b.src, b.dst, src, dst, p)
	if top == math.MaxUint32 {
		return checkBatch(src, dst)
	}
	b.bound = top + 1
	if sp.Traced() {
		b.batch = obs.NextBatchID()
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return ErrClosed
	}
	s.push(b)
	sp.End(-1, b.batch, 0, uint64(n))
	if d := s.dur; d != nil {
		d.maybeAutoCheckpoint(s)
	}
	return nil
}

// copyBatch copies the batch src/dst into toSrc/toDst and returns its
// largest vertex ID; with p > 1 it splits the batch into p stretches, one
// for each of p workers.
func copyBatch(toSrc, toDst, src, dst []uint32, p int) uint32 {
	if p <= 1 {
		top := uint32(0)
		for i, v := range src {
			u := dst[i]
			toSrc[i], toDst[i] = v, u
			top = max(top, v, u)
		}
		return top
	}
	n, tops := len(src), make([]uint32, p)
	parallel.Workers(p, func(w int) {
		lo, hi := w*n/p, (w+1)*n/p
		tops[w] = copyBatch(toSrc[lo:hi], toDst[lo:hi], src[lo:hi], dst[lo:hi], 1)
	})
	return slices.Max(tops)
}

// push queues b, a copied batch, and unlocks the queue, which the caller
// locked; a durable Store logs the batch as one record. The batch's vertex
// bound is reserved before the writer can see it, and under backpressure it
// merges into the newest queued batch of the same op instead of growing the
// queue.
func (s *Store) push(b pending) {
	s.g.ReserveVertices(b.bound)
	s.stats.edgesEnqueued.Add(uint64(len(b.src)))
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
		app = d.log.Begin(0, walOp(b.op), b.batch, b.src, b.dst)
		b.lsn = app.LSN()
		d.sinceCkpt.Add(1)
	}
	if n := len(s.queue); n >= s.opt.MaxQueue && s.queue[n-1].op == b.op {
		// Backpressure: merge into the newest queued batch of the same op
		// rather than growing the queue or blocking the caller.
		s.absorb(&s.queue[n-1], []pending{b})
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

// absorb merges bs, the batches queued right behind a with a's op, into a,
// as backpressure does when the queue is full (push) and the writer does
// with a run it applies side by side (run). Set semantics make applying the
// concatenation equal to applying a and bs one after another, and every
// LSN up to the last one's is then applied, so the merged entry takes the
// largest LSN. Each absorbed batch keeps its stamp, so each one's
// visibility lag is measured; the spans of the merged apply carry a's
// batch ID.
func (s *Store) absorb(a *pending, bs []pending) {
	n := 0
	for i := range bs {
		n += len(bs[i].src)
	}
	a.src, a.dst = slices.Grow(a.src, n), slices.Grow(a.dst, n)
	for i := range bs {
		b := &bs[i]
		a.src = append(a.src, b.src...)
		a.dst = append(a.dst, b.dst...)
		a.bound = max(a.bound, b.bound)
		a.lsn = max(a.lsn, b.lsn)
		a.batches += b.batches
		if b.enq != 0 {
			a.merged = append(a.merged, b.stamp)
		}
		a.merged = append(a.merged, b.merged...)
		s.stats.coalescedBatches.Add(1)
		obs.Instant(obs.PhaseCoalesce, -1, a.batch, uint64(len(b.src)))
		*b = pending{} // release the batch for GC
	}
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
// applied and published, and, on a durable Store, fsynced. Updates
// enqueued concurrently with Flush may or may not be included.
//
// A durable Flush runs its fsync on the caller's goroutine while the
// writer applies, so it costs the longer of the two, not their sum. The
// fsync covers every batch queued ahead of the sentinel: each began its log
// record under the queue lock before the sentinel was queued, and holds the
// log's lock until the record is written, so SyncAll orders behind it.
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
	// Flush is also the durability barrier: every acknowledged batch is
	// fsynced before return, regardless of the group-commit policy. A
	// failed fsync is counted in Stats.WALSyncErrors.
	if d := s.dur; d != nil {
		_ = d.log.SyncAll()
	}
	<-ch
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
// layout changes included.
func (s *Store) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}
