// Package serve is LSGraph's concurrent serving layer: a single-writer /
// multi-reader Store that lets batch updates and analytics run at the same
// time — the paper's interleaved streaming setting (§6), which the bare
// core.Graph cannot provide because its updates require exclusive access.
//
// Design, in one paragraph: a Store serves a core.Paged, not a core.Graph.
// Its vertex space is partitioned into S contiguous shards, and one writer
// goroutine owns all of them. InsertBatch/DeleteBatch copy a mixed batch
// into one allocation and append it, as one entry, to the Store's bounded
// queue. The writer takes each entry in turn, scatters it by source vertex
// by the shards' ranges as they are then, and applies the parts, each shard
// on its share of the worker budget — side by side, a claimed loop over
// the touched shards, when a caller waits for the batch or it is big, else
// one after another (writer.go) — so the engine's per-vertex exclusivity
// contract holds by construction: a vertex lives in exactly one shard, and
// one worker applies each shard's part. Same-op batches merge into one
// apply where that costs nobody: the writer merges each run of queued
// batches it would apply side by side (a bulk load's requests, the batches
// ahead of a Flush), and under backpressure the queue degrades gracefully
// by merging instead of blocking callers. A shard keeps one copy of its
// edges, the one its readers see: a per-vertex (page‖offset, degree) table
// over an arena of fixed-size pages. Applying a part merges each source
// vertex's group with the vertex's current run into a new run at the
// arena's tail and points the shard's copy of the table at it; the shard
// then seals the table as an immutable core.Snapshot and — when superseded
// runs have left the pages more than half as large again as what is live —
// copies the live runs of the emptiest pages forward and retires those
// pages. Both cost what the batch changed, not what the shard
// holds. Once every touched shard has published, the writer installs one
// immutable epoch — every shard's current snapshot, its range, and the
// batch's WAL LSN — with one atomic pointer swap. Readers pin that epoch
// with the refcount protocol below — two atomic adds — run any analytics
// kernel on it, and release; a shard snapshot's table is recycled only once
// every epoch holding it has drained, and a retired page is reused only
// once every snapshot published before its retirement has.
// Aspen gets this concurrency from purely functional trees and one writer
// that publishes one version per batch, and LSMGraph from per-range
// versioned multi-level CSRs with immutable runs as the write target; the
// Store gets it from epoch-pinned snapshots that share every run a batch
// did not change, with Aspen's one version per batch and LSMGraph's choice
// of write target. The paper's in-place structures — vertex block, RIA,
// HITree — are the other type, core.Graph, which readers walk between
// update phases.
//
// Consistency model: every epoch is a prefix of the batch sequence — the
// queue's order — so a View holds all of a batch or none of it, across
// every shard, and its Epoch is the number of batches it holds, monotone
// across acquires. Inserts and deletes of the same edge are never
// reordered.
//
// Memory ordering: correctness of reclamation rests on Go's
// sequentially-consistent atomics. A reader acquires with
//
//	e := cur.Load(); e.refs.Add(1); if cur.Load() == e { pinned }
//
// and the writer treats a retired e as drained only after observing
// refs == 0 *after* the swap that retired it. If the writer's refs read
// missed a concurrent Add, that Add is ordered after the read, hence after
// the swap, so the reader's recheck load sees the new current epoch, fails,
// decrements, and retries without ever dereferencing a recycled table. A
// retired epoch can never pass the recheck because each install allocates
// a fresh epoch and epochs only move forward. An append to the arena needs
// no such proof: it writes only words past the written length every
// published snapshot's directory holds for that page, or a page no
// unrecycled snapshot's directory holds at all, so no reader can observe
// the write.
//
// Dynamic partitioning: the paged shards' own ranges [Base, End) are the
// only layout fact, and only the writer reads or changes them. It routes
// each batch by them when it applies it, and a layout change (Rebalance /
// MoveBoundary, rebalance.go) is one re-cut it runs between the batches
// around it: it gives every shard whose range changed a fresh table, copies
// each run whose owner changed once, from its old shard to its new one
// (core.Paged.Recut, which refuses a cut that would empty a shard),
// republishes each changed shard, and installs the next epoch like any
// other. MoveBoundary and Rebalance queue their change as an entry; the
// auto-rebalancer's runs on the writer right after an apply. So every
// batch ahead of a change is routed by the layout before it and every
// batch behind it by the layout after.
// Every epoch records each shard's range and the number of boundaries
// changed so far (the partition epoch), so readers consult neither the
// shards nor any map. Views pinned before a change keep reading the old
// layout until released; readers never wait.
//
// Vertex-space growth: enqueue computes the batch's required bound
// (1 + max referenced ID) while it copies the batch and reserves it in the logical vertex space
// immediately (core.Paged.ReserveVertices, an atomic max); the writer
// materializes storage with PagedShard.EnsureVertices before applying.
// Reserving at enqueue time guarantees that by the time any epoch holding
// an edge (v,u) is installed, every view pinning it reports
// NumVertices > u — kernels indexing per-vertex arrays by neighbor ID never
// see an out-of-range ID, even though u's own shard may hold no run for it
// (u simply still has degree 0 there).
package serve

import (
	"sync"
	"sync/atomic"

	"lsgraph/internal/core"
	"lsgraph/internal/engine"
)

// Options configures a Store.
type Options struct {
	// MaxQueue is the soft bound on the Store's queued update batches. Once
	// the queue holds MaxQueue entries, a new batch whose op matches the
	// newest queued entry is merged into it (set semantics make
	// concatenation of same-op batches equivalent to applying them back to
	// back) instead of growing the queue; callers are never blocked.
	// Default 64.
	MaxQueue int
	// AutoRebalance, when > 0, has the writer check the skew after an
	// apply, at most once a second: when the heaviest shard took more than
	// AutoRebalance times its fair share of the edges routed since the last
	// check (so 1.5 means "act at 50% over fair"), it runs Rebalance's
	// re-cut inline. No goroutine is added, and a store that takes no
	// batches keeps its layout. 0 disables automatic rebalancing; Rebalance
	// can still be called explicitly.
	AutoRebalance float64
}

func (o *Options) sanitize() {
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
}

// epoch is one installed cut of the Store: every shard's snapshot as of
// the same point of the batch sequence, and the reader refcount that keeps
// them. refs counts pinned readers; an epoch's snapshots are released only
// after it has been retired (a newer epoch swapped in) and refs has drained
// to zero. batches is how many enqueued batches it holds, and lsn the
// highest WAL LSN among them, or the recovery floor a reopened Store's first
// epoch starts at: every logged record with an LSN at or below it is
// reflected, none above it, which is what makes a pinned epoch a
// durable cut a checkpoint can anchor replay to (durable.go). m is the
// shards' edge total, and moves the number of boundaries changed so far,
// summed over the installed re-cuts: the partition epoch, read with the
// layout it counts.
type epoch struct {
	shards  []shardPin
	batches uint64
	lsn     uint64
	m       uint64
	moves   uint64
	refs    atomic.Int64
}

// shardPin is one shard's snapshot in an epoch, with the vertex range
// [lo, hi) it was built over (hi is 2³² for the last shard, whose range
// absorbs growth): what readers route by instead of any partition map, so a
// pin can never be read by a layout other than its own. Successive epochs
// share a shard's pin until a batch or a re-cut changes the shard.
type shardPin struct {
	snap *core.Snapshot
	lo   uint32
	hi   uint64
}

// shardState is the writer's side of one shard: the paged shard it
// applies to, and its unrecycled snapshots with the number of undrained
// epochs holding each, the last one current. applied counts the batch
// parts applied to the shard; published, pages and cleaned are its
// core.PublishedStats Total, arena pages (InUse+Free+Retired) and Cleaned
// as of the last epoch, stored by the writer for Stats and the store
// series to read.
type shardState struct {
	shard core.PagedShard
	held  []heldSnap

	applied, published, pages, cleaned atomic.Uint64
}

// heldSnap is a shard snapshot and how many undrained epochs hold it.
type heldSnap struct {
	snap *core.Snapshot
	n    int
}

// Store is the single-writer / multi-reader serving layer over one
// core.Paged. Updates (InsertBatch, DeleteBatch) enqueue and return
// immediately; reads always succeed against the most recently installed
// epoch. Store implements engine.Graph and engine.Update, so every
// analytics kernel and the benchmark harness run on a live Store
// unmodified.
//
// Store's own read methods pin and release a View per call: they are
// individually consistent but successive calls may observe different
// epochs. A kernel that needs one coherent graph for its whole run should
// acquire a View and run against that.
type Store struct {
	// cur is the epoch every reader loads. Its cache line holds only fields
	// set before the Store is visible (g, opt, wake, done, dur) or at Close
	// (closed), so no enqueue or batch writes the line every reader reads
	// (TestStoreLayout). A Store stays at 320 bytes: that size class starts
	// every object on a line, and a larger one would start every other
	// Store 32 bytes off one — at 336 bytes the benchmark's point reads ran
	// 7–10 % slower (EXPERIMENTS.md "One re-cut").
	cur  atomic.Pointer[epoch]
	g    *core.Paged
	opt  Options
	wake chan struct{} // cap 1; tokens coalesce
	done chan struct{} // closed when the writer has exited
	// dur is the durability state (WAL + checkpoints), nil for a purely
	// in-memory Store. OpenDurable sets it, log attached, before the Store
	// is visible to callers; recovery ran on the graph before New, so
	// nothing it replayed could be re-logged.
	dur *durability
	// closed is set under mu, so a batch Enqueue accepts is queued before
	// Close marks the Store closed.
	closed atomic.Bool

	// Writer-goroutine-owned: the shards, the epochs retired but not yet
	// drained, and the shards the batch being applied touches. spare is the
	// slice the writer last drained, swapped with the queue under mu.
	shards  []shardState
	retired []*epoch
	touched []int
	spare   []pending

	// mu guards the queue.
	mu    sync.Mutex
	queue []pending

	// routed counts edges the writer routed to each shard since
	// construction — the load signal the rebalance policy reads.
	routed []atomic.Uint64

	// auto is the writer's skew check (autoCheck): the obs.Now at which the
	// next is due, and the routed counters the last one read; seen is nil
	// when the check is off.
	auto struct {
		next int64
		seen []uint64
	}

	rebStats struct {
		rebalances    atomic.Uint64
		movedVertices atomic.Uint64
		movedEdges    atomic.Uint64
	}

	stats struct {
		batchesApplied     atomic.Uint64
		edgesEnqueued      atomic.Uint64
		coalescedBatches   atomic.Uint64
		snapshotsPublished atomic.Uint64
		snapshotsReclaimed atomic.Uint64
		lag                atomic.Uint64
	}
}

// Compile-time interface checks: kernels written against engine.Graph run
// on a live Store or a pinned View without modification.
var (
	_ engine.Graph  = (*Store)(nil)
	_ engine.Update = (*Store)(nil)
	_ engine.Graph  = (*View)(nil)
)

// New wraps g in a Store and starts its writer goroutine. The Store takes
// ownership of g: the caller must not call any method on g afterwards. The
// initial state of every shard is published immediately as epoch 0, so
// reads never wait for a first batch.
func New(g *core.Paged, opt Options) *Store {
	s := launch(g, opt, 0)
	track(s)
	return s
}

// launch is New without joining the set of Stores the store series sum
// over, for OpenDurable to attach the durability state first. The first
// epoch's LSN is lsn: the highest WAL LSN g already reflects.
func launch(g *core.Paged, opt Options, lsn uint64) *Store {
	opt.sanitize()
	S := g.NumShards()
	s := &Store{
		g:      g,
		opt:    opt,
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		shards: make([]shardState, S),
		routed: make([]atomic.Uint64, S),
	}
	e := &epoch{shards: make([]shardPin, S), lsn: lsn}
	for i := range s.shards {
		s.shards[i].shard = g.Shard(i)
		e.shards[i] = s.publish(i, 0, 0)
	}
	s.install(e)
	if opt.AutoRebalance > 0 && S > 1 {
		s.auto.seen = make([]uint64, S)
	}
	go s.run()
	return s
}

// Shards returns the number of vertex-range shards.
func (s *Store) Shards() int { return len(s.shards) }

// Close drains the queue, applies and publishes any remaining batches,
// stops the writer goroutine, and waits for it to exit. InsertBatch and
// DeleteBatch must not be called concurrently with or after Close; they
// panic. Enqueue may: it returns ErrClosed from then on. Views acquired
// before Close stay valid (snapshots are immutable and GC-managed).
func (s *Store) Close() {
	s.mu.Lock()
	already := s.closed.Swap(true)
	s.mu.Unlock()
	if already {
		<-s.done
		return
	}
	s.signal()
	<-s.done
	// Seal the WAL after the writer has drained: every logged record has
	// been applied, and Close's final sync makes them all durable. Close
	// does not checkpoint — reopening replays the log — so a clean
	// shutdown that wants a fast restart calls Checkpoint first. Taking
	// ckptMu waits out any in-flight checkpoint (auto or explicit), so no
	// background writer touches the directory after Close returns; a
	// checkpoint that has not locked yet bails on the closed re-check.
	if d := s.dur; d != nil {
		d.ckptMu.Lock()
		d.ckptMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
		d.log.Close()
	}
	untrack(s)
}
