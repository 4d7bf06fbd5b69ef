// Package serve is LSGraph's concurrent serving layer: a sharded
// writer / multi-reader Store that lets batch updates and analytics run at
// the same time — the paper's interleaved streaming setting (§6), which
// the bare core.Graph cannot provide because its updates require exclusive
// access.
//
// Design, in one paragraph: a Store serves a core.Paged, not a core.Graph.
// Its vertex space is partitioned into S contiguous shards, each drained by
// its own writer goroutine. InsertBatch/DeleteBatch scatter a mixed batch
// by source vertex and enqueue each shard's slice into that shard's bounded
// queue, so the engine's per-vertex exclusivity contract holds by
// construction — a vertex lives in exactly one shard, and one goroutine
// owns each shard. Under backpressure a queue degrades gracefully by
// merging same-op batches instead of blocking callers. A shard keeps one
// copy of its edges, the one its readers see: a per-vertex (page‖offset,
// degree) table over an arena of fixed-size pages. The writer applies a
// batch by merging each source vertex's group with the vertex's current run
// into a new run at the arena's tail and pointing its copy of the table at
// it, then publishes: the table is sealed as an immutable core.Snapshot,
// installed with one atomic pointer swap, and — when superseded runs have
// left the pages more than half as large again as what is live — the live
// runs of the emptiest pages are copied forward and those pages retired.
// Both cost what the batch changed, not what the shard holds. Readers
// compose a view by pinning every shard's current snapshot with the
// epoch-refcount protocol — two atomic adds per shard — run any analytics
// kernel on the composed view, and release; a retired snapshot's table is
// recycled only once its epoch has drained, and a retired page is reused
// only once every snapshot published before its retirement has.
// Aspen gets this concurrency from purely functional trees and LSMGraph
// from per-range versioned multi-level CSRs with immutable runs as the write
// target; the Store gets it from epoch-pinned snapshots that share every run
// a batch did not change, with LSMGraph's choice of write target. The
// paper's in-place structures — vertex block, RIA, HITree — are the other
// type, core.Graph, which readers walk between update phases.
//
// Consistency model: each pinned shard snapshot is an exact prefix of that
// shard's applied batch sequence, and enqueue order is preserved per
// shard, so a composed view is "per-shard consistent": all edges of one
// source vertex always appear atomically, inserts/deletes of the same
// edge are never reordered, and the view's epoch (the sum of shard
// epochs) is monotone across acquires. What the composed view does not
// promise is a single global cut across shards — two edges routed to
// different shards may become visible in either order, the price of
// parallel ingest. With Shards=1 the old single-writer semantics hold
// bit for bit.
//
// Memory ordering: correctness of reclamation rests on Go's
// sequentially-consistent atomics. A reader acquires with
//
//	e := cur.Load(); e.refs.Add(1); if cur.Load() == e { pinned }
//
// and the writer recycles a retired e only after observing refs == 0
// *after* the swap that retired it. If the writer's refs read missed a
// concurrent Add, that Add is ordered after the read, hence after the
// swap, so the reader's recheck load sees the new current snapshot, fails,
// decrements, and retries without ever dereferencing the recycled table.
// A retired snapshot can never pass the recheck because each publish
// allocates a fresh epoch descriptor and epochs only move forward. An
// append to the arena needs no such proof: it writes only words past the
// written length every published snapshot's directory holds for that page,
// or a page no unrecycled snapshot's directory holds at all, so no reader
// can observe the write.
//
// Dynamic partitioning: vertex→shard routing is an immutable, epoch-
// versioned core.PartitionMap rather than a fixed span. A boundary move
// (Rebalance / MoveBoundary, rebalance.go) quiesces only the two affected
// shard writers via a rendezvous control entry in their queues, moves the
// transferred vertices' table entries and runs from one shard to the other,
// and publishes both shards' new snapshots through the same atomic swap as
// ordinary publishes.
// The Store's routeMap is the one map: it says where enqueue sends an edge.
// Where the runs live each paged shard knows itself — its range [Base, End),
// moved by core.Paged.MoveBoundary — and readers consult neither the map nor
// the shards. Every published shard epoch records the vertex
// range [lo, hi) it was built from, so a reader checks what it pinned: a
// View is consistent when its pins tile the ID space (each epoch starts
// where the previous one ends), a single-vertex read when the pinned range
// holds the vertex; otherwise it re-pins. A shard's current epoch always
// reflects every published update to the vertices in its range — a vertex
// changes owner only while both writers are parked, and both republish
// before either applies another batch — so tiling is all a reader has to
// establish: each vertex exactly once. Views pinned before a move keep
// reading the old layout until released. There is no stop-the-world
// anywhere: unaffected writers and all readers proceed throughout.
//
// Vertex-space growth: enqueue computes the batch's required bound
// (1 + max referenced ID) and reserves it in the logical vertex space
// immediately (core.Paged.ReserveVertices, an atomic max); the owning
// shard writer materializes storage with PagedShard.EnsureVertices before
// applying. Reserving at enqueue time guarantees that by the time any
// snapshot containing an edge (v,u) is published, every composed view
// pinning it reports NumVertices > u — kernels indexing per-vertex arrays
// by neighbor ID never see an out-of-range ID, even though u's own shard
// may not have published (u simply still has degree 0 there).
package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"lsgraph/internal/core"
	"lsgraph/internal/engine"
)

// Options configures a Store.
type Options struct {
	// MaxQueue is the soft bound on queued update batches per shard. Once
	// a shard's queue holds MaxQueue entries, a new batch whose op matches
	// the newest queued entry is merged into it (set semantics make
	// concatenation of same-op batches equivalent to applying them back to
	// back) instead of growing the queue; callers are never blocked.
	// Default 64.
	MaxQueue int
	// AutoRebalance, when > 0, starts a background rebalancer goroutine
	// that watches the per-shard routed-edge counters and triggers
	// Rebalance whenever the heaviest shard's load exceeds AutoRebalance
	// times its fair share (so 1.5 means "act at 50% over fair"). 0
	// disables automatic rebalancing; Rebalance can still be called
	// explicitly.
	AutoRebalance float64
	// AutoInterval is how often the auto-rebalancer checks the skew.
	// Default 1s; ignored when AutoRebalance is 0.
	AutoInterval time.Duration
}

func (o *Options) sanitize() {
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.AutoInterval <= 0 {
		o.AutoInterval = time.Second
	}
}

// epochSnap is one published shard snapshot with its epoch and reader
// refcount. refs counts pinned readers; the snapshot's table is recycled
// only after it has been retired (a newer epoch swapped in) and refs has
// drained to zero. [lo, hi) is the shard's vertex range when snap was
// built (hi is openEnd for the last shard, whose range absorbs growth):
// what readers check instead of any partition map, so a pin can never be
// routed by a layout other than its own (see View and pinFor).
// lsn records the shard writer's applied-LSN watermark at publish time:
// every WAL record of this shard's log with an LSN at or below it is
// reflected in snap, and none above it are. It is what makes a pinned
// snapshot a durable cut a checkpoint can anchor replay to (durable.go).
type epochSnap struct {
	snap  *core.Snapshot
	epoch uint64
	lo    uint32
	hi    uint64
	lsn   uint64
	refs  atomic.Int64
}

// openEnd is the hi of the last shard's range: above every vertex ID.
const openEnd = 1 << 32

// shardWriter is one shard's update pipeline: a bounded queue drained by
// one goroutine that applies batches to its core.PagedShard and republishes
// the shard's snapshot after each. All mutable state except the queue is
// owned by the writer goroutine.
type shardWriter struct {
	s     *Store
	shard core.PagedShard
	idx   int

	mu     sync.Mutex
	queue  []pending
	closed bool

	wake chan struct{} // cap 1; tokens coalesce
	done chan struct{} // closed when this writer exits

	cur atomic.Pointer[epochSnap]

	// Writer-goroutine-owned: snapshots retired but not yet drained.
	retired []*epochSnap

	// appliedLSN is the highest WAL LSN among batches this writer has
	// applied. Written by the writer goroutine before each publish and read
	// by buildSnap — writer-owned like retired (the rebalance executor
	// reads it only while both affected writers are parked, the same
	// happens-before argument that makes publishing the shard safe there).
	appliedLSN uint64

	// applied counts the batches this writer has applied. published, pages
	// and cleaned are the shard's core.PublishedStats Total, arena pages
	// (InUse+Free+Retired) and Cleaned as of its last publish, and lag the
	// epochs between its newest snapshot and its oldest still pinned, all
	// stored by the writer for Stats and the store series to read.
	applied, published, pages, cleaned, lag atomic.Uint64
}

// Store is the sharded-writer / multi-reader serving layer over one
// core.Paged. Updates (InsertBatch, DeleteBatch) enqueue and return
// immediately; reads always succeed against the most recently published
// shard snapshots. Store implements engine.Graph and engine.Update, so
// every analytics kernel and the benchmark harness run on a live Store
// unmodified.
//
// Store's own read methods pin and release the owning shard's current
// snapshot per call: they are individually consistent but successive calls
// may observe different epochs. A kernel that needs one coherent graph for
// its whole run should acquire a View and run against that.
type Store struct {
	g   *core.Paged
	opt Options

	ws     []*shardWriter
	closed atomic.Bool
	done   chan struct{} // closed when every shard writer has exited

	// routeMap is the partition map enqueue scatters by. It is swapped to
	// the successor map at control-entry install time — before the splice —
	// under rebMu's write lock, so every batch is routed wholly by one map:
	// batches ahead of a shard's control entry by the old map, behind it by
	// the new (see rebalance.go for why either is correct at apply time).
	// It is the Store's only map: where the runs live is the paged shards'
	// to know, and readers check the ranges their pins carry.
	routeMap atomic.Pointer[core.PartitionMap]
	// rebMu orders enqueue's scatter+append critical section (read side)
	// against control-entry installation (write side).
	rebMu sync.RWMutex
	// rebalanceMu serializes whole rebalance operations.
	rebalanceMu sync.Mutex
	// routed counts edges routed to each shard since construction — the
	// load signal the rebalance policy reads.
	routed []atomic.Uint64

	// dur is the durability state (WAL + checkpoints), nil for a purely
	// in-memory Store. OpenDurable sets it, log attached, before the Store
	// is visible to callers; recovery ran on the graph before New, so
	// nothing it replayed could be re-logged.
	dur *durability

	autoStop chan struct{} // closes to stop the auto-rebalancer
	autoDone chan struct{} // closed when the auto-rebalancer exits

	rebStats struct {
		rebalances    atomic.Uint64
		boundaryMoves atomic.Uint64
		movedVertices atomic.Uint64
		movedEdges    atomic.Uint64
	}

	stats struct {
		edgesEnqueued      atomic.Uint64
		coalescedBatches   atomic.Uint64
		snapshotsPublished atomic.Uint64
		snapshotsReclaimed atomic.Uint64
	}
}

// Compile-time interface checks: kernels written against engine.Graph run
// on a live Store or a pinned View without modification.
var (
	_ engine.Graph  = (*Store)(nil)
	_ engine.Update = (*Store)(nil)
	_ engine.Graph  = (*View)(nil)
)

// New wraps g in a Store and starts one writer goroutine per shard of g.
// The Store takes ownership of g: the caller must not call any method on g
// afterwards. The initial state of every shard is published immediately as
// its epoch 0, so reads never wait for a first batch.
func New(g *core.Paged, opt Options) *Store {
	s := launch(g, opt)
	track(s)
	return s
}

// launch is New without joining the set of Stores the store series sum
// over, for OpenDurable to attach the durability state first.
func launch(g *core.Paged, opt Options) *Store {
	opt.sanitize()
	s := &Store{
		g:    g,
		opt:  opt,
		done: make(chan struct{}),
	}
	pm := &core.PartitionMap{Starts: make([]uint32, g.NumShards())}
	for i := range pm.Starts {
		pm.Starts[i] = g.Shard(i).Base()
	}
	s.routeMap.Store(pm)
	s.routed = make([]atomic.Uint64, g.NumShards())
	s.ws = make([]*shardWriter, g.NumShards())
	for i := range s.ws {
		w := &shardWriter{
			s:     s,
			shard: g.Shard(i),
			idx:   i,
			wake:  make(chan struct{}, 1),
			done:  make(chan struct{}),
		}
		w.publish(0)
		s.ws[i] = w
	}
	for _, w := range s.ws {
		go w.run()
	}
	go func() {
		for _, w := range s.ws {
			<-w.done
		}
		close(s.done)
	}()
	if opt.AutoRebalance > 0 && len(s.ws) > 1 {
		s.autoStop = make(chan struct{})
		s.autoDone = make(chan struct{})
		go s.autoRebalance()
	}
	return s
}

// Shards returns the number of shard writer pipelines.
func (s *Store) Shards() int { return len(s.ws) }

// Close drains every shard's queue, applies and publishes any remaining
// batches, stops the writer goroutines, and waits for them to exit.
// InsertBatch and DeleteBatch must not be called concurrently with or after
// Close; they panic. Enqueue may: it returns ErrClosed from then on. Views
// acquired before Close stay valid (snapshots are immutable and GC-managed).
func (s *Store) Close() {
	// Under rebMu's write lock no enqueue is between its closed check and
	// its last queue append: what Enqueue accepted is queued before any
	// writer below is told to finish.
	s.rebMu.Lock()
	already := s.closed.Swap(true)
	s.rebMu.Unlock()
	if already {
		<-s.done
		return
	}
	if s.autoStop != nil {
		close(s.autoStop)
		<-s.autoDone
	}
	for _, w := range s.ws {
		w.mu.Lock()
		w.closed = true
		w.mu.Unlock()
		w.signal()
	}
	<-s.done
	// Seal the WAL after the writers have drained: every logged record has
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
