package serve

// Stats is a point-in-time copy of the Store's counters: the plain atomics
// the Store keeps whether or not metric collection is on. They are the
// lsgraph_store_* and lsgraph_wal_* series too, which the registry reads
// from them, summed over the open Stores, when it is exported (metrics.go).
type Stats struct {
	// QueueDepth is the number of entries in the Store's queue, Flush
	// sentinels and layout changes included: a point-in-time read that may
	// change before the caller acts on it. Saturated, not this, is the shed
	// signal.
	QueueDepth int
	// BatchesApplied counts the writer's applies, each installed as one
	// epoch however many shards it touched. An apply holds one enqueued
	// batch or several merged ones, so this can be lower than the number of
	// enqueue calls, which Store.Epoch counts.
	BatchesApplied uint64
	// EdgesEnqueued counts raw edges submitted via InsertBatch/DeleteBatch.
	EdgesEnqueued uint64
	// CoalescedBatches counts enqueued batches merged into the same-op batch
	// queued ahead of them: by an enqueue that finds the queue full, and by
	// the writer, which applies a run of batches it would apply side by side
	// as one. Enqueued batches minus this is BatchesApplied, once the queue
	// is drained.
	CoalescedBatches uint64
	// SnapshotsPublished counts published shard snapshots (including each
	// shard's first, in epoch 0): one per shard a batch touched or a re-cut
	// changed the range of.
	SnapshotsPublished uint64
	// SnapshotsReclaimed counts shard snapshots recycled once every epoch
	// holding them had been retired and drained.
	SnapshotsReclaimed uint64
	// ArenaCleanedEntries counts adjacency entries the shards' publishes
	// copied forward out of their emptiest pages to keep the arenas within
	// 1.5x the live edges.
	ArenaCleanedEntries uint64
	// PublishedBytes is what the shards hold as of each one's last publish:
	// its own and the unrecycled snapshots' tables plus arena pages in use,
	// free and retired — a Store's whole copy of its edges. With
	// core.Paged.ScratchBytes, the update pipeline's buffers, it accounts
	// for a Store's heap.
	PublishedBytes uint64
	// Rebalances counts rebalances — Rebalance calls and the
	// auto-rebalancer's — that changed at least one boundary.
	Rebalances uint64
	// BoundaryMoves counts the boundaries changed so far, summed over the
	// installed re-cuts (a MoveBoundary changes one, a Rebalance up to
	// S-1): the current epoch's partition epoch.
	BoundaryMoves uint64
	// MovedVertices counts materialized vertices that changed owner, each
	// once per re-cut that moved it, however many boundaries it crossed.
	MovedVertices uint64
	// MovedEdges counts directed edges that changed owner, each once per
	// re-cut that moved it, however many boundaries it crossed.
	MovedEdges uint64
	// WALRecords counts batch records appended to the write-ahead log, one
	// per enqueued batch (0 on a non-durable store, like every WAL* field
	// below).
	WALRecords uint64
	// WALBytes counts framed bytes written to WAL segments.
	WALBytes uint64
	// WALFsyncs counts successful fsyncs of WAL segments, the ones that
	// seal a segment (rotation, Rotate, Close) included.
	WALFsyncs uint64
	// WALAppendErrors counts batches that could not be logged (I/O error);
	// the store kept applying them in memory, so a non-zero value means
	// durability is degraded until the next successful checkpoint.
	WALAppendErrors uint64
	// WALSyncErrors counts WAL fsyncs that failed: a Flush's, a group
	// commit's, a checkpoint's, an FsyncAlways append's or a segment seal's.
	// The store keeps serving; a non-zero value means acknowledged batches
	// may not be on stable storage, and only a checkpoint written after it
	// holds them for certain.
	WALSyncErrors uint64
	// Checkpoints counts published checkpoints.
	Checkpoints uint64
	// SegmentsGCed counts WAL segments deleted after a checkpoint covered
	// them.
	SegmentsGCed uint64
}

// Stats returns a copy of the Store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		QueueDepth:         s.depth(),
		BatchesApplied:     s.stats.batchesApplied.Load(),
		EdgesEnqueued:      s.stats.edgesEnqueued.Load(),
		CoalescedBatches:   s.stats.coalescedBatches.Load(),
		SnapshotsPublished: s.stats.snapshotsPublished.Load(),
		SnapshotsReclaimed: s.stats.snapshotsReclaimed.Load(),
		Rebalances:         s.rebStats.rebalances.Load(),
		BoundaryMoves:      s.cur.Load().moves,
		MovedVertices:      s.rebStats.movedVertices.Load(),
		MovedEdges:         s.rebStats.movedEdges.Load(),
	}
	for i := range s.shards {
		st.ArenaCleanedEntries += s.shards[i].cleaned.Load()
		st.PublishedBytes += s.shards[i].published.Load()
	}
	if d := s.dur; d != nil {
		ls := d.log.Stats()
		st.WALRecords = ls.Records
		st.WALBytes = ls.Bytes
		st.WALFsyncs = ls.Syncs
		st.WALAppendErrors = ls.AppendErrors
		st.WALSyncErrors = ls.SyncErrors
		st.Checkpoints = d.checkpoints.Load()
		st.SegmentsGCed = d.segsGCed.Load()
	}
	return st
}
