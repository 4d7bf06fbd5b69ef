package serve

// Stats is a point-in-time copy of the Store's always-on counters. These
// are maintained with plain atomics independently of the obs registry, so
// benchmarks and tests can read them without enabling metric collection.
type Stats struct {
	// BatchesApplied counts engine batches the shard writers have applied.
	// With coalescing this can be lower than the number of enqueue calls;
	// with multiple shards one enqueue can apply as several shard batches.
	BatchesApplied uint64
	// EdgesEnqueued counts raw edges submitted via InsertBatch/DeleteBatch.
	EdgesEnqueued uint64
	// CoalescedBatches counts enqueue calls merged into an already-queued
	// batch under backpressure.
	CoalescedBatches uint64
	// SnapshotsPublished counts published shard epochs (including each
	// shard's epoch 0).
	SnapshotsPublished uint64
	// SnapshotsReclaimed counts retired snapshots whose epoch drained and
	// whose table was recycled or dropped.
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
	// Rebalances counts completed Rebalance calls that performed at least
	// one boundary move.
	Rebalances uint64
	// BoundaryMoves counts individual boundary moves (a Rebalance may
	// perform several).
	BoundaryMoves uint64
	// MovedVertices counts materialized vertices that changed owner across
	// all boundary moves.
	MovedVertices uint64
	// MovedEdges counts directed edges that changed owner across all
	// boundary moves.
	MovedEdges uint64
	// WALRecords counts shard-batch records appended to the write-ahead
	// log (0 on a non-durable store, like every WAL* field below).
	WALRecords uint64
	// WALBytes counts framed bytes written to WAL segments.
	WALBytes uint64
	// WALFsyncs counts fsync calls on WAL segments.
	WALFsyncs uint64
	// WALAppendErrors counts batches that could not be logged (I/O error);
	// the store kept applying them in memory, so a non-zero value means
	// durability is degraded until the next successful checkpoint.
	WALAppendErrors uint64
	// Checkpoints counts published checkpoints.
	Checkpoints uint64
	// SegmentsGCed counts WAL segments deleted after a checkpoint covered
	// them.
	SegmentsGCed uint64
}

// Stats returns a copy of the Store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		BatchesApplied:     s.stats.batchesApplied.Load(),
		EdgesEnqueued:      s.stats.edgesEnqueued.Load(),
		CoalescedBatches:   s.stats.coalescedBatches.Load(),
		SnapshotsPublished: s.stats.snapshotsPublished.Load(),
		SnapshotsReclaimed: s.stats.snapshotsReclaimed.Load(),
		Rebalances:         s.rebStats.rebalances.Load(),
		BoundaryMoves:      s.rebStats.boundaryMoves.Load(),
		MovedVertices:      s.rebStats.movedVertices.Load(),
		MovedEdges:         s.rebStats.movedEdges.Load(),
	}
	for _, w := range s.ws {
		st.ArenaCleanedEntries += w.cleaned.Load()
		st.PublishedBytes += w.published.Load()
	}
	if d := s.dur; d != nil {
		ls := d.log.Stats()
		st.WALRecords = ls.Records
		st.WALBytes = ls.Bytes
		st.WALFsyncs = ls.Syncs
		st.WALAppendErrors = ls.AppendErrors
		st.Checkpoints = d.checkpoints.Load()
		st.SegmentsGCed = d.segsGCed.Load()
	}
	return st
}
