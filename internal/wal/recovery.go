package wal

// RecoveryStats summarizes one recovery: what OpenDurable (internal/serve)
// loaded from the newest valid checkpoint and re-applied from the WAL.
// The JSON field names are part of the /healthz payload served by
// internal/httpserve.
type RecoveryStats struct {
	// CheckpointLoaded reports whether a valid checkpoint was found.
	CheckpointLoaded bool `json:"checkpoint_loaded"`
	// CheckpointVertices is the loaded checkpoint's logical vertex bound.
	CheckpointVertices uint32 `json:"checkpoint_vertices"`
	// CheckpointEdges counts edges bulk-loaded from the checkpoint.
	CheckpointEdges uint64 `json:"checkpoint_edges"`
	// ReplayedRecords counts WAL records re-applied past the watermarks.
	ReplayedRecords uint64 `json:"replayed_records"`
	// ReplayedEdges counts edges across replayed records.
	ReplayedEdges uint64 `json:"replayed_edges"`
	// Segments counts WAL segment files scanned.
	Segments int `json:"segments"`
	// TruncatedSegments counts segments whose torn or corrupt tail was
	// truncated to the clean prefix.
	TruncatedSegments int `json:"truncated_segments"`
	// TornBytes is the total torn-tail length truncated away.
	TornBytes int64 `json:"torn_bytes"`
	// MaxLSN is the highest LSN observed in the log; new appends continue
	// after it.
	MaxLSN uint64 `json:"max_lsn"`
	// DurationNanos is the recovery wall time, checkpoint load through the
	// first publish. The five phases below run back to back inside it, so
	// they sum to at most this (the rest is opening the log for appends).
	DurationNanos int64 `json:"duration_nanos"`
	// LoadNanos is reading, CRC-checking and validating the checkpoint
	// files; it grows with checkpoint size.
	LoadNanos int64 `json:"load_nanos"`
	// ScanNanos is reading and CRC-checking the WAL segments on disk and
	// LSN-merging the records past the watermarks, whose edges are packed as
	// they go; it grows with the log retained (see Log.GC) — a record at or
	// below its watermark is checked, not decoded — and with the tail's edges.
	ScanNanos int64 `json:"scan_nanos"`
	// ReduceNanos is bringing the tail to its net effect, each edge's last
	// op: one sort of its edges. It grows with the tail's edges, not its
	// records or how often their op changes; 0 with no tail.
	ReduceNanos int64 `json:"reduce_nanos"`
	// MergeNanos is writing the shards' pages: every checkpoint run merged
	// with the tail's changes to its vertex by the batch merge — find, place,
	// write — and written once (core.Paged.LoadCSR). It grows with the
	// recovered graph and the tail.
	MergeNanos int64 `json:"merge_nanos"`
	// PublishNanos is starting the store: each shard's first publish, which
	// only seals its table.
	PublishNanos int64 `json:"publish_nanos"`
}
