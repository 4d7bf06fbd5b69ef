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
	// BuildNanos is copying the checkpoint's CSRs to the shards' pages
	// (core.LoadCSR); it grows with checkpoint size.
	BuildNanos int64 `json:"build_nanos"`
	// ScanNanos is reading, CRC-checking and LSN-merging the WAL segments
	// on disk; it grows with the log retained (see Log.GC), not only with
	// the tail past the watermarks.
	ScanNanos int64 `json:"scan_nanos"`
	// ApplyNanos is applying the replayed records to the graph as
	// coalesced batches; it grows with the tail's edges, not its records.
	ApplyNanos int64 `json:"apply_nanos"`
	// PublishNanos is starting the store: one compaction (core.Graph.Compact),
	// which copies the live runs of every page the tail left a hole in, and
	// each shard's first publish, which only seals its table.
	PublishNanos int64 `json:"publish_nanos"`
}
