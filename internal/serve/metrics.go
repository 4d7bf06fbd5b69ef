package serve

import "lsgraph/internal/obs"

// Serving-layer metrics (internal/obs registry). All recording is gated on
// obs.Enabled(); the Store also keeps always-on plain-atomic counters
// (Stats) for benchmarks that run with collection off.
var (
	obsQueueDepth = obs.NewGauge("lsgraph_store_queue_depth", "",
		"update batches queued for the writer goroutine")
	obsCoalesced = obs.NewCounter("lsgraph_store_coalesced_total", "",
		"enqueued batches merged into a queued same-op batch under backpressure")
	obsApplied = obs.NewCounter("lsgraph_store_batches_applied_total", "",
		"update batches applied by the writer goroutine")
	obsPublish = obs.NewHistogram("lsgraph_store_publish_nanos", "", "ns",
		"per-publish snapshot latency: table seal + arena cleaning + epoch swap + reclaim scan")
	obsEpochLag = obs.NewGauge("lsgraph_store_epoch_lag", "",
		"epochs between the newest snapshot and the oldest still pinned by a reader")
	obsReclaims = obs.NewCounter("lsgraph_store_snapshots_reclaimed_total", "",
		"retired snapshots whose epoch drained: table recycled, arena pages only they could read freed")
	obsArenaCleaned = obs.NewCounter("lsgraph_store_arena_cleaned_entries_total", "",
		"adjacency entries publishes copied forward out of their emptiest arena pages")
	obsVisibilityLag = obs.NewHistogram("lsgraph_store_visibility_lag_nanos", "", "ns",
		"end-to-end enqueue-to-publish latency: how long an update waited to become reader-visible")
	obsViewPinAge = obs.NewHistogram("lsgraph_store_view_pin_age_nanos", "", "ns",
		"composed view lifetime, acquire to release; long pins delay snapshot reclamation")

	// Per-shard series (one per shard writer, labelled shard="i"). The
	// aggregate metrics above stay maintained so Shards=1 dashboards are
	// unchanged; these expose the per-pipeline breakdown sharding adds.
	obsShardQueueDepth = obs.NewIndexedGauge("lsgraph_store_shard_queue_depth", "",
		"update batches queued for one shard's writer goroutine", "shard")
	obsShardPublishLag = obs.NewIndexedGauge("lsgraph_store_shard_publish_lag", "",
		"epochs between a shard's newest snapshot and its oldest still-pinned one", "shard")
	obsArenaBytes = obs.NewIndexedGauge("lsgraph_store_arena_bytes", "",
		"resident adjacency pages of one shard's published arena: in use, free and retired, in bytes", "shard")
	obsShardApplied = obs.NewPerIndexCounter("lsgraph_store_shard_batches_applied_total", "",
		"update batches applied, by shard writer", "shard")
	obsShardRouted = obs.NewPerIndexCounter("lsgraph_store_shard_edges_routed_total", "",
		"edges routed to each shard by the batch scatter", "shard")
	obsShardSkew = obs.NewGauge("lsgraph_store_shard_skew_pct", "",
		"last scattered batch's max-shard deviation from an even split, percent of fair share (0=even, 100=2x fair, unclamped)")

	// Partition-map / rebalance series (see rebalance.go).
	obsMapEpoch = obs.NewGauge("lsgraph_store_partition_epoch", "",
		"current partition-map version; increments once per boundary move")
	obsRebalances = obs.NewCounter("lsgraph_store_rebalance_total", "",
		"completed Rebalance calls that performed at least one boundary move")
	obsRebalanceMoves = obs.NewCounter("lsgraph_store_rebalance_moves_total", "",
		"individual partition boundary moves executed")
	obsRebalanceMovedVerts = obs.NewCounter("lsgraph_store_rebalance_moved_vertices_total", "",
		"materialized vertices that changed shard during boundary moves")
	obsRebalanceMovedEdges = obs.NewCounter("lsgraph_store_rebalance_moved_edges_total", "",
		"directed edges that changed shard during boundary moves")
	obsRebalanceDuration = obs.NewHistogram("lsgraph_store_rebalance_nanos", "", "ns",
		"splice-half latency of one boundary move: splice + republish + map swap")
)
