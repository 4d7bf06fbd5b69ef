package core

import "lsgraph/internal/obs"

// Engine metrics (internal/obs registry); the pack, partition and apply
// phases are obs layers, timed by spans in batch.go. Path/edge counters are
// recorded per group or per batch, sharded by the applying worker. All
// hot-path recording is gated on obs.Enabled(); structural promotions are
// rare and recorded unconditionally so one-off runs can read them from a
// Snapshot without enabling collection.
var (
	obsRangeSort = obs.NewHistogram("lsgraph_batch_range_sort_nanos", "", "ns",
		"share of the apply phase spent in per-range sorts: the slowest worker's accumulated time")

	obsBatchesIns = obs.NewCounter("lsgraph_batches_total", `op="insert"`, "update batches applied")
	obsBatchesDel = obs.NewCounter("lsgraph_batches_total", `op="delete"`, "update batches applied")
	obsUpdatesIns = obs.NewCounter("lsgraph_batch_updates_total", `op="insert"`,
		"raw updates submitted, before dedup")
	obsUpdatesDel = obs.NewCounter("lsgraph_batch_updates_total", `op="delete"`,
		"raw updates submitted, before dedup")
	obsEdgesAdded = obs.NewCounter("lsgraph_edges_changed_total", `op="insert"`,
		"directed edges actually added")
	obsEdgesRemoved = obs.NewCounter("lsgraph_edges_changed_total", `op="delete"`,
		"directed edges actually removed")

	obsGroupsBulk = obs.NewCounter("lsgraph_batch_groups_total", `path="bulk"`,
		"per-vertex groups applied via merge-and-rebuild")
	obsGroupsEdge = obs.NewCounter("lsgraph_batch_groups_total", `path="per-edge"`,
		"per-vertex groups applied one edge at a time")

	obsGroupSize = obs.NewHistogram("lsgraph_batch_group_size", "", "elements",
		"deduplicated updates per source-vertex group (log2 buckets expose batch skew)")
	obsPrepWorkers = obs.NewGauge("lsgraph_batch_prepare_workers", "",
		"effective worker count of the most recent batch pipeline")
	obsScratchHit = obs.NewPerWorkerCounter("lsgraph_batch_scratch_total", `result="hit"`,
		"bulk groups whose per-worker apply arena was already large enough, by worker")
	obsScratchMiss = obs.NewPerWorkerCounter("lsgraph_batch_scratch_total", `result="miss"`,
		"bulk groups that had to grow their per-worker apply arena, by worker")

	obsPromoteArrRIA = obs.NewCounter("lsgraph_overflow_promotions_total", `from="array",to="ria"`,
		"overflow structures promoted from sorted array to RIA")
	obsPromoteRIAHIT = obs.NewCounter("lsgraph_overflow_promotions_total", `from="ria",to="hitree"`,
		"overflow structures promoted from RIA to HITree (the transitions §6.2 counts)")
)
