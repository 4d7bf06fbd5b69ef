package serve

import (
	"sync"

	"lsgraph/internal/obs"
)

// Serving-layer metrics (internal/obs registry). Enqueue, scatter, publish,
// reclaim, rebalance and view pins are obs layers, timed by spans; the skew
// gauge and the visibility-lag histogram are recorded per event, gated on
// obs.Enabled().
//
// Every other lsgraph_store_* and lsgraph_wal_* series is a count the Stores
// already keep for Stats, read when the registry is exported: the sum over
// the open Stores, per shard index for a shard series, plus — for a counter —
// what the closed ones had counted, so no counter goes down when a graph is
// dropped. They are exported whether or not collection is on.
var (
	obsShardSkew = obs.NewGauge("lsgraph_store_shard_skew_pct", "",
		"last scattered batch's max-shard deviation from an even split, percent of fair share (0=even, 100=2x fair, unclamped)")
	obsVisibilityLag = obs.NewHistogram("lsgraph_store_visibility_lag_nanos", "", "ns",
		"end-to-end enqueue-to-publish latency: how long an update waited to become reader-visible")
)

// stores is the set of open Stores the read-at-export series sum over.
var stores = struct {
	mu     sync.Mutex
	open   map[*Store]struct{}
	series []*storeSeries
}{open: map[*Store]struct{}{}}

// storeSeries is one read-at-export series: what one Store contributes to
// it, and, for a counter, what the closed Stores contributed.
type storeSeries struct {
	counter bool
	read    func(s *Store, dst []uint64) []uint64 // one value, or one per shard
	closed  []uint64
}

func init() {
	one := func(f func(s *Store) uint64) func(*Store, []uint64) []uint64 {
		return func(s *Store, dst []uint64) []uint64 { return append(dst, f(s)) }
	}
	stat := func(f func(st *Stats) uint64) func(*Store, []uint64) []uint64 {
		return one(func(s *Store) uint64 { st := s.Stats(); return f(&st) })
	}
	perShard := func(f func(s *Store, i int) uint64) func(*Store, []uint64) []uint64 {
		return func(s *Store, dst []uint64) []uint64 {
			for i := range s.shards {
				dst = append(dst, f(s, i))
			}
			return dst
		}
	}
	for _, m := range []struct {
		name, help string
		counter    bool
		index      string
		read       func(*Store, []uint64) []uint64
	}{
		{"lsgraph_store_queue_depth", "entries queued for the writer goroutine: batches, flush sentinels and boundary moves",
			false, "", stat(func(st *Stats) uint64 { return uint64(st.QueueDepth) })},
		{"lsgraph_store_publish_lag", "batches between the newest epoch and the oldest one still pinned",
			false, "", one(func(s *Store) uint64 { return s.stats.lag.Load() })},
		{"lsgraph_store_arena_bytes", "resident adjacency pages of one shard's published arena: in use, free and retired, in bytes",
			false, "shard", perShard(func(s *Store, i int) uint64 { return s.shards[i].pages.Load() })},
		{"lsgraph_store_partition_epoch", "partition epoch: boundary moves installed so far, one per move however many a rebalance makes",
			false, "", one(func(s *Store) uint64 { return s.cur.Load().moves })},
		{"lsgraph_store_shard_batches_applied_total", "batch parts applied to each shard; a batch counts once in every shard it touched",
			true, "shard", perShard(func(s *Store, i int) uint64 { return s.shards[i].applied.Load() })},
		{"lsgraph_store_shard_edges_routed_total", "edges the writer's scatter routed to each shard",
			true, "shard", perShard(func(s *Store, i int) uint64 { return s.routed[i].Load() })},
		{"lsgraph_store_coalesced_total", "enqueued batches merged into the same-op batch queued ahead of them, under backpressure or when the writer applies a run of them as one",
			true, "", stat(func(st *Stats) uint64 { return st.CoalescedBatches })},
		{"lsgraph_store_snapshots_reclaimed_total", "retired snapshots whose epoch drained: table recycled, arena pages only they could read freed",
			true, "", stat(func(st *Stats) uint64 { return st.SnapshotsReclaimed })},
		{"lsgraph_store_arena_cleaned_entries_total", "adjacency entries publishes copied forward out of their emptiest arena pages",
			true, "", stat(func(st *Stats) uint64 { return st.ArenaCleanedEntries })},
		{"lsgraph_store_rebalance_total", "completed Rebalance calls that performed at least one boundary move",
			true, "", stat(func(st *Stats) uint64 { return st.Rebalances })},
		{"lsgraph_store_rebalance_moved_vertices_total", "materialized vertices that changed shard during boundary moves",
			true, "", stat(func(st *Stats) uint64 { return st.MovedVertices })},
		{"lsgraph_store_rebalance_moved_edges_total", "directed edges that changed shard during boundary moves",
			true, "", stat(func(st *Stats) uint64 { return st.MovedEdges })},
		{"lsgraph_wal_records_total", "batch records appended to the write-ahead log",
			true, "", stat(func(st *Stats) uint64 { return st.WALRecords })},
		{"lsgraph_wal_bytes_total", "framed bytes written to WAL segment files",
			true, "", stat(func(st *Stats) uint64 { return st.WALBytes })},
		{"lsgraph_wal_fsyncs_total", "fsync calls on WAL segment files (group-commit policy dependent)",
			true, "", stat(func(st *Stats) uint64 { return st.WALFsyncs })},
		{"lsgraph_wal_sync_errors_total", "fsync calls on WAL segment files that failed: acknowledged batches may not be on stable storage",
			true, "", stat(func(st *Stats) uint64 { return st.WALSyncErrors })},
		{"lsgraph_wal_segments_gced_total", "sealed WAL segments deleted after a checkpoint covered them",
			true, "", stat(func(st *Stats) uint64 { return st.SegmentsGCed })},
		{"lsgraph_wal_checkpoints_total", "checkpoints published (atomic tmp+rename completed)",
			true, "", stat(func(st *Stats) uint64 { return st.Checkpoints })},
		{"lsgraph_wal_replay_records_total", "WAL records re-applied during recovery",
			true, "", one(func(s *Store) uint64 { return s.Recovery().ReplayedRecords })},
	} {
		ser := &storeSeries{counter: m.counter, read: m.read}
		stores.series = append(stores.series, ser)
		typ := "gauge"
		if m.counter {
			typ = "counter"
		}
		obs.NewFunc(m.name, "", typ, m.help, m.index, ser.values)
	}
}

// values is the series summed over the open Stores, index by index, after
// what the closed ones counted.
func (ser *storeSeries) values(dst []uint64) []uint64 {
	stores.mu.Lock()
	defer stores.mu.Unlock()
	sum := addValues(nil, ser.closed)
	var one []uint64
	for s := range stores.open {
		one = ser.read(s, one[:0])
		sum = addValues(sum, one)
	}
	return append(dst, sum...)
}

// addValues adds vs into sum index by index, growing sum as needed.
func addValues(sum, vs []uint64) []uint64 {
	for len(sum) < len(vs) {
		sum = append(sum, 0)
	}
	for i, v := range vs {
		sum[i] += v
	}
	return sum
}

// track adds s to the set the series sum over. s must be complete — its
// durability state attached — since an export may read it from then on.
func track(s *Store) {
	stores.mu.Lock()
	stores.open[s] = struct{}{}
	stores.mu.Unlock()
}

// untrack removes a closed s from the set, its counters' final values
// kept in the counter series' totals.
func untrack(s *Store) {
	stores.mu.Lock()
	defer stores.mu.Unlock()
	delete(stores.open, s)
	for _, ser := range stores.series {
		if ser.counter {
			ser.closed = addValues(ser.closed, ser.read(s, nil))
		}
	}
}
