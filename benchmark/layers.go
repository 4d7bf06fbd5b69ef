package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"

	"lsgraph"
	"lsgraph/internal/algo"
	"lsgraph/internal/core"
	"lsgraph/internal/hitree"
	"lsgraph/internal/httpserve"
	"lsgraph/internal/parallel"
	"lsgraph/internal/ria"
	"lsgraph/internal/wal"
)

// perLayer lists the metrics of single layers (layer = module name). A
// traced run of any workload reports all of them, measured from outside: the
// shadow stack below drives the workload's own graph and update batch through
// each layer's public functions, bottom-up, and every timing is the median
// length of the spans of one name. README.md says which end-to-end metric
// each is expected to move.
var perLayer = []metric{
	{name: "parallel.sort_ns_per_key", unit: "ns/key"},
	{name: "core.insert_ns_per_edge", unit: "ns/edge"},
	{name: "core.delete_ns_per_edge", unit: "ns/edge"},
	{name: "core.scatter_ns_per_edge", unit: "ns/edge"},
	{name: "core.shard_insert_ns_per_edge", unit: "ns/edge"},
	{name: "core.snapshot_ms", unit: "ms"},
	{name: "core.snapshot_bytes", unit: "B"},
	{name: "core.neighbors_ns_per_edge", unit: "ns/edge"},
	{name: "core.snapshot_neighbors_ns_per_edge", unit: "ns/edge"},
	{name: "core.mem_bytes_per_edge", unit: "B/edge"},
	{name: "core.index_bytes_per_edge", unit: "B/edge"},
	{name: "ria.insert_ns", unit: "ns"},
	{name: "ria.delete_ns", unit: "ns"},
	{name: "ria.scan_ns_per_edge", unit: "ns/edge"},
	{name: "hitree.insert_ns", unit: "ns"},
	{name: "hitree.delete_ns", unit: "ns"},
	{name: "hitree.scan_ns_per_edge", unit: "ns/edge"},
	{name: "algo.pagerank_engine_ns_per_edge", unit: "ns/edge"},
	{name: "algo.bfs_engine_ns_per_edge", unit: "ns/edge"},
	{name: "algo.pagerank_view_ns_per_edge", unit: "ns/edge"},
	{name: "algo.bfs_view_ns_per_edge", unit: "ns/edge"},
	{name: "algo.cc_view_ms", unit: "ms"},
	{name: "serve.enqueue_us", unit: "us"},
	{name: "serve.flush_wait_ms", unit: "ms"},
	{name: "serve.self_ms", unit: "ms"},
	{name: "serve.view_pin_ns", unit: "ns"},
	{name: "serve.epochs", unit: "count"},
	{name: "serve.coalesced_batches", unit: "count"},
	{name: "serve.snapshots_reclaimed", unit: "count"},
	{name: "serve.update_p99_ms", unit: "ms"},
	{name: "wal.append_us", unit: "us"},
	{name: "wal.sync_ms", unit: "ms"},
	{name: "wal.fsyncs", unit: "count"},
	{name: "wal.bytes_per_edge", unit: "B/edge"},
	{name: "wal.checkpoint_write_ms", unit: "ms"},
	{name: "wal.replay_ns_per_edge", unit: "ns/edge"},
	{name: "wal.checkpoint_load_ms", unit: "ms"},
	{name: "httpserve.decode_bin_ns_per_edge", unit: "ns/edge"},
	{name: "httpserve.decode_ndjson_ns_per_edge", unit: "ns/edge"},
	{name: "httpserve.ingest_handler_us", unit: "us"},
	{name: "httpserve.neighbors_handler_us", unit: "us"},
	{name: "httpserve.net_us", unit: "us"},
	{name: "httpserve.rps", unit: "1/s"},
	{name: "httpserve.shed_share", unit: "%"},
	{name: "httpserve.update_p99_ms", unit: "ms"},
	{name: "httpserve.read_p99_us", unit: "us"},
	{name: "go.gc_cycles", unit: "count"},
	{name: "go.gc_pause_ms", unit: "ms"},
	{name: "go.heap_live_mb", unit: "MB"},
	{name: "host.calib_ms", unit: "ms"},
	{name: "trace.overhead_pct", unit: "%"},
}

// goStats is the Go runtime's cost so far: the harness shares the process
// with the program, so these cover both.
type goStats struct {
	cycles  uint32
	pauseNs uint64
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{m.NumGC, m.PauseTotalNs}
}

// heapLiveMB is the live heap the last collection found, in MB.
func heapLiveMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// shadow is the state of one shadow-stack pass.
type shadow struct {
	r    *run
	g    *graph
	b    batch
	reps int // repetitions of each batch-sized call
	vals map[string]float64
	// sharded is the base graph on storeShards shards: shards applies the
	// batch to it and takes it out again, log checkpoints it.
	sharded *core.Graph
}

// med is the median length, in nanoseconds, of the spans called name.
func (s *shadow) med(name string) float64 { return median(s.r.rec.durations(name)) }

// root opens a root span of the shadow stack with a fresh operation id.
func (s *shadow) root(name string) (int, uint64) {
	op := s.r.rec.newOp()
	return s.r.rec.begin(name, -1, op), op
}

// shadowStack drives the workload's graph g and update batch b bottom-up
// through every layer on instances of its own, records a span around each
// call, and returns every per-layer metric. A layer's self time is its call's
// median minus the medians of the lower-layer calls the call contains; the
// two metrics defined that way (serve.self_ms, httpserve.net_us) say so.
func shadowStack(r *run, g *graph, b batch, before goStats) (map[string]float64, error) {
	s := &shadow{r: r, g: g, b: b, reps: 4 * r.sz.minRound, vals: map[string]float64{}}
	after := readGoStats()
	s.vals["go.gc_cycles"] = float64(after.cycles - before.cycles)
	s.vals["go.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
	s.vals["go.heap_live_mb"] = heapLiveMB()
	s.vals["host.calib_ms"], _ = r.result("host.calib_ms", asMeasured, nil)
	traced, _ := r.result("update_eps", rateLike, func(round int) bool { return r.recorded[round] })
	untraced, _ := r.result("update_eps", rateLike, func(round int) bool { return !r.recorded[round] })
	s.vals["trace.overhead_pct"] = 100 * (1 - traced/untraced)

	s.structures()
	s.engine()
	s.shards()
	s.store()
	if err := s.log(); err != nil {
		return nil, err
	}
	if err := s.http(); err != nil {
		return nil, err
	}
	return s.vals, nil
}

// structures times the two overflow structures on their own: a 512-element
// RIA and a 65 536-element HITree, the sizes either side of the promotion
// threshold M.
func (s *shadow) structures() {
	rnd := newRNG(s.r.seed, 50)
	sets := func(size, probes int) (members, absent []uint32) {
		for len(members) < size+probes {
			for i := len(members); i < size+probes; i++ {
				members = append(members, uint32(rnd.intn(1<<26)))
			}
			slices.Sort(members)
			members = slices.Compact(members)
		}
		shuffle(rnd, members)
		absent, members = members[size:], members[:size]
		slices.Sort(members)
		return members, absent
	}
	type set interface {
		Insert(u uint32) bool
		Delete(u uint32) bool
		Blocks(yield func(block []uint32) bool) bool
	}
	measure := func(layer string, t set, size int, absent []uint32) {
		var sum uint64
		for i := 0; i < 4*s.reps; i++ {
			root, op := s.root("shadow." + layer)
			s.r.rec.call(layer+".insert", root, op, func() {
				for _, u := range absent {
					t.Insert(u)
				}
			})
			s.r.rec.call(layer+".scan", root, op, func() {
				t.Blocks(func(b []uint32) bool {
					for _, u := range b {
						sum += uint64(u)
					}
					return true
				})
			})
			s.r.rec.call(layer+".delete", root, op, func() {
				for _, u := range absent {
					t.Delete(u)
				}
			})
			s.r.rec.end(root)
		}
		runtime.KeepAlive(sum)
		s.vals[layer+".insert_ns"] = s.med(layer+".insert") / float64(len(absent))
		s.vals[layer+".delete_ns"] = s.med(layer+".delete") / float64(len(absent))
		s.vals[layer+".scan_ns_per_edge"] = s.med(layer+".scan") / float64(size+len(absent))
	}
	members, absent := sets(512, 64)
	measure("ria", ria.BulkLoad(members, ria.DefaultAlpha), 512, absent)
	members, absent = sets(1<<16, 1024)
	measure("hitree", hitree.BulkLoad(members, hitree.DefaultConfig()), 1<<16, absent)
}

// sweep reads every vertex's whole adjacency once and returns how many
// neighbours it saw.
func sweep(g reader, n uint32) (edges int) {
	for v := uint32(0); v < n; v++ {
		g.NeighborBlocks(v, func(b []uint32) bool { edges += len(b); return true })
	}
	return edges
}

// engine is the bare engine's share: the sort the batch pipeline starts
// with, whole-graph batch insert and delete, a sweep over the live
// structures, and the kernels on them.
func (s *shadow) engine() {
	rec, w := s.r.rec, workers()
	cg := core.NewFromEdges(s.g.n, s.g.src, s.g.dst, core.Config{})
	edges := float64(cg.NumEdges())
	keys := make([]uint64, len(s.b.src))
	for i := 0; i < s.reps; i++ {
		for j := range keys {
			keys[j] = key(s.b.src[j], s.b.dst[j])
		}
		root, op := s.root("shadow.engine_batch")
		rec.call("parallel.sort", root, op, func() { parallel.SortUint64(keys, w) })
		rec.call("core.insert", root, op, func() { cg.InsertBatch(s.b.src, s.b.dst) })
		rec.call("core.delete", root, op, func() { cg.DeleteBatch(s.b.src, s.b.dst) })
		rec.end(root)
	}
	for i := 0; i < s.reps; i++ {
		root, op := s.root("shadow.engine_read")
		rec.call("core.neighbors", root, op, func() { sweep(cg, s.g.n) })
		rec.call("algo.pagerank_engine", root, op, func() { algo.PageRank(cg, 10, w) })
		rec.call("algo.bfs_engine", root, op, func() { algo.BFS(cg, s.g.hub, w) })
		rec.end(root)
	}
	perEdge := float64(len(keys))
	s.vals["parallel.sort_ns_per_key"] = s.med("parallel.sort") / perEdge
	s.vals["core.insert_ns_per_edge"] = s.med("core.insert") / perEdge
	s.vals["core.delete_ns_per_edge"] = s.med("core.delete") / perEdge
	s.vals["core.neighbors_ns_per_edge"] = s.med("core.neighbors") / edges
	s.vals["core.mem_bytes_per_edge"] = float64(cg.MemoryUsage()) / edges
	s.vals["core.index_bytes_per_edge"] = float64(cg.IndexMemory()) / edges
	s.vals["algo.pagerank_engine_ns_per_edge"] = s.med("algo.pagerank_engine") / (10 * edges)
	s.vals["algo.bfs_engine_ns_per_edge"] = s.med("algo.bfs_engine") / edges
}

// shards is what one Store update does beneath the serving layer, call by
// call: route the batch, apply each shard's part, flatten each shard.
func (s *shadow) shards() {
	rec := s.r.rec
	cg := core.NewFromEdges(s.g.n, s.g.src, s.g.dst, core.Config{Shards: storeShards})
	s.sharded = cg
	snaps := make([]*core.Snapshot, storeShards)
	var perEdge, copied []float64
	for i := 0; i < s.reps; i++ {
		root, op := s.root("shadow.store_batch")
		var parts []core.SubBatch
		var bound uint32
		rec.call("core.scatter", root, op, func() { parts, bound = cg.ScatterBatch(s.b.src, s.b.dst) })
		for k, p := range parts {
			sh := cg.Shard(k)
			id := rec.begin("core.shard_insert", root, op)
			sh.EnsureVertices(bound)
			sh.InsertBatch(p.Src, p.Dst)
			if d := rec.end(id); len(p.Src) > 0 {
				perEdge = append(perEdge, d/float64(len(p.Src)))
			}
			rec.call("core.snapshot", root, op, func() { snaps[k] = sh.SnapshotInto(snaps[k]) })
			offs, adj := snaps[k].CSR()
			copied = append(copied, float64(8*len(offs)+4*len(adj)))
		}
		rec.end(root)
		for k, p := range parts {
			cg.Shard(k).DeleteBatch(p.Src, p.Dst)
		}
	}
	s.vals["core.scatter_ns_per_edge"] = s.med("core.scatter") / float64(len(s.b.src))
	s.vals["core.shard_insert_ns_per_edge"] = median(perEdge)
	s.vals["core.snapshot_ms"] = s.med("core.snapshot") / 1e6
	s.vals["core.snapshot_bytes"] = median(copied)
}

// store is the serving layer: the same update through Store, view pins, and
// the kernels on a pinned view. serve.self_ms is what the serving layer adds
// to an update beyond the core calls measured in shards: its shard writers
// run side by side, so one shard's insert and snapshot are on the path.
func (s *shadow) store() {
	rec := s.r.rec
	st := lsgraph.NewStore(s.g.n, lsgraph.WithShards(storeShards))
	defer st.Close()
	st.InsertBatch(s.g.src, s.g.dst)
	st.Flush()
	for i := 0; i < 4*s.reps; i++ {
		for _, del := range []bool{false, true} {
			root, op := s.root("shadow.store_update")
			storeUpdate(s.r, st, root, op, s.b, del)
			rec.end(root)
		}
	}
	const pins = 1024
	for i := 0; i < s.reps; i++ {
		root, op := s.root("shadow.store_read")
		rec.call("serve.view_pin", root, op, func() {
			for j := 0; j < pins; j++ {
				st.View().Release()
			}
		})
		view := st.View()
		rec.call("core.snapshot_neighbors", root, op, func() { sweep(view, s.g.n) })
		rec.call("algo.pagerank_view", root, op, func() { lsgraph.PageRank(view, 10) })
		rec.call("algo.bfs_view", root, op, func() { lsgraph.BFS(view, s.g.hub) })
		rec.call("algo.cc_view", root, op, func() { lsgraph.ConnectedComponents(view) })
		view.Release()
		rec.end(root)
	}
	edges := float64(len(s.g.base))
	stats := st.Stats()
	visible := rec.durations("shadow.store_update")
	s.vals["serve.enqueue_us"] = s.med("serve.enqueue") / 1e3
	s.vals["serve.flush_wait_ms"] = s.med("serve.flush_wait") / 1e6
	s.vals["serve.self_ms"] = (median(visible) - s.med("core.scatter") - s.med("core.shard_insert") - s.med("core.snapshot")) / 1e6
	s.vals["serve.update_p99_ms"] = quantile(visible, 0.99) / 1e6
	s.vals["serve.view_pin_ns"] = s.med("serve.view_pin") / pins
	s.vals["serve.epochs"] = float64(st.Epoch())
	s.vals["serve.coalesced_batches"] = float64(stats.CoalescedBatches)
	s.vals["serve.snapshots_reclaimed"] = float64(stats.SnapshotsReclaimed)
	s.vals["core.snapshot_neighbors_ns_per_edge"] = s.med("core.snapshot_neighbors") / edges
	s.vals["algo.pagerank_view_ns_per_edge"] = s.med("algo.pagerank_view") / (10 * edges)
	s.vals["algo.bfs_view_ns_per_edge"] = s.med("algo.bfs_view") / edges
	s.vals["algo.cc_view_ms"] = s.med("algo.cc_view") / 1e6
}

// log is the durability layer on its own directory: append and fsync of the
// batch, a checkpoint of the base graph, then loading that checkpoint and
// replaying the log into a sink that does nothing.
func (s *shadow) log() error {
	rec := s.r.rec
	dir, err := os.MkdirTemp(s.r.tmp, "shadow-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Fsync is left to the explicit Sync calls, so each is timed on its own.
	l, err := wal.OpenLog(dir, storeShards, 0, wal.Options{Fsync: wal.FsyncNone})
	if err != nil {
		return err
	}
	for i := 0; i < s.reps; i++ {
		root, op := s.root("shadow.wal_batch")
		rec.call("wal.append", root, op, func() { _, err = l.Append(i%storeShards, wal.OpInsert, op, s.b.src, s.b.dst) })
		if err != nil {
			return err
		}
		rec.call("wal.sync", root, op, func() { err = l.Sync(i % storeShards) })
		if err != nil {
			return err
		}
		rec.end(root)
	}
	stats := l.Stats()

	cg := s.sharded
	ck := &wal.Checkpoint{
		N:          s.g.n,
		Starts:     cg.PartitionMap().Starts,
		Watermarks: make([]uint64, l.NumDirs()), // all zero: replay skips nothing
	}
	for k := 0; k < storeShards; k++ {
		offs, adj := cg.Shard(k).SnapshotInto(nil).CSR()
		ck.Shards = append(ck.Shards, wal.ShardSnap{Base: cg.Shard(k).Base(), Offs: offs, Adj: adj})
	}
	var replayed wal.ReplayStats
	for i := 0; i < s.reps; i++ {
		root, op := s.root("shadow.wal_checkpoint")
		rec.call("wal.checkpoint_write", root, op, func() { err = l.WriteCheckpoint(ck) })
		rec.end(root)
		if err != nil {
			return err
		}
	}
	if err := l.Close(); err != nil {
		return err
	}
	for i := 0; i < s.reps; i++ {
		root, op := s.root("shadow.wal_recover")
		var loaded *wal.Checkpoint
		rec.call("wal.checkpoint_load", root, op, func() { loaded, err = wal.LoadLatestCheckpoint(dir) })
		if err == nil && (loaded == nil || loaded.N != s.g.n) {
			err = fmt.Errorf("shadow checkpoint did not load back")
		}
		if err != nil {
			return err
		}
		rec.call("wal.replay", root, op, func() {
			_, replayed, err = wal.Replay(dir, func(int) uint64 { return 0 }, nil, func(wal.Record) error { return nil })
		})
		rec.end(root)
		if err == nil && replayed.EdgesReplayed != uint64(s.reps*len(s.b.src)) {
			err = fmt.Errorf("shadow replay saw %d edges of %d", replayed.EdgesReplayed, s.reps*len(s.b.src))
		}
		if err != nil {
			return err
		}
	}
	logged := float64(s.reps * len(s.b.src))
	s.vals["wal.append_us"] = s.med("wal.append") / 1e3
	s.vals["wal.sync_ms"] = s.med("wal.sync") / 1e6
	s.vals["wal.fsyncs"] = float64(stats.Syncs)
	s.vals["wal.bytes_per_edge"] = float64(stats.Bytes) / logged
	s.vals["wal.checkpoint_write_ms"] = s.med("wal.checkpoint_write") / 1e6
	s.vals["wal.checkpoint_load_ms"] = s.med("wal.checkpoint_load") / 1e6
	s.vals["wal.replay_ns_per_edge"] = s.med("wal.replay") / logged
	return nil
}

// http is the network front end: the codecs alone, the handlers without a
// socket, the same requests over loopback, and one round of the serve-mixed
// traffic against a shadow server holding the workload's graph.
// httpserve.net_us is the loopback round trip minus the socket-less handler.
func (s *shadow) http() error {
	rec := s.r.rec
	bin := encode(s.b.src, s.b.dst)
	var nd strings.Builder
	for i := range s.b.src {
		fmt.Fprintf(&nd, "[%d,%d]\n", s.b.src[i], s.b.dst[i])
	}
	decode := func(name, contentType string, body []byte) error {
		var err error
		var src []uint32
		root, op := s.root("shadow.http_decode")
		rec.call(name, root, op, func() { src, _, err = httpserve.DecodeEdges(contentType, bytes.NewReader(body), len(s.b.src)) })
		rec.end(root)
		if err == nil && len(src) != len(s.b.src) {
			err = fmt.Errorf("%s decoded %d edges of %d", name, len(src), len(s.b.src))
		}
		return err
	}
	for i := 0; i < s.reps; i++ {
		if err := decode("httpserve.decode_bin", httpserve.ContentTypeBinary, bin); err != nil {
			return err
		}
		if err := decode("httpserve.decode_ndjson", httpserve.ContentTypeNDJSON, []byte(nd.String())); err != nil {
			return err
		}
	}

	// A sub-run keeps the mix round's samples and failure counts apart from
	// the workload's own; the spans go to the same recorder.
	sub := newRun(s.r.sz, s.r.seed, 0, s.r.tmp, false)
	sub.rec = rec
	mix := newMix(sub, s.g, bits.Len32(s.g.n)-1, 40)
	srv, err := mix.open()
	if err != nil {
		return err
	}
	defer srv.stop()
	mix.connect(srv)
	defer mix.close()
	h, c := srv.srv.Handler(), mix.admin
	verts := zipfVertices(s.r.seed, 31, s.g.n, 64*s.reps)
	for i := 0; i < 2*s.reps; i++ {
		path := "/edges"
		if i%2 == 1 {
			path += "?op=delete"
		}
		root, op := s.root("shadow.http_ingest")
		w := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/graphs/"+graphName+path, bytes.NewReader(bin))
		req.Header.Set("Content-Type", httpserve.ContentTypeBinary)
		rec.call("httpserve.ingest_handler", root, op, func() { h.ServeHTTP(w, req) })
		rec.end(root)
		if w.Code != http.StatusAccepted {
			return fmt.Errorf("shadow ingest handler answered %d", w.Code)
		}
		srv.store().Flush()
	}
	for _, v := range verts {
		path := "/vertices/" + strconv.Itoa(int(v)) + "/neighbors?limit=" + strconv.Itoa(readLimit)
		root, op := s.root("shadow.http_read")
		w := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/v1/graphs/"+graphName+path, nil)
		rec.call("httpserve.neighbors_handler", root, op, func() { h.ServeHTTP(w, req) })
		rec.end(root)
		if w.Code != http.StatusOK {
			return fmt.Errorf("shadow neighbours handler answered %d", w.Code)
		}
		root, op = s.root("shadow.http_read_net")
		rec.call("http.roundtrip_read", root, op, func() { err = c.do("GET", path, nil, http.StatusOK, nil) })
		rec.end(root)
		if err != nil {
			return err
		}
	}
	if err := mix.round(srv, true); err != nil {
		return err
	}

	s.vals["httpserve.decode_bin_ns_per_edge"] = s.med("httpserve.decode_bin") / float64(len(s.b.src))
	s.vals["httpserve.decode_ndjson_ns_per_edge"] = s.med("httpserve.decode_ndjson") / float64(len(s.b.src))
	s.vals["httpserve.ingest_handler_us"] = s.med("httpserve.ingest_handler") / 1e3
	s.vals["httpserve.neighbors_handler_us"] = s.med("httpserve.neighbors_handler") / 1e3
	s.vals["httpserve.net_us"] = (s.med("http.roundtrip_read") - s.med("httpserve.neighbors_handler")) / 1e3
	s.vals["httpserve.rps"] = median(sub.values("httpserve.rps"))
	s.vals["httpserve.shed_share"] = 100 * float64(sub.failed) / float64(sub.attempted)
	s.vals["httpserve.update_p99_ms"] = quantile(sub.values("update_p50_ms"), 0.99)
	s.vals["httpserve.read_p99_us"] = quantile(sub.values("read_p50_us"), 0.99)
	return nil
}
