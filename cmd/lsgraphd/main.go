// Command lsgraphd serves LSGraph over HTTP: the network front-end that
// turns the in-process serving layer (lsgraph.Store) into a multi-tenant
// streaming-graph service with batched ingest, snapshot-pinned queries and
// kernels, admission control, and the full observability surface.
//
// Usage:
//
//	lsgraphd                                  # serve :7420, auto-create graphs
//	lsgraphd -addr :7420 -shards 4 -queue 64  # defaults for created graphs
//	lsgraphd -graphs social:8,metrics         # pre-create graphs (name[:shards[:queue]])
//	lsgraphd -data /var/lib/lsgraph           # durable graphs: WAL + checkpoints + recovery
//	lsgraphd -data d -fsync always            # fsync every WAL append (none|interval|always)
//	lsgraphd -data d -checkpoint-every 100000 # auto-checkpoint every N logged batches
//	lsgraphd -obs=false                       # disable per-event metric collection
//	lsgraphd -trace run.json -tracemode tail  # flight recorder across the run
//
// Endpoints (see OPERATIONS.md for the full reference with curl examples):
//
//	GET  /healthz                               readiness (503 while draining)
//	GET  /v1/graphs                             list graphs
//	PUT  /v1/graphs/{g}                         create graph (JSON config body)
//	GET  /v1/graphs/{g}                         stats
//	DELETE /v1/graphs/{g}                       drop graph
//	POST /v1/graphs/{g}/edges[?op=delete]       batched ingest (NDJSON or binary)
//	POST /v1/graphs/{g}/flush                   wait for queued batches
//	GET  /v1/graphs/{g}/vertices/{v}/degree     point lookup
//	GET  /v1/graphs/{g}/vertices/{v}/neighbors  adjacency scan
//	GET  /v1/graphs/{g}/khop?src=V&depth=K      bounded traversal
//	POST /v1/graphs/{g}/kernels/{bfs|pagerank|cc}  analytics on a pinned view
//	POST /v1/graphs/{g}/rebalance               reshard toward equal edge mass
//	POST /v1/graphs/{g}/checkpoint              durable snapshot + WAL GC (-data only)
//	GET  /metrics, /metrics.json                Prometheus / JSON metrics
//	GET  /debug/pprof/*, /debug/trace{,/autopsy}   profiling and flight recorder
//
// Durability: with -data, every graph writes accepted batches to its
// write-ahead log under <data>/<graph> before applying them, and the next
// boot recovers each graph from its newest checkpoint plus WAL replay
// (logged on startup and reported by /healthz). Without -data graphs are
// memory-only, as before.
//
// Shutdown: on SIGINT/SIGTERM the daemon stops accepting connections,
// waits up to -drain for in-flight requests, then closes every store —
// which applies and publishes all queued batches, so every 202-accepted
// batch is visible before exit. With -data each graph is additionally
// checkpointed on the way out, so a clean restart replays no WAL.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lsgraph/internal/httpserve"
	"lsgraph/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", ":7420", "listen address")
		shards   = flag.Int("shards", 1, "default vertex-range shard count for created graphs")
		queue    = flag.Int("queue", 64, "default queue bound of a graph's store in batches (backpressure threshold)")
		vertices = flag.Uint("vertices", 1024, "default initial vertex slots for created graphs (they auto-grow)")
		graphs   = flag.String("graphs", "", "comma-separated graphs to pre-create, each name[:shards[:queue]]")
		auto     = flag.Bool("autocreate", true, "create a missing graph on first ingest instead of 404")
		kernels  = flag.Int("kernels", 4, "max concurrently running kernel requests (excess shed with 429)")
		maxBody  = flag.Int64("maxbody", 64<<20, "max ingest request body in bytes (larger rejected with 413)")
		autoReb  = flag.Float64("autorebalance", 0, "auto-rebalance skew threshold for created graphs (e.g. 1.5 = act at 50% over fair share; 0 disables)")
		dataDir  = flag.String("data", "", "durability directory: WAL + checkpoints per graph, recovered on boot (empty = memory-only)")
		fsync    = flag.String("fsync", "interval", "WAL fsync policy with -data: none | interval | always")
		fsyncIv  = flag.Duration("fsync-interval", 50*time.Millisecond, "group-commit period for -fsync interval")
		ckptN    = flag.Int("checkpoint-every", 0, "auto-checkpoint a graph every N logged batches with -data (0 = explicit/shutdown only)")
		obsOn    = flag.Bool("obs", true, "enable per-event metric collection: layer timings, HTTP and engine counters (/metrics is served, with the store and WAL series, either way)")
		drain    = flag.Duration("drain", 30*time.Second, "max time to wait for in-flight requests on shutdown")
	)
	var of obs.Flags
	of.Register(flag.CommandLine, "record the flight recorder and write Chrome trace-event JSON here on exit", "")
	flag.Parse()
	log.SetPrefix("lsgraphd: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	obs.SetEnabled(*obsOn)
	if err := of.Start("lsgraphd"); err != nil {
		log.Fatal(err)
	}

	srv, err := httpserve.Open(httpserve.Config{
		DefaultVertices: uint32(*vertices),
		DefaultShards:   *shards,
		DefaultMaxQueue: *queue,
		AutoCreate:      *auto,
		MaxKernels:      *kernels,
		MaxBodyBytes:    *maxBody,

		DefaultAutoRebalance: *autoReb,

		DataDir:         *dataDir,
		Fsync:           *fsync,
		FsyncInterval:   *fsyncIv,
		CheckpointEvery: *ckptN,
	})
	if err != nil {
		log.Fatalf("open data dir: %v", err)
	}
	for _, name := range srv.GraphNames() {
		// Graphs present before any -graphs pre-creation were recovered
		// from -data; say what each recovery cost and carried.
		if st := srv.Store(name); st != nil {
			r := st.Recovery()
			ms := func(ns int64) float64 { return float64(ns) / 1e6 }
			log.Printf("recovered graph %q: checkpoint=%v (%d edges), replayed %d records (%d edges) from %d segments, truncated %d torn tails, %.1fms (load %.1f, scan %.1f, reduce %.1f, merge %.1f, publish %.1f)",
				name, r.CheckpointLoaded, r.CheckpointEdges, r.ReplayedRecords, r.ReplayedEdges,
				r.Segments, r.TruncatedSegments, ms(r.DurationNanos),
				ms(r.LoadNanos), ms(r.ScanNanos), ms(r.ReduceNanos), ms(r.MergeNanos), ms(r.PublishNanos))
		}
	}
	for _, spec := range strings.Split(*graphs, ",") {
		if spec = strings.TrimSpace(spec); spec == "" {
			continue
		}
		name, gc, err := parseGraphSpec(spec)
		if err != nil {
			log.Fatalf("-graphs: %v", err)
		}
		gc, _, err = srv.CreateGraph(name, gc)
		if err != nil {
			log.Fatalf("-graphs: %v", err)
		}
		log.Printf("created graph %q (shards=%d queue=%d)", name, gc.Shards, gc.MaxQueue)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("serving on %s (graphs=%v autocreate=%v shards=%d queue=%d kernels=%d)",
			*addr, srv.GraphNames(), *auto, *shards, *queue, *kernels)
		errc <- hs.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()

	log.Printf("shutting down: draining in-flight requests (max %s)", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	log.Printf("draining writer queues")
	srv.Close() // applies every queued batch before returning
	if err := of.Finish(); err != nil {
		log.Printf("trace: %v", err)
	}
	log.Printf("bye")
}

// parseGraphSpec parses one -graphs entry: name[:shards[:queue]].
func parseGraphSpec(spec string) (string, httpserve.GraphConfig, error) {
	parts := strings.Split(spec, ":")
	if len(parts) > 3 {
		return "", httpserve.GraphConfig{}, fmt.Errorf("bad graph spec %q (want name[:shards[:queue]])", spec)
	}
	var gc httpserve.GraphConfig
	if len(parts) >= 2 {
		s, err := strconv.Atoi(parts[1])
		if err != nil || s <= 0 {
			return "", httpserve.GraphConfig{}, fmt.Errorf("bad shard count in %q", spec)
		}
		gc.Shards = s
	}
	if len(parts) == 3 {
		q, err := strconv.Atoi(parts[2])
		if err != nil || q <= 0 {
			return "", httpserve.GraphConfig{}, fmt.Errorf("bad queue bound in %q", spec)
		}
		gc.MaxQueue = q
	}
	return parts[0], gc, nil
}
