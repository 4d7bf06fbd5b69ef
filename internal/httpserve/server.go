// Package httpserve is LSGraph's network serving front-end: the HTTP layer
// command lsgraphd mounts over one or more lsgraph.Store instances. It
// turns the in-process serving layer (internal/serve, PR 3/4) into a
// multi-tenant network service:
//
//   - Named graphs. Each graph is an independent lsgraph.Store with its own
//     shard count and queue bound, created explicitly (PUT /v1/graphs/{g})
//     or on first ingest when auto-create is enabled.
//   - Batched ingest. POST /v1/graphs/{g}/edges accepts NDJSON or packed
//     binary edge batches (see codec.go) and enqueues them without waiting
//     for the writers, mirroring Store.InsertBatch's asynchronous contract.
//   - Snapshot-pinned reads. Query endpoints (degree, neighbors, k-hop) and
//     kernel endpoints (BFS, PageRank, connected components) pin a
//     StoreView, so every response is computed on one coherent epoch while
//     ingest continues underneath.
//   - Admission control. Ingest is shed with 429 + Retry-After as soon as
//     the target store reports Saturated() — the same signal at which the
//     writer queues would start coalescing — and kernels are bounded by a
//     server-wide concurrency cap. See admission.go.
//   - Lifecycle. Close drains every writer queue (Store.Close applies all
//     queued batches before returning), after which data endpoints answer
//     503; /healthz flips to draining first so load balancers stop routing.
//
// The package is HTTP-framework-free (net/http + the Go 1.22 ServeMux
// patterns only) and wires the existing obs and trace layers in unchanged:
// Handler mounts /metrics, /metrics.json, /debug/pprof/* and /debug/trace
// alongside the data plane.
package httpserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lsgraph"
	"lsgraph/internal/obs"
)

// Config tunes a Server. The zero value is usable: every field falls back
// to the documented default.
type Config struct {
	// DefaultVertices is the initial vertex-slot count for graphs created
	// without an explicit size (default 1024). Stores auto-grow, so this
	// is a pre-allocation hint, not a limit.
	DefaultVertices uint32
	// DefaultShards is the vertex-range shard count for graphs created
	// without an explicit one (default 1).
	DefaultShards int
	// DefaultMaxQueue is the store's queue bound (in batches) for graphs
	// created without an explicit one (default 64; see
	// lsgraph.WithMaxQueue).
	DefaultMaxQueue int
	// AutoCreate makes POST /v1/graphs/{g}/edges create a missing graph
	// with the defaults above instead of returning 404.
	AutoCreate bool
	// MaxKernels caps concurrently running kernel requests server-wide
	// (default 4). Kernels beyond the cap are shed with 429.
	MaxKernels int
	// MaxBodyBytes caps an ingest request body (default 64 MiB). Larger
	// bodies are rejected with 413.
	MaxBodyBytes int64
	// DefaultAutoRebalance is the auto-rebalance skew threshold for graphs
	// created without an explicit one (lsgraph.WithAutoRebalance). Zero,
	// the default, leaves automatic rebalancing off; the explicit
	// rebalance endpoint works either way.
	DefaultAutoRebalance float64
	// DataDir, when set, makes every graph durable: graph g's write-ahead
	// log and checkpoints live under DataDir/g next to a graph.json
	// recording its config, and Open recovers every graph found there.
	// Empty (the default) keeps all graphs in memory only.
	DataDir string
	// Fsync is the WAL group-commit policy for durable graphs: "none",
	// "interval" (the default), or "always". See lsgraph.DurabilityOptions.
	Fsync string
	// FsyncInterval is the group-commit period for Fsync == "interval"
	// (default 50ms).
	FsyncInterval time.Duration
	// CheckpointEvery, when > 0, auto-checkpoints each durable graph every
	// that many WAL records, bounding recovery replay and WAL disk usage.
	// 0 checkpoints only on the explicit endpoint and at shutdown.
	CheckpointEvery int
}

func (c *Config) sanitize() {
	if c.DefaultVertices == 0 {
		c.DefaultVertices = 1024
	}
	if c.DefaultShards <= 0 {
		c.DefaultShards = 1
	}
	if c.DefaultMaxQueue <= 0 {
		c.DefaultMaxQueue = 64
	}
	if c.MaxKernels <= 0 {
		c.MaxKernels = 4
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
}

// GraphConfig is the JSON body of PUT /v1/graphs/{name}: the per-graph
// knobs a tenant may set at creation time. Zero fields take the server
// defaults.
type GraphConfig struct {
	// Vertices is the initial vertex-slot count; the store grows past it
	// automatically when a batch references a larger ID.
	Vertices uint32 `json:"vertices,omitempty"`
	// Shards is the vertex-range shard count (lsgraph.WithShards).
	Shards int `json:"shards,omitempty"`
	// MaxQueue is the store's queue bound in batches
	// (lsgraph.WithMaxQueue).
	MaxQueue int `json:"max_queue,omitempty"`
	// AutoRebalance is the skew threshold the store's writer rebalances at
	// (lsgraph.WithAutoRebalance); 0 disables the check.
	AutoRebalance float64 `json:"auto_rebalance,omitempty"`
	// MaxVertices bounds the vertex IDs ingest accepts: a batch naming an
	// ID at or above it is refused with 422 before the store reserves
	// anything. The store materializes one 8-byte table entry per vertex up
	// to the largest ID it has seen, so without the bound a single edge
	// naming vertex 4·10⁹ asks for 32 GB. Default DefaultMaxVertices, or
	// Vertices when that is larger.
	MaxVertices uint32 `json:"max_vertices,omitempty"`
}

// DefaultMaxVertices is a graph's vertex-ID bound when its config names
// none: 2²⁴ IDs, 128 MiB a vertex table at the most.
const DefaultMaxVertices = 1 << 24

// tenant is one named graph: its store plus the resolved config it was
// created with (for idempotent re-creation checks and the stats endpoint).
type tenant struct {
	name  string
	store *lsgraph.Store
	cfg   GraphConfig
}

// Server is the HTTP front-end state: the named-graph registry, the kernel
// admission semaphore, and the drain flag. Build one with New, mount
// Handler on an http.Server, and call Close on the way out.
type Server struct {
	cfg Config

	mu     sync.RWMutex
	graphs map[string]*tenant

	kernelSem chan struct{}
	draining  atomic.Bool

	// admitOverride, when non-nil, replaces the Store.Saturated admission
	// probe. Tests use it to exercise the shed path deterministically.
	admitOverride func(*lsgraph.Store) bool
}

// New returns a Server with no graphs. Graphs are added via the HTTP API
// or CreateGraph.
func New(cfg Config) *Server {
	cfg.sanitize()
	return &Server{
		cfg:       cfg,
		graphs:    make(map[string]*tenant),
		kernelSem: make(chan struct{}, cfg.MaxKernels),
	}
}

// graphNameRE constrains graph names to something that embeds safely in
// URLs, metrics labels, and file names.
var graphNameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_.-]{0,63}$`)

// CreateGraph creates (or idempotently re-validates) the named graph and
// returns its resolved config. created is false when the graph already
// existed; an existing graph with a different resolved config is an error
// (the HTTP layer maps it to 409). Safe for concurrent use.
func (s *Server) CreateGraph(name string, gc GraphConfig) (resolved GraphConfig, created bool, err error) {
	if !graphNameRE.MatchString(name) {
		return GraphConfig{}, false, fmt.Errorf("invalid graph name %q (want %s)", name, graphNameRE)
	}
	if gc.Vertices == 0 {
		gc.Vertices = s.cfg.DefaultVertices
	}
	if gc.Shards <= 0 {
		gc.Shards = s.cfg.DefaultShards
	}
	if gc.MaxQueue <= 0 {
		gc.MaxQueue = s.cfg.DefaultMaxQueue
	}
	if gc.AutoRebalance == 0 {
		gc.AutoRebalance = s.cfg.DefaultAutoRebalance
	}
	if gc.MaxVertices == 0 {
		gc.MaxVertices = max(DefaultMaxVertices, gc.Vertices)
	}
	if gc.Vertices > gc.MaxVertices {
		return GraphConfig{}, false, fmt.Errorf("graph %q: vertices %d exceeds max_vertices %d", name, gc.Vertices, gc.MaxVertices)
	}
	// The store cuts its initial vertex slots into Shards ranges, and a
	// count past 2³² would wrap to 0 ranges there.
	if gc.Shards > int(gc.Vertices) {
		return GraphConfig{}, false, fmt.Errorf("graph %q: shards %d exceeds vertices %d", name, gc.Shards, gc.Vertices)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return GraphConfig{}, false, errDraining
	}
	if t, ok := s.graphs[name]; ok {
		if t.cfg != gc {
			return t.cfg, false, fmt.Errorf("graph %q exists with different config %+v", name, t.cfg)
		}
		return t.cfg, false, nil
	}
	st, err := s.openStore(name, gc)
	if err != nil {
		return GraphConfig{}, false, fmt.Errorf("open graph %q: %v", name, err)
	}
	t := &tenant{name: name, cfg: gc, store: st}
	s.graphs[name] = t
	obsGraphs.Set(int64(len(s.graphs)))
	return gc, true, nil
}

// errDraining marks requests rejected because the server is shutting down.
var errDraining = fmt.Errorf("server is draining")

// lookup returns the named tenant, auto-creating it when the config allows
// and create is set.
func (s *Server) lookup(name string, create bool) (*tenant, error) {
	s.mu.RLock()
	t := s.graphs[name]
	s.mu.RUnlock()
	if t != nil {
		return t, nil
	}
	if create && s.cfg.AutoCreate {
		if _, _, err := s.CreateGraph(name, GraphConfig{}); err != nil {
			return nil, err
		}
		s.mu.RLock()
		t = s.graphs[name]
		s.mu.RUnlock()
		if t != nil {
			return t, nil
		}
	}
	return nil, fmt.Errorf("graph %q not found", name)
}

// Store returns the named graph's Store, or nil when the graph does not
// exist. lsgraphd uses it to log what each recovered graph's boot cost;
// callers must not Close the returned store — the Server owns it.
func (s *Server) Store(name string) *lsgraph.Store { return s.store(name) }

// store returns the named graph's Store, or nil. Tests use it for
// differential checks against the oracle.
func (s *Server) store(name string) *lsgraph.Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t := s.graphs[name]; t != nil {
		return t.store
	}
	return nil
}

// DropGraph closes and removes the named graph, draining its queued
// batches first (Store.Close applies everything before returning). On a
// durable server the graph's data directory — WAL, checkpoints, config —
// is deleted too (removeGraphDir): a dropped graph does not resurrect at
// the next boot. It reports whether the graph existed.
func (s *Server) DropGraph(name string) bool {
	s.mu.Lock()
	t, ok := s.graphs[name]
	delete(s.graphs, name)
	obsGraphs.Set(int64(len(s.graphs)))
	s.mu.Unlock()
	if ok {
		t.store.Close()
		if s.cfg.DataDir != "" {
			s.removeGraphDir(name)
		}
	}
	return ok
}

// GraphNames returns the registered graph names, sorted.
func (s *Server) GraphNames() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.graphs))
	for n := range s.graphs {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Close drains and closes every graph: it flips the server to draining
// (new writes are rejected with 503), then closes each store, which
// applies and publishes all queued batches before returning — no accepted
// batch is lost. Call it after http.Server.Shutdown has stopped new
// connections; in-flight reads on already-pinned views finish normally.
// Closing twice is a no-op.
func (s *Server) Close() {
	if s.draining.Swap(true) {
		return
	}
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.graphs))
	for _, t := range s.graphs {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	for _, t := range ts {
		if t.store.Durable() {
			// Checkpoint on clean shutdown so the next boot bulk-loads a
			// snapshot instead of replaying the whole WAL. Flush first so the
			// checkpoint covers every accepted batch; if the checkpoint
			// fails the WAL still holds everything, so the error only costs
			// recovery time.
			t.store.Flush()
			_ = t.store.Checkpoint()
		}
		t.store.Close()
	}
}

// Handler returns the server's full route table: the /v1 data plane, the
// health endpoint, and the observability surface (/metrics, /metrics.json,
// /debug/pprof/*, /debug/trace) from the obs registry. Every data route is
// wrapped with request-level metrics (lsgraph_http_*); recording follows
// obs.Enabled like every other series.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, m *obs.HTTPMetrics, h http.HandlerFunc) {
		mux.Handle(pattern, m.Wrap(h))
	}
	route("GET /healthz", obsRouteHealthz, s.handleHealthz)
	route("GET /v1/graphs", obsRouteGraphs, s.handleListGraphs)
	route("PUT /v1/graphs/{graph}", obsRouteGraphs, s.handleCreateGraph)
	route("GET /v1/graphs/{graph}", obsRouteGraphs, s.handleGraphStats)
	route("DELETE /v1/graphs/{graph}", obsRouteGraphs, s.handleDropGraph)
	route("POST /v1/graphs/{graph}/edges", obsRouteIngest, s.handleIngest)
	route("POST /v1/graphs/{graph}/flush", obsRouteFlush, s.handleFlush)
	route("GET /v1/graphs/{graph}/vertices/{vertex}/degree", obsRouteDegree, s.handleDegree)
	route("GET /v1/graphs/{graph}/vertices/{vertex}/neighbors", obsRouteNeighbors, s.handleNeighbors)
	route("GET /v1/graphs/{graph}/khop", obsRouteKhop, s.handleKhop)
	route("POST /v1/graphs/{graph}/kernels/{kernel}", obsRouteKernel, s.handleKernel)
	route("POST /v1/graphs/{graph}/rebalance", obsRouteRebalance, s.handleRebalance)
	route("POST /v1/graphs/{graph}/checkpoint", obsRouteCheckpoint, s.handleCheckpoint)

	oh := obs.Handler(obs.Default)
	mux.Handle("/metrics", oh)
	mux.Handle("/metrics.json", oh)
	mux.Handle("/debug/", oh)
	return mux
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeJSONBytes writes body, already encoded as JSON, as the response
// body with the given status: the hot routes' replies (handlers.go).
func writeJSONBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// apiError is the uniform error body: {"error": "..."}.
type apiError struct {
	Error string `json:"error"`
}

// writeError writes the uniform JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}
