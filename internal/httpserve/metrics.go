package httpserve

import "lsgraph/internal/obs"

// Request-level series, one obs.HTTPMetrics per logical route (label
// cardinality stays fixed no matter how many graphs exist), plus the
// front-end's own counters. Package-level like every other engine metric
// family: multiple Server instances in one process (tests) share the
// series, and registration happens exactly once.
var (
	obsRouteHealthz    = obs.NewHTTPMetrics("healthz")
	obsRouteGraphs     = obs.NewHTTPMetrics("graphs")
	obsRouteIngest     = obs.NewHTTPMetrics("ingest")
	obsRouteFlush      = obs.NewHTTPMetrics("flush")
	obsRouteDegree     = obs.NewHTTPMetrics("degree")
	obsRouteNeighbors  = obs.NewHTTPMetrics("neighbors")
	obsRouteKhop       = obs.NewHTTPMetrics("khop")
	obsRouteKernel     = obs.NewHTTPMetrics("kernel")
	obsRouteRebalance  = obs.NewHTTPMetrics("rebalance")
	obsRouteCheckpoint = obs.NewHTTPMetrics("checkpoint")

	// obsGraphs tracks the number of registered named graphs.
	obsGraphs = obs.NewGauge("lsgraph_http_graphs",
		"", "named graphs currently registered")

	// obsShedQueue counts ingest requests shed with 429 because the target
	// store reported Saturated() (writer queues at their MaxQueue bound).
	obsShedQueue = obs.NewCounter("lsgraph_http_shed",
		obs.Label("reason", "queue"),
		"requests shed with 429, by reason")
	// obsShedKernel counts kernel requests shed with 429 because MaxKernels
	// kernels were already running.
	obsShedKernel = obs.NewCounter("lsgraph_http_shed",
		obs.Label("reason", "kernels"),
		"requests shed with 429, by reason")

	// obsRejectedVertexID counts ingest requests refused with 422 because an
	// edge named a vertex at or above the graph's max_vertices.
	obsRejectedVertexID = obs.NewCounter("lsgraph_http_rejected_total",
		obs.Label("reason", "vertex_id"),
		"ingest requests refused after admission, by reason")
	// obsRejectedDropped counts ingest requests answered 404 because their
	// graph was dropped between the request's lookup and its enqueue.
	obsRejectedDropped = obs.NewCounter("lsgraph_http_rejected_total",
		obs.Label("reason", "dropped"),
		"ingest requests refused after admission, by reason")

	// obsIngestEdges counts edges accepted for ingest (insert + delete)
	// across all graphs; compare with the store's Stats.EdgesEnqueued to
	// separate network-accepted from engine-enqueued.
	obsIngestEdges = obs.NewCounter("lsgraph_http_ingest_edges",
		"", "edges accepted by the ingest endpoint")
	// obsIngestBatches counts accepted ingest requests (one request = one
	// enqueued batch).
	obsIngestBatches = obs.NewCounter("lsgraph_http_ingest_batches",
		"", "ingest requests accepted (one enqueued batch each)")
)
