package lsgraph

import (
	"io"
	"net/http"

	"lsgraph/internal/obs"
)

// Observability: the engine keeps a process-wide metrics registry
// (internal/obs) permanently wired through the batch pipeline, the
// structure promotions and the analytics kernels, timing each layer of the
// Store serving layer too. Collection is off by default and costs a single
// atomic load per instrumented operation while off. The Stores' and their
// write-ahead logs' series (queue depth, coalescing, publish lag,
// reclamation, arena bytes, rebalancing, WAL records and checkpoints) are
// the counters behind Store.Stats, read at export and summed over every
// open Store, so they are exported with collection off as well. These
// functions expose the registry to embedding applications. The cmd/lsgraph
// and cmd/lsbench CLIs expose the same data via their -metrics flag.

// EnableMetrics turns metric collection on or off (off by default).
// Values collected while enabled are retained across toggles, so a
// workload can be bracketed by enable/disable and inspected afterwards.
func EnableMetrics(on bool) { obs.SetEnabled(on) }

// MetricsEnabled reports whether metric collection is currently on.
func MetricsEnabled() bool { return obs.Enabled() }

// WriteMetrics writes every engine metric to w in the Prometheus text
// exposition format (one HELP/TYPE header per metric name, histograms in
// cumulative-bucket form).
func WriteMetrics(w io.Writer) error { return obs.Default.WritePrometheus(w) }

// MetricsSnapshotJSON returns every engine metric as an indented JSON
// document: counters and gauges as numbers, histograms as
// {count, sum, unit, buckets} objects.
func MetricsSnapshotJSON() ([]byte, error) { return obs.SnapshotJSON() }

// MetricsHandler returns an http.Handler serving /metrics (Prometheus
// text), /metrics.json (JSON snapshot), /debug/trace (+ /autopsy) and
// /debug/pprof/*, for mounting in an embedding application's own server.
func MetricsHandler() http.Handler { return obs.Handler(obs.Default) }

// ServeMetrics enables collection and serves MetricsHandler on addr
// (e.g. ":6060"). It blocks until the server fails; run it in a
// goroutine.
func ServeMetrics(addr string) error { return obs.Serve(addr) }
