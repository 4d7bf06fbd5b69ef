package obs

import (
	"net/http"
	"strconv"
)

// HTTPMetrics instruments one HTTP route with request-level series in the
// default registry, the front-end counterpart of the engine's batch-phase
// metrics:
//
//	lsgraph_http_requests_total{route,code}   requests finished, by status code
//	lsgraph_http_request_nanos{route}         wall-clock latency histogram (ns)
//	lsgraph_http_inflight{route}              requests currently being handled
//
// Construct one per route at mux-build time (NewHTTPMetrics) and wrap the
// route's handler with Wrap. Like every obs series, recording is skipped
// entirely while collection is disabled (Enabled() == false), so an
// uninstrumented deployment pays one atomic load per request.
type HTTPMetrics struct {
	latency  *Histogram
	inflight *Gauge

	// Requests split by status code: the trackedCodes each have a counter,
	// built with the route (the map is read-only after that), and every
	// other code folds into code="other".
	byCode map[int]*Counter
	other  *Counter
}

// trackedCodes are the status codes that get their own code="NNN" series;
// anything else is folded into code="other". Kept small on purpose: every
// (route, code) pair is a live series for the life of the process.
var trackedCodes = []int{200, 201, 202, 204, 400, 404, 409, 413, 429, 499, 500, 503}

// NewHTTPMetrics registers the request-level series for route (a stable
// label value such as "ingest" or "kernel", not the raw URL — raw URLs
// would explode series cardinality) and returns the instrument. Call once
// per route at startup, from one goroutine.
func NewHTTPMetrics(route string) *HTTPMetrics {
	m := &HTTPMetrics{
		latency: NewHistogram("lsgraph_http_request_nanos",
			Label("route", route), "nanoseconds",
			"wall-clock request latency by route"),
		inflight: NewGauge("lsgraph_http_inflight",
			Label("route", route),
			"requests currently being handled, by route"),
		byCode: make(map[int]*Counter, len(trackedCodes)),
		other: NewCounter("lsgraph_http_requests_total",
			Label("route", route)+","+Label("code", "other"),
			"HTTP requests finished, by route and status code"),
	}
	for _, c := range trackedCodes {
		m.byCode[c] = NewCounter("lsgraph_http_requests_total",
			Label("route", route)+","+Label("code", strconv.Itoa(c)),
			"HTTP requests finished, by route and status code")
	}
	return m
}

// statusWriter captures the status code a handler writes so the request
// counter can be split by code. WriteHeader after the first call is
// ignored, matching net/http semantics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the first status code written and forwards it.
func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write forwards to the underlying writer, recording the implicit 200 a
// bare Write issues when no header was written first.
func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Wrap returns h instrumented with this route's series. When collection is
// disabled the wrapper is one atomic load and a direct call — safe to
// leave in place permanently.
func (m *HTTPMetrics) Wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !Enabled() {
			h.ServeHTTP(w, r)
			return
		}
		m.inflight.Add(1)
		start := Now()
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		m.latency.Observe(uint64(Now() - start))
		m.inflight.Add(-1)
		if c, ok := m.byCode[code]; ok {
			c.Inc()
		} else {
			m.other.Inc()
		}
	})
}
