package httpserve

import "net/http"

// Admission control: the front-end sheds work it could technically accept
// but could not serve within SLO, instead of queueing it invisibly.
//
// Ingest is admitted only while the target store is below its coalescing
// threshold. serve's writer queues never block callers — past MaxQueue
// they merge same-op batches — so without an admission gate an overloaded
// store silently grows one giant merged batch whose visibility lag is
// unbounded. Store.Saturated() is exactly the "next enqueue would
// coalesce" signal, so shedding at that point keeps the engine in the
// regime where each accepted batch gets its own epoch, and tells clients
// to back off with a standard 429 + Retry-After.
//
// Kernels are admitted through a counting semaphore (Config.MaxKernels):
// each kernel run saturates the worker pool by design, so stacking more
// than a few only multiplies p99 for everyone. A full semaphore sheds with
// the same 429 contract rather than queueing.

// retryAfter is the Retry-After hint, in seconds, on every 429 response.
const retryAfter = "1"

// admitIngest reports whether the tenant's store can take another batch.
// On rejection it has already written the 429 response.
func (s *Server) admitIngest(w http.ResponseWriter, t *tenant) bool {
	st := t.store
	saturated := st.Saturated()
	if s.admitOverride != nil {
		saturated = s.admitOverride(st)
	}
	if !saturated {
		return true
	}
	obsShedQueue.Inc()
	w.Header().Set("Retry-After", retryAfter)
	writeError(w, http.StatusTooManyRequests,
		"ingest queue saturated (depth %d, bound %d); retry later",
		st.Stats().QueueDepth, t.cfg.MaxQueue)
	return false
}

// admitKernel tries to take a kernel slot; the caller must call the
// returned release exactly once when admitted. On rejection it has
// already written the 429 response.
func (s *Server) admitKernel(w http.ResponseWriter) (release func(), ok bool) {
	select {
	case s.kernelSem <- struct{}{}:
		return func() { <-s.kernelSem }, true
	default:
		obsShedKernel.Inc()
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusTooManyRequests,
			"kernel concurrency limit (%d) reached; retry later", s.cfg.MaxKernels)
		return nil, false
	}
}

// rejectDraining writes the 503 shutdown response if the server is
// draining, reporting whether it did.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	writeError(w, http.StatusServiceUnavailable, "server is draining")
	return true
}
