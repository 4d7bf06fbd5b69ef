package lsgraph

import (
	"io"

	"lsgraph/internal/obs"
)

// Tracing: alongside the aggregate metrics registry, the engine carries a
// flight recorder (internal/obs) permanently wired through the batch
// lifecycle — enqueue, coalesce, scatter, per-shard pack, partition and
// apply, snapshot publish, reclaim — plus boundary moves, kernel runs and
// view pins; each of these layers is timed by one span that feeds both the
// recorder and its lsgraph_phase_nanos series. Recording is off by default and costs one atomic load per
// instrumented site while off; on, each span is a lock-free ring-buffer
// write. Traces export as Chrome trace-event JSON (load in Perfetto or
// chrome://tracing) or as a human-readable slow-batch autopsy. The
// cmd/lsgraph and cmd/lsbench CLIs expose the same via their -trace flags,
// and MetricsHandler serves /debug/trace and /debug/trace/autopsy.

// TraceMode selects the flight recorder's sampling policy.
type TraceMode = obs.TraceMode

const (
	// TraceOff records nothing (the default).
	TraceOff = obs.TraceOff
	// TraceAll records every lifecycle event.
	TraceAll = obs.TraceAll
	// TraceSample records only batches whose ID is a multiple of the
	// configured divisor (non-batch events are always kept).
	TraceSample = obs.TraceSample
	// TraceTail records everything but exports only full traces of batches
	// whose enqueue-to-publish latency exceeded a moving p99.
	TraceTail = obs.TraceTail
)

// EnableTracing turns the flight recorder on (TraceAll) or off. Events
// already recorded are retained across toggles.
func EnableTracing(on bool) {
	if on {
		obs.SetTraceMode(obs.TraceAll, 1)
	} else {
		obs.SetTraceMode(obs.TraceOff, 1)
	}
}

// SetTraceMode sets the sampling policy directly. sampleN is the 1-in-N
// divisor, meaningful only with TraceSample.
func SetTraceMode(m TraceMode, sampleN int) { obs.SetTraceMode(m, sampleN) }

// TracingEnabled reports whether the flight recorder is on in any mode.
func TracingEnabled() bool { return obs.Tracing() }

// WriteTrace writes the recorded trace to w as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. In TraceTail
// mode only the retained slow-batch traces are exported.
func WriteTrace(w io.Writer) error { return obs.WriteChrome(w) }

// WriteTraceAutopsy writes the human-readable slow-batch report: the
// slowest traced batches by end-to-end latency, each with its per-phase
// breakdown and dominant phase.
func WriteTraceAutopsy(w io.Writer) error { return obs.WriteAutopsy(w) }

// ParseTraceMode parses a CLI-style trace mode: "off", "all" (or "on"),
// "sample=N", "tail".
func ParseTraceMode(s string) (TraceMode, int, error) { return obs.ParseTraceMode(s) }
