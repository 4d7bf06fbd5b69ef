package lsgraph

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"lsgraph/internal/trace"
)

// Tracing: alongside the aggregate metrics registry, the engine carries a
// flight recorder (internal/trace) permanently wired through the batch
// lifecycle — enqueue, coalesce, scatter, per-shard pack, partition and
// apply, snapshot publish, reclaim — plus kernel runs
// and view pins. Recording is off by default and costs one atomic load per
// instrumented site while off; on, each span is a lock-free ring-buffer
// write. Traces export as Chrome trace-event JSON (load in Perfetto or
// chrome://tracing) or as a human-readable slow-batch autopsy. The
// cmd/lsgraph and cmd/lsbench CLIs expose the same via their -trace flags,
// and MetricsHandler serves /debug/trace and /debug/trace/autopsy.

// TraceMode selects the flight recorder's sampling policy.
type TraceMode = trace.Mode

const (
	// TraceOff records nothing (the default).
	TraceOff = trace.Off
	// TraceAll records every lifecycle event.
	TraceAll = trace.All
	// TraceSample records only batches whose ID is a multiple of the
	// configured divisor (non-batch events are always kept).
	TraceSample = trace.Sample
	// TraceTail records everything but exports only full traces of batches
	// whose enqueue-to-publish latency exceeded a moving p99.
	TraceTail = trace.Tail
)

// EnableTracing turns the flight recorder on (TraceAll) or off. Events
// already recorded are retained across toggles.
func EnableTracing(on bool) {
	if on {
		trace.SetMode(trace.All, 1)
	} else {
		trace.SetMode(trace.Off, 1)
	}
}

// SetTraceMode sets the sampling policy directly. sampleN is the 1-in-N
// divisor, meaningful only with TraceSample.
func SetTraceMode(m TraceMode, sampleN int) { trace.SetMode(m, sampleN) }

// TracingEnabled reports whether the flight recorder is on in any mode.
func TracingEnabled() bool { return trace.Enabled() }

// WriteTrace writes the recorded trace to w as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. In TraceTail
// mode only the retained slow-batch traces are exported.
func WriteTrace(w io.Writer) error { return trace.WriteChrome(w) }

// WriteTraceAutopsy writes the human-readable slow-batch report: the
// slowest traced batches by end-to-end latency, each with its per-phase
// breakdown and dominant phase.
func WriteTraceAutopsy(w io.Writer) error { return trace.WriteAutopsy(w) }

// ParseTraceMode parses a CLI-style trace mode: "off", "all" (or "on"),
// "sample=N", "tail".
func ParseTraceMode(s string) (TraceMode, int, error) {
	switch {
	case s == "" || s == "off":
		return trace.Off, 1, nil
	case s == "all" || s == "on":
		return trace.All, 1, nil
	case s == "tail":
		return trace.Tail, 1, nil
	case strings.HasPrefix(s, "sample="):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "sample="))
		if err != nil || n < 1 {
			return trace.Off, 1, fmt.Errorf("lsgraph: bad sample divisor in trace mode %q", s)
		}
		return trace.Sample, n, nil
	}
	return trace.Off, 1, fmt.Errorf("lsgraph: unknown trace mode %q (want off, all, sample=N, tail)", s)
}
