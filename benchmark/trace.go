package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call: a front-door operation (a root, parent -1) or a
// call it makes into a layer's public function. Spans of one operation share
// op. Times are nanoseconds since the recorder started.
type span struct {
	name       string
	start, end int64
	parent     int
	op         uint64
}

// recorder keeps spans in memory until the run ends. A nil recorder, or one
// that is switched off, records nothing, so the same driver code serves the
// untraced and the traced run.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	spans []span
	ops   uint64
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), on: true} }

func (r *recorder) enabled() bool { return r != nil && r.on }

// begin opens a span and returns its id, or -1 when recording is off.
func (r *recorder) begin(name string, parent int, op uint64) int {
	if !r.enabled() {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, start: now, parent: parent, op: op})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes the span begin returned and returns its length in nanoseconds.
func (r *recorder) end(id int) float64 {
	if id < 0 {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = now
	return float64(now - r.spans[id].start)
}

// newOp returns a fresh operation id, shared by the spans of one operation.
func (r *recorder) newOp() uint64 {
	if !r.enabled() {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// call records f as a child span of parent.
func (r *recorder) call(name string, parent int, op uint64, f func()) {
	id := r.begin(name, parent, op)
	f()
	r.end(id)
}

// durations returns the length in nanoseconds of every closed span called
// name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.name == name && s.end >= s.start {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// traceEvent is one Chrome trace-event "complete" record; chrome://tracing
// and ui.perfetto.dev load a file of them.
type traceEvent struct {
	Name string    `json:"name"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`  // microseconds
	Dur  float64   `json:"dur"` // microseconds
	Pid  int       `json:"pid"`
	Tid  uint64    `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     uint64 `json:"op"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// write stores the spans as Chrome trace-event JSON under dir. Each
// operation gets its own track (tid = op), so children nest under their root.
func (r *recorder) write(dir, workload string) (string, error) {
	r.mu.Lock()
	tf := traceFile{TraceEvents: make([]traceEvent, 0, len(r.spans))}
	for id, s := range r.spans {
		if s.end < s.start {
			continue
		}
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: s.name, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.op,
			Args: traceArgs{ID: id, Parent: s.parent, Op: s.op},
		})
	}
	r.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
