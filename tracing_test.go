package lsgraph_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"lsgraph"
)

// TestTracingEndToEnd drives the public flight-recorder API through a live
// sharded Store and checks the exported Chrome trace covers the whole batch
// lifecycle, plus the autopsy and the /debug/trace HTTP surface.
func TestTracingEndToEnd(t *testing.T) {
	lsgraph.EnableTracing(true)
	defer lsgraph.EnableTracing(false)

	st := lsgraph.NewStore(1<<10, lsgraph.WithShards(4))
	var es []lsgraph.Edge
	for v := uint32(1); v < 800; v++ {
		es = append(es, lsgraph.Edge{Src: v % 7, Dst: v}, lsgraph.Edge{Src: v, Dst: v % 7})
	}
	st.InsertEdges(es)
	st.Flush()
	v := st.View()
	lsgraph.BFS(v, 0)
	v.Release()
	st.DeleteEdges(es[:64])
	st.Flush()
	st.Close()

	if !lsgraph.TracingEnabled() {
		t.Fatal("TracingEnabled = false after EnableTracing(true)")
	}

	var buf bytes.Buffer
	if err := lsgraph.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("WriteTrace output is not valid JSON: %v", err)
	}
	phases := map[string]bool{}
	for _, ev := range out.TraceEvents {
		if name, ok := ev["name"].(string); ok {
			phases[strings.Split(name, ":")[0]] = true
		}
	}
	for _, want := range []string{
		"enqueue", "scatter", "pack", "partition", "apply",
		"publish", "kernel", "viewpin",
	} {
		if !phases[want] {
			t.Errorf("trace missing lifecycle phase %q (saw %v)", want, phases)
		}
	}

	var rep bytes.Buffer
	if err := lsgraph.WriteTraceAutopsy(&rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "dominant phase:") {
		t.Errorf("autopsy does not name a dominant phase:\n%s", rep.String())
	}

	// The metrics handler serves the same exports under /debug/trace.
	h := lsgraph.MetricsHandler()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace", nil))
	if rr.Code != 200 {
		t.Fatalf("/debug/trace status %d", rr.Code)
	}
	if !json.Valid(rr.Body.Bytes()) {
		t.Fatal("/debug/trace did not return valid JSON")
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace/autopsy", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "autopsy") {
		t.Fatalf("/debug/trace/autopsy status %d body %q", rr.Code, rr.Body.String()[:60])
	}
}

// TestVisibilityLagHistogram checks the end-to-end enqueue-to-publish
// histogram and the view-pin layer's series fill from a live Store when
// metrics are on.
func TestVisibilityLagHistogram(t *testing.T) {
	prev := lsgraph.MetricsEnabled()
	lsgraph.EnableMetrics(true)
	defer lsgraph.EnableMetrics(prev)

	st := lsgraph.NewStore(1<<8, lsgraph.WithShards(2))
	var es []lsgraph.Edge
	for v := uint32(1); v < 200; v++ {
		es = append(es, lsgraph.Edge{Src: 0, Dst: v})
	}
	st.InsertEdges(es)
	st.Flush()
	v := st.View()
	_ = v.NumEdges()
	v.Release()
	st.Close()

	var buf bytes.Buffer
	if err := lsgraph.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"lsgraph_store_visibility_lag_nanos_count",
		`lsgraph_phase_nanos_count{phase="viewpin"}`,
	} {
		i := strings.Index(out, want)
		if i < 0 {
			t.Errorf("metrics missing %s", want)
			continue
		}
		line := out[i:]
		if j := strings.IndexByte(line, '\n'); j >= 0 {
			line = line[:j]
		}
		if strings.HasSuffix(line, " 0") {
			t.Errorf("%s never observed: %q", want, line)
		}
	}
}

func TestParseTraceMode(t *testing.T) {
	cases := []struct {
		in   string
		mode lsgraph.TraceMode
		n    int
		err  bool
	}{
		{"", lsgraph.TraceOff, 1, false},
		{"off", lsgraph.TraceOff, 1, false},
		{"all", lsgraph.TraceAll, 1, false},
		{"on", lsgraph.TraceAll, 1, false},
		{"tail", lsgraph.TraceTail, 1, false},
		{"sample=8", lsgraph.TraceSample, 8, false},
		{"sample=0", lsgraph.TraceOff, 1, true},
		{"sample=x", lsgraph.TraceOff, 1, true},
		{"bogus", lsgraph.TraceOff, 1, true},
	}
	for _, c := range cases {
		m, n, err := lsgraph.ParseTraceMode(c.in)
		if (err != nil) != c.err || (!c.err && (m != c.mode || n != c.n)) {
			t.Errorf("ParseTraceMode(%q) = (%v, %d, %v), want (%v, %d, err=%v)",
				c.in, m, n, err, c.mode, c.n, c.err)
		}
	}
}
