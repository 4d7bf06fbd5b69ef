package lsgraph_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"lsgraph"
)

// TestObservabilityEndToEnd drives the public metrics API through a real
// update/analytics cycle and checks that each instrumented layer reported.
func TestObservabilityEndToEnd(t *testing.T) {
	prev := lsgraph.MetricsEnabled()
	lsgraph.EnableMetrics(true)
	defer lsgraph.EnableMetrics(prev)

	g := lsgraph.New(1 << 10)
	var es []lsgraph.Edge
	for v := uint32(1); v < 600; v++ {
		es = append(es, lsgraph.Edge{Src: 0, Dst: v}, lsgraph.Edge{Src: v, Dst: 0})
	}
	// Small batches keep vertex 0's per-batch group under the bulk-rebuild
	// threshold, so its overflow grows through the per-edge path and
	// crosses the array->RIA promotion.
	for lo := 0; lo < len(es); lo += 8 {
		hi := lo + 8
		if hi > len(es) {
			hi = len(es)
		}
		g.InsertEdges(es[lo:hi])
	}
	lsgraph.BFS(g, 0)
	g.DeleteEdges(es[:100])

	var buf bytes.Buffer
	if err := lsgraph.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lsgraph_batches_total{op="insert"}`,
		`lsgraph_batches_total{op="delete"}`,
		`lsgraph_phase_nanos_count{phase="apply"}`,
		`lsgraph_overflow_promotions_total{from="array",to="ria"}`,
		`lsgraph_ria_slide_elements_count`,
		`lsgraph_phase_nanos_count{phase="kernel",kernel="bfs"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %s", want)
		}
	}

	b, err := lsgraph.MetricsSnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	// Vertex 0's degree crosses the array threshold, so the engine must
	// have promoted its overflow and RIA inserts must have been observed.
	if v, ok := snap[`lsgraph_overflow_promotions_total{from="array",to="ria"}`].(float64); !ok || v < 1 {
		t.Errorf("expected at least one array->ria promotion, snapshot has %v", v)
	}
	if v, ok := snap[`lsgraph_edges_changed_total{op="insert"}`].(float64); !ok || v < float64(len(es)) {
		t.Errorf("edges inserted metric %v, want >= %d", v, len(es))
	}
}
