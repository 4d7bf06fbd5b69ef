package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// mayBeZero lists the per-layer metrics that are differences of two
// measurements or counts of events a healthy run may not have; every other
// metric must be positive.
var mayBeZero = map[string]bool{
	"serve.self_ms":             true,
	"serve.coalesced_batches":   true,
	"serve.snapshots_reclaimed": true,
	"httpserve.net_us":          true,
	"httpserve.shed_share":      true,
	"trace.overhead_pct":        true,
}

// TestSmoke runs every workload untraced and traced at smoke size and checks
// that what the program emits and what BENCHMARK.json declares are the same
// sets, that every value is usable, and that the trace nests.
func TestSmoke(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if sp.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the program's default is %d", sp.RunSeconds, runSeconds)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(sp.Workloads), len(workloads))
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := func(ms []specMetric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			if !nameOK.MatchString(m.Name) {
				t.Errorf("metric name %q is malformed", m.Name)
			}
			if _, dup := out[m.Name]; dup {
				t.Errorf("BENCHMARK.json declares %s twice", m.Name)
			}
			out[m.Name] = m.Unit
		}
		return out
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, sp.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			want := declared(sp.EndToEnd)
			if traced {
				want = declared(sp.PerLayer)
			}
			out, err := runWorkload(w, smokeSizes, 1, 0, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, out.Correct, out.Attempted, out.Failed)
			}
			for name, v := range out.Metrics {
				unit, ok := want[name]
				if !ok {
					t.Errorf("%s emits %s, which BENCHMARK.json does not declare", w.name, name)
				} else if unit != v.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, name, v.Unit, unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (v.Value <= 0 && !mayBeZero[name]) {
					t.Errorf("%s: %s = %v", w.name, name, v.Value)
				}
			}
			for name := range want {
				if _, ok := out.Metrics[name]; !ok {
					t.Errorf("%s does not emit %s, which BENCHMARK.json declares", w.name, name)
				}
			}
			if traced {
				checkTrace(t, filepath.Join("out", "trace-"+w.name+".json"))
			}
		}
	}
}

// checkTrace parses a trace file and checks that every child span lies
// inside its parent and belongs to the same operation.
func checkTrace(t *testing.T, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatalf("%s holds no span", path)
	}
	byID := map[int]traceEvent{}
	for _, e := range tf.TraceEvents {
		byID[e.Args.ID] = e
	}
	children := 0
	for _, e := range tf.TraceEvents {
		if e.Args.Parent < 0 {
			continue
		}
		children++
		p, ok := byID[e.Args.Parent]
		if !ok {
			t.Errorf("%s: span %d (%s) names a missing parent %d", path, e.Args.ID, e.Name, e.Args.Parent)
			continue
		}
		// Timestamps are microseconds in float64; allow a nanosecond of rounding.
		if e.Ts < p.Ts-1e-3 || e.Ts+e.Dur > p.Ts+p.Dur+1e-3 || e.Args.Op != p.Args.Op {
			t.Errorf("%s: span %d (%s) is not inside its parent %d (%s)", path, e.Args.ID, e.Name, p.Args.ID, p.Name)
		}
	}
	if children == 0 {
		t.Errorf("%s holds no child span", path)
	}
}
