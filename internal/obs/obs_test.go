package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := NewCounterIn(r, "test_total", `k="v"`, "a test counter")
	if c.Value() != 0 {
		t.Fatalf("fresh counter = %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	c.AddShard(3, 100)
	if got := c.Value(); got != 142 {
		t.Fatalf("Value = %d, want 142", got)
	}
}

func TestCounterDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	NewCounterIn(r, "dup_total", "", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	NewCounterIn(r, "dup_total", "", "x")
}

// TestCounterConcurrent is the race-mode smoke test for the sharded
// counters: many goroutines hammer Add, AddShard, and Value concurrently;
// the final total must be exact and `go test -race` must stay silent.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := NewCounterIn(r, "conc_total", "", "concurrency smoke")
	h := NewHistogramIn(r, "conc_hist", "", "ns", "concurrency smoke")
	g := NewGaugeIn(r, "conc_gauge", "", "concurrency smoke")
	const workers = 16
	const perWorker = 10000
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() { // concurrent reader racing the writers
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Value()
				_ = h.Count()
				_ = g.Value()
			}
		}
	}()
	var writers sync.WaitGroup
	writers.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				if i%2 == 0 {
					c.Add(1)
				} else {
					c.AddShard(w, 1)
				}
				h.Observe(uint64(i))
				g.Add(1)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	reader.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("lost updates: %d, want %d", got, workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count %d, want %d", h.Count(), workers*perWorker)
	}
	if g.Value() != workers*perWorker {
		t.Fatalf("gauge %d, want %d", g.Value(), workers*perWorker)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := NewGaugeIn(r, "test_gauge", "", "a gauge")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := NewHistogramIn(r, "test_hist", "", "elements", "a histogram")
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1010 {
		t.Fatalf("sum = %d", h.Sum())
	}
	// 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 4 -> 3; 1000 -> 10.
	for i, want := range map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1, 10: 1} {
		if got := h.buckets[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

// TestTimerDisabledIsZero: a span begun with metrics off reads no clock and
// observes nothing; one begun with metrics on observes exactly once.
func TestTimerDisabledIsZero(t *testing.T) {
	prev := sinks.Load()
	defer sinks.Store(prev)
	sinks.Store(0)
	l := &Layer{phase: PhaseApply, hist: NewHistogramIn(NewRegistry(), "timer_hist", "", "ns", "x")}
	sp := l.Begin()
	if sp.On() || sp.Start() != 0 {
		t.Fatalf("Begin with collection off = %+v, want the zero span", sp)
	}
	sp.End(0, 0, 0, 0)
	if l.hist.Count() != 0 {
		t.Fatal("End observed a span begun with collection off")
	}
	SetEnabled(true)
	sp = l.Begin()
	if !sp.Metrics() || sp.Traced() || sp.Start() == 0 {
		t.Fatalf("Begin with only metrics on = %+v", sp)
	}
	sp.End(0, 0, 0, 0)
	if l.hist.Count() != 1 {
		t.Fatal("End dropped a live observation")
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	NewCounterIn(r, "fmt_total", `op="a"`, "a labelled counter").Add(5)
	NewCounterIn(r, "fmt_total", `op="b"`, "a labelled counter").Add(7)
	NewGaugeIn(r, "fmt_gauge", "", "a gauge").Set(-2)
	h := NewHistogramIn(r, "fmt_hist", "", "ns", "a histogram")
	h.Observe(3)
	pw := NewCounterIn(r, "fmt_workers_total", "", "per worker")
	pw.perWorker = true
	pw.AddShard(2, 9)
	NewFuncIn(r, "fmt_func", "", "gauge", "a summed func", "", func(d []uint64) []uint64 { return append(d, 2, 3) })
	NewFuncIn(r, "fmt_shards", "", "gauge", "a func by shard", "shard", func(d []uint64) []uint64 { return append(d, 4, 0, 6) })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP fmt_total a labelled counter",
		"# TYPE fmt_total counter",
		`fmt_total{op="a"} 5`,
		`fmt_total{op="b"} 7`,
		"# TYPE fmt_gauge gauge",
		"fmt_gauge -2",
		"# TYPE fmt_hist histogram",
		`fmt_hist_bucket{le="3"} 1`,
		`fmt_hist_bucket{le="+Inf"} 1`,
		"fmt_hist_sum 3",
		"fmt_hist_count 1",
		`fmt_workers_total{worker="2"} 9`,
		"# TYPE fmt_func gauge",
		"fmt_func 5",
		`fmt_shards{shard="0"} 4`,
		`fmt_shards{shard="1"} 0`,
		`fmt_shards{shard="2"} 6`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	// One HELP header per metric name even with multiple label sets.
	if n := strings.Count(out, "# HELP fmt_total"); n != 1 {
		t.Errorf("HELP fmt_total appears %d times", n)
	}
}

// TestFuncReadAtExport: a NewFunc callback runs when the registry is
// exported and never in between; a counter read at export carries the
// _total suffix, and its literal labels are escaped like any other series',
// with the index label appended to them.
func TestFuncReadAtExport(t *testing.T) {
	r := NewRegistry()
	var reads int
	vals := []uint64{7}
	NewFuncIn(r, "func_events", "", "counter", "a counter read at export", "", func(d []uint64) []uint64 {
		reads++
		return append(d, vals...)
	})
	NewFuncIn(r, "func_bytes", Label("file", `a"b\c`), "gauge", "a gauge read at export", "shard",
		func(d []uint64) []uint64 { return append(d, vals...) })
	if reads != 0 {
		t.Fatalf("registration read the callback %d times", reads)
	}
	export := func() string {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	out := export()
	for _, want := range []string{
		"# TYPE func_events_total counter",
		"func_events_total 7",
		`func_bytes{file="a\"b\\c",shard="0"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	vals = []uint64{7, 4}
	out = export()
	for _, want := range []string{"func_events_total 11", `shard="1"} 4`} {
		if !strings.Contains(out, want) {
			t.Errorf("second export missing %q:\n%s", want, out)
		}
	}
	if reads != 2 {
		t.Errorf("callback read %d times for two exports", reads)
	}
	snap := r.Snapshot()
	if v := snap["func_events"]; v != uint64(11) {
		t.Errorf("snapshot func_events = %v, want 11", v)
	}
	if v, _ := snap[`func_bytes{file="a\"b\\c"}`].(map[string]uint64); v["shard1"] != 4 {
		t.Errorf("snapshot func_bytes = %v, want shard1: 4", snap)
	}
	vals = nil
	if out = export(); !strings.Contains(out, "func_events_total 0") || strings.Contains(out, "func_bytes{") {
		t.Errorf("an empty read should export a zero sum and no indexed series:\n%s", out)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	NewCounterIn(r, "snap_total", `op="x"`, "c").Add(3)
	h := NewHistogramIn(r, "snap_hist", "", "ns", "h")
	h.Observe(100)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got[`snap_total{op="x"}`] != float64(3) {
		t.Fatalf("snapshot counter = %v", got[`snap_total{op="x"}`])
	}
	hv, ok := got["snap_hist"].(map[string]any)
	if !ok || hv["count"] != float64(1) || hv["sum"] != float64(100) {
		t.Fatalf("snapshot histogram = %v", got["snap_hist"])
	}
}

func TestHTTPEndpoint(t *testing.T) {
	r := NewRegistry()
	NewCounterIn(r, "http_total", "", "served counter").Add(11)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":      "http_total 11",
		"/metrics.json": `"http_total": 11`,
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("%s: missing %q in %q", path, want, body)
		}
	}

	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
}

// TestGoRuntimeSeries: the Default registry exports the Go runtime's own
// cost — live heap, heap goal, goroutines, GC pauses — sampled at export.
func TestGoRuntimeSeries(t *testing.T) {
	runtime.GC()
	snap := Default.Snapshot()
	for _, name := range []string{"lsgraph_go_heap_live_bytes", "lsgraph_go_heap_goal_bytes", "lsgraph_go_goroutines"} {
		if v, _ := snap[name].(uint64); v == 0 {
			t.Errorf("%s = %v, want a positive sample", name, snap[name])
		}
	}
	pauses, _ := snap["lsgraph_go_gc_pause_nanos"].(map[string]any)
	if n, _ := pauses["count"].(uint64); n == 0 {
		t.Errorf("lsgraph_go_gc_pause_nanos = %v after a collection, want pauses counted", pauses)
	}
	var b strings.Builder
	if err := Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"# TYPE lsgraph_go_heap_live_bytes gauge", "# TYPE lsgraph_go_gc_pause_nanos histogram",
		`lsgraph_go_gc_pause_nanos_bucket{le="+Inf"} `, "lsgraph_go_gc_pause_nanos_count ", "lsgraph_go_goroutines "} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("exposition lacks %q", line)
		}
	}
}
