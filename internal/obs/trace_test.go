package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// withMode runs the test with the flight recorder in mode m over fresh
// rings of the given capacity, restoring the defaults afterwards so tests
// cannot leak state into each other (the recorder is process-global).
func withMode(t *testing.T, m TraceMode, n, capacity int) {
	t.Helper()
	resetTrace(capacity)
	SetTraceMode(m, n)
	t.Cleanup(func() {
		SetTraceMode(TraceOff, 1)
		resetTrace(defaultRingCapacity)
	})
}

// rec records a span of phase ph that began at start and ends now, as End
// does, under the current mode.
func rec(ph Phase, shard int, batch, epoch, edges uint64, start int64) {
	record(CurrentTraceMode(), Event{
		Batch: batch, Epoch: epoch, Shard: shard, Phase: ph,
		Edges: edges, Start: start, Dur: Now() - start,
	})
}

func TestDisabledRecordsNothing(t *testing.T) {
	withMode(t, TraceOff, 1, 64)
	if sp := PhaseApply.Begin(); sp.On() || sp.Start() != 0 {
		t.Fatalf("Begin with both sinks off = %+v, want the zero span", sp)
	}
	PhaseApply.Begin().End(0, 1, 0, 10)
	rec(PhaseApply, 0, 1, 0, 10, Now())
	Instant(PhaseCoalesce, 0, 1, 10)
	if evs := Events(); len(evs) != 0 {
		t.Fatalf("recorded %d events with tracing off", len(evs))
	}
}

func TestSpanRoundTrip(t *testing.T) {
	withMode(t, TraceAll, 1, 64)
	sp := PhasePublish.Begin()
	if !sp.Traced() || sp.Start() == 0 {
		t.Fatalf("Begin with tracing on = %+v", sp)
	}
	sp.End(3, 42, 7, 12345)
	evs := Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Phase != PhasePublish || ev.Shard != 3 || ev.Batch != 42 ||
		ev.Epoch != 7 || ev.Edges != 12345 || ev.Start != sp.Start() || ev.Dur < 0 {
		t.Fatalf("decoded event %+v does not match recorded span", ev)
	}
}

func TestRingWraparound(t *testing.T) {
	const capacity = 8
	withMode(t, TraceAll, 1, capacity)
	// All events land on shard 0's ring; edges value identifies each.
	for i := 0; i < 3*capacity; i++ {
		Instant(PhaseCoalesce, 0, 1, uint64(i))
	}
	evs := Events()
	if len(evs) != capacity {
		t.Fatalf("snapshot has %d events after wrap, want ring capacity %d", len(evs), capacity)
	}
	// The survivors must be exactly the newest capacity events.
	seen := map[uint64]bool{}
	for _, ev := range evs {
		seen[ev.Edges] = true
	}
	for i := 2 * capacity; i < 3*capacity; i++ {
		if !seen[uint64(i)] {
			t.Fatalf("newest event %d overwritten; got %v", i, seen)
		}
	}
}

func TestConcurrentWritersAndReaders(t *testing.T) {
	withMode(t, TraceAll, 1, 256)
	const writers = 8
	const perWriter = 5000
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() { // concurrent exporter: must never block writers or race
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			Events()
			var sb strings.Builder
			WriteChrome(&sb)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				PhaseApply.Begin().End(w%4, uint64(w*perWriter+i), 0, uint64(i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if evs := Events(); len(evs) == 0 {
		t.Fatal("no events survived concurrent recording")
	}
}

func TestSampling(t *testing.T) {
	withMode(t, TraceSample, 4, 256)
	for b := uint64(1); b <= 8; b++ {
		Instant(PhaseCoalesce, 0, b, b)
	}
	Instant(PhaseKernel, -1, 0, 99) // non-batch events always kept
	got := map[uint64]bool{}
	for _, ev := range Events() {
		got[ev.Batch] = true
	}
	want := map[uint64]bool{0: true, 4: true, 8: true}
	if len(got) != len(want) {
		t.Fatalf("sampled batches %v, want %v", got, want)
	}
	for b := range want {
		if !got[b] {
			t.Fatalf("sampled batches %v, want %v", got, want)
		}
	}
}

func TestTailRetention(t *testing.T) {
	withMode(t, TraceTail, 1, 1024)
	// Warm the moving-p99 estimator with fast completions.
	for i := uint64(0); i < 40; i++ {
		BatchEnd(1000+i, 1000)
	}
	// A batch 1000x slower than the estimate must be retained with its
	// ring events.
	rec(PhaseApply, 0, 7, 3, 500, Now()-1_000_000)
	BatchEnd(7, 1_000_000)
	kept := RetainedTraces()
	if len(kept) != 1 {
		t.Fatalf("retained %d traces, want 1", len(kept))
	}
	bt := kept[0]
	if bt.Batch != 7 || bt.LagNs != 1_000_000 || len(bt.Events) != 1 {
		t.Fatalf("retained trace %+v, want batch 7 with 1 event", bt)
	}
	// A fast batch must not be retained.
	rec(PhaseApply, 1, 8, 3, 500, Now())
	BatchEnd(8, 900)
	if kept = RetainedTraces(); len(kept) != 1 {
		t.Fatalf("retained %d traces after a fast batch, want 1", len(kept))
	}

	// Tail-mode Chrome export carries only the retained slow batches.
	var buf bytes.Buffer
	if err := WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("tail-mode export is not valid JSON: %v", err)
	}
	for _, ev := range out.TraceEvents {
		if args, ok := ev["args"].(map[string]any); ok {
			if b, ok := args["batch"].(float64); ok && b != 0 && b != 7 {
				t.Fatalf("tail export leaked batch %v (only retained batch 7 expected)", b)
			}
		}
	}
}

func TestChromeExportParsesBack(t *testing.T) {
	withMode(t, TraceAll, 1, 256)
	now := Now()
	rec(PhaseScatter, -1, 1, 0, 100, now-3_000_000)
	rec(PhaseApply, 2, 1, 5, 100, now-2_000_000)
	record(TraceAll, Event{Shard: -1, Phase: PhaseKernel, Name: internName("bfs"),
		Edges: 4242, Start: now - 1_000_000, Dur: 1_000_000})
	Instant(PhaseCoalesce, 1, 1, 64)

	var buf bytes.Buffer
	if err := WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", out.DisplayTimeUnit)
	}
	var haveProc, haveComplete, haveInstant, haveKernel bool
	for _, ev := range out.TraceEvents {
		switch ev["ph"] {
		case "M":
			if ev["name"] == "process_name" {
				haveProc = true
			}
		case "X":
			haveComplete = true
			if ev["name"] == "kernel:bfs" {
				haveKernel = true
				if tid, _ := ev["tid"].(float64); tid != 0 {
					t.Fatalf("kernel span on tid %v, want engine track 0", tid)
				}
			}
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("complete span missing dur: %v", ev)
			}
		case "i":
			haveInstant = true
		}
	}
	if !haveProc || !haveComplete || !haveInstant || !haveKernel {
		t.Fatalf("export missing event kinds: process=%v complete=%v instant=%v kernel=%v",
			haveProc, haveComplete, haveInstant, haveKernel)
	}
}

func TestAutopsyNamesDominantPhase(t *testing.T) {
	withMode(t, TraceAll, 1, 256)
	now := Now()
	// Batch 1: partition dominates by construction (5ms of an ~6ms e2e).
	rec(PhaseEnqueue, -1, 1, 0, 1000, now-6_000_000)
	rec(PhasePartition, 0, 1, 0, 1000, now-5_500_000)
	rec(PhasePublish, 0, 1, 1, 1000, now-300_000)
	// Batch 2: a fast one, so batch 1 leads the report.
	rec(PhaseApply, 1, 2, 1, 10, now-100_000)

	var buf bytes.Buffer
	if err := WriteAutopsy(&buf); err != nil {
		t.Fatal(err)
	}
	rep := buf.String()
	if !strings.Contains(rep, "batch 1") {
		t.Fatalf("autopsy does not mention the slowest batch:\n%s", rep)
	}
	slowest := rep[strings.Index(rep, "batch 1"):]
	if !strings.Contains(strings.Split(slowest, "\n")[0], "dominant phase: partition") {
		t.Fatalf("autopsy does not name partition as dominant for batch 1:\n%s", rep)
	}
}

func TestInternName(t *testing.T) {
	a := internName("pagerank-test")
	b := internName("pagerank-test")
	if a != b {
		t.Fatalf("interning twice gave %d and %d", a, b)
	}
	if got := nameOf(a); got != "pagerank-test" {
		t.Fatalf("nameOf(%d) = %q", a, got)
	}
	if got := nameOf(0); got != "" {
		t.Fatalf("nameOf(0) = %q, want empty", got)
	}
}

// TestTraceDisabledOverheadGuard is the contract check behind the "one
// atomic load when off" claim: a layer's Begin+End with both sinks off must
// cost nanoseconds, not microseconds. The 50ns/op budget is ~25x the
// expected cost, so the guard only trips on a real regression (a lock, an
// allocation, a clock read on the off path), not on CI noise.
func TestTraceDisabledOverheadGuard(t *testing.T) {
	prev := sinks.Load()
	sinks.Store(0)
	defer sinks.Store(prev)
	const iters = 1 << 22
	var sink int64
	start := time.Now()
	for i := 0; i < iters; i++ {
		sp := PhaseApply.Begin()
		sink += sp.Start()
		sp.End(0, uint64(i), 0, 1)
	}
	elapsed := time.Since(start)
	runtime.KeepAlive(sink)
	perOp := float64(elapsed.Nanoseconds()) / float64(iters)
	if perOp > overheadBudgetNs {
		t.Fatalf("disabled Begin+End costs %.1f ns/op, budget %d ns/op — the off path must stay one atomic load",
			perOp, overheadBudgetNs)
	}
	t.Logf("disabled Begin+End: %.2f ns/op over %d iterations", perOp, iters)
}

func TestModeAccessors(t *testing.T) {
	withMode(t, TraceSample, 10, 64)
	if m := CurrentTraceMode(); m != TraceSample {
		t.Fatalf("CurrentTraceMode = %v, want TraceSample", m)
	}
	if n := TraceSampleN(); n != 10 {
		t.Fatalf("TraceSampleN = %d, want 10", n)
	}
	if !Tracing() {
		t.Fatal("Tracing = false with TraceSample set")
	}
	// The trace mode and metric collection share one word; neither setter
	// may clobber the other.
	prev := Enabled()
	SetEnabled(true)
	defer SetEnabled(prev)
	if CurrentTraceMode() != TraceSample || !Enabled() {
		t.Fatal("SetEnabled changed the trace mode")
	}
	for _, p := range Phases() {
		if p.String() == "?" || p.Help() == "" {
			t.Fatalf("phase %d has no row in the table", p)
		}
	}
	_ = fmt.Sprintf("%s", PhaseApply) // Stringer works in formatting
}
