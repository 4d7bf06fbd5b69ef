package obs

import "testing"

// TestRingsAllocatedOnFirstEnable checks that an engine asking for shard
// rings costs nothing while tracing is off (the rings are 1 MiB each), that
// turning tracing on allocates exactly what was asked for, and that a
// recorder that slips in between the mode flip and the allocation falls
// back safely.
func TestRingsAllocatedOnFirstEnable(t *testing.T) {
	// The recorder is process-global: start from the never-enabled state
	// and put everything back afterwards.
	oldRings, oldWant, oldSinks := rings.Load(), wantRings.Load(), sinks.Load()
	t.Cleanup(func() {
		rings.Store(oldRings)
		wantRings.Store(oldWant)
		sinks.Store(oldSinks)
	})
	rings.Store(nil)
	wantRings.Store(0)
	sinks.Store(0)

	EnsureRings(3)
	PhaseApply.Begin().End(2, 1, 0, 10)
	Instant(PhaseCoalesce, 2, 1, 10)
	if rings.Load() != nil {
		t.Fatal("rings allocated with tracing off")
	}
	if len(Events()) != 0 {
		t.Fatal("events recorded with tracing off")
	}

	// The window inside SetTraceMode: mode already on, rings not yet there.
	sinks.Store(uint32(TraceAll) << 1)
	PhaseApply.Begin().End(2, 1, 0, 10)
	if rs := rings.Load(); rs == nil || len(*rs) != 4 {
		t.Fatalf("fallback allocated %v rings, want 4 (engine + 3 shards)", rs)
	}
	if evs := Events(); len(evs) != 1 || evs[0].Shard != 2 {
		t.Fatalf("fallback recorded %+v, want one shard-2 event", evs)
	}

	// A larger engine constructed while tracing is on gets its rings at once.
	EnsureRings(5)
	if rs := rings.Load(); len(*rs) != 6 {
		t.Fatalf("%d rings after EnsureRings(5) with tracing on, want 6", len(*rs))
	}

	// And the ordinary path: enable after construction.
	rings.Store(nil)
	sinks.Store(0)
	SetTraceMode(TraceAll, 1)
	if rs := rings.Load(); rs == nil || len(*rs) != 6 {
		t.Fatalf("SetTraceMode allocated %v rings, want 6", rs)
	}
}
