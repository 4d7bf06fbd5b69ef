package trace

import "testing"

// TestRingsAllocatedOnFirstEnable checks that an engine asking for shard
// rings costs nothing while tracing is off (the rings are 1 MiB each), that
// turning tracing on allocates exactly what was asked for, and that a
// recorder that slips in between the mode flip and the allocation falls
// back safely.
func TestRingsAllocatedOnFirstEnable(t *testing.T) {
	// The recorder is process-global: start from the never-enabled state
	// and put everything back afterwards.
	oldRings, oldWant, oldMode := rings.Load(), wantRings.Load(), mode.Load()
	t.Cleanup(func() {
		rings.Store(oldRings)
		wantRings.Store(oldWant)
		mode.Store(oldMode)
	})
	rings.Store(nil)
	wantRings.Store(0)
	mode.Store(int32(Off))

	EnsureShards(3)
	Span(PhaseApply, 2, 1, 0, 10, Now())
	Instant(PhaseCoalesce, 2, 1, 10)
	if rings.Load() != nil {
		t.Fatal("rings allocated with tracing off")
	}
	if len(Snapshot()) != 0 {
		t.Fatal("events recorded with tracing off")
	}

	// The window inside SetMode: mode already on, rings not yet there.
	mode.Store(int32(All))
	Span(PhaseApply, 2, 1, 0, 10, Now())
	if rs := rings.Load(); rs == nil || len(*rs) != 4 {
		t.Fatalf("fallback allocated %v rings, want 4 (engine + 3 shards)", rs)
	}
	if evs := Snapshot(); len(evs) != 1 || evs[0].Shard != 2 {
		t.Fatalf("fallback recorded %+v, want one shard-2 event", evs)
	}

	// A larger engine constructed while tracing is on gets its rings at once.
	EnsureShards(5)
	if rs := rings.Load(); len(*rs) != 6 {
		t.Fatalf("%d rings after EnsureShards(5) with tracing on, want 6", len(*rs))
	}

	// And the ordinary path: enable after construction.
	rings.Store(nil)
	mode.Store(int32(Off))
	SetMode(All, 1)
	if rs := rings.Load(); rs == nil || len(*rs) != 6 {
		t.Fatalf("SetMode allocated %v rings, want 6", rs)
	}
}
