package obs

import "testing"

// TestRingsAllocatedOnFirstEnable checks that the flight recorder costs
// nothing while tracing is off (its ring is 4 MiB): spans and instants
// record nothing and allocate no ring, a recorder that finds the mode on
// but no ring drops its event, and turning tracing on allocates the one
// ring, which every shard's events share.
func TestRingsAllocatedOnFirstEnable(t *testing.T) {
	// The recorder is process-global: start from the never-enabled state
	// and put everything back afterwards.
	oldRing, oldSinks := theRing.Load(), sinks.Load()
	t.Cleanup(func() {
		theRing.Store(oldRing)
		sinks.Store(oldSinks)
	})
	theRing.Store(nil)
	sinks.Store(0)

	PhaseApply.Begin().End(2, 1, 0, 10)
	Instant(PhaseCoalesce, 2, 1, 10)
	if theRing.Load() != nil {
		t.Fatal("ring allocated with tracing off")
	}
	if len(Events()) != 0 {
		t.Fatal("events recorded with tracing off")
	}

	// The mode set without the ring, as SetTraceMode never leaves it: the
	// event is dropped, nothing is allocated behind the setter's back.
	sinks.Store(uint32(TraceAll) << 1)
	PhaseApply.Begin().End(2, 1, 0, 10)
	if theRing.Load() != nil || len(Events()) != 0 {
		t.Fatal("a recorder allocated the ring itself")
	}

	// The ordinary path: enabling allocates the ring, whose capacity is a
	// power of two, and events of every shard land in it.
	sinks.Store(0)
	SetTraceMode(TraceAll, 1)
	r := theRing.Load()
	if r == nil || len(r.slots) != ringCapacity || ringCapacity&(ringCapacity-1) != 0 {
		t.Fatalf("SetTraceMode allocated %v, want one ring of %d slots", r, ringCapacity)
	}
	PhaseApply.Begin().End(2, 1, 0, 10)
	PhaseApply.Begin().End(-1, 1, 0, 10)
	if evs := Events(); len(evs) != 2 || evs[0].Shard+evs[1].Shard != 1 {
		t.Fatalf("recorded %+v, want one shard-2 and one engine-level event", evs)
	}
	SetTraceMode(TraceOff, 1)
	SetTraceMode(TraceAll, 1)
	if theRing.Load() != r {
		t.Fatal("re-enabling tracing replaced the ring")
	}
}
