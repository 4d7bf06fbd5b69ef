package obs

// The flight recorder: a lock-free ring buffer of typed span events covering
// the life of an update batch — enqueue → coalesce → scatter → per-shard
// pack → partition → apply → snapshot publish → reclaim — plus boundary
// moves, kernel runs and view pins. Each event carries the batch ID, owning
// shard, shard epoch and edge count, so a slow batch or a p99
// visibility-lag spike can be explained after the fact, which aggregate
// histograms cannot do.
//
// The ring is a flight recorder: a fixed number of slots shared by every
// shard and engine-level event, overwritten oldest-first. Recording an
// event is one atomic add to claim a slot plus a handful of atomic stores.
// Export (Events, WriteChrome, WriteAutopsy) reads the ring with a per-slot
// sequence check, skipping slots concurrently overwritten; a reader never
// blocks a writer.

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// TraceMode is the flight recorder's sampling policy.
type TraceMode int32

const (
	// TraceOff records nothing; instrumented paths cost one atomic load.
	TraceOff TraceMode = iota
	// TraceAll records every event.
	TraceAll
	// TraceSample records only batches whose ID is a multiple of the
	// configured N, plus every event not attributed to a batch (kernel
	// runs, view pins).
	TraceSample
	// TraceTail records everything, but the exporters see only the retained
	// traces of batches slower than a moving p99 of enqueue-to-publish
	// latency (BatchEnd feeds the estimator): the "keep only the
	// interesting flights" policy.
	TraceTail
)

var (
	sampleN atomic.Uint64

	// batchID hands out flight-recorder batch IDs; 0 means "not attributed
	// to a batch", so the counter starts at 1.
	batchID atomic.Uint64
)

// SetTraceMode sets the tracing policy. n is the 1-in-N sampling divisor and
// is only meaningful with TraceSample (values < 1 are treated as 1, i.e.
// TraceAll). Events already recorded are retained across mode changes.
func SetTraceMode(m TraceMode, n int) {
	if n < 1 {
		n = 1
	}
	sampleN.Store(uint64(n))
	// The ring before the mode: a recorder that sees the mode on finds it.
	if m != TraceOff {
		allocRing()
	}
	updateSinks(func(s uint32) uint32 { return s&metricsOn | uint32(m)<<1 })
}

// CurrentTraceMode returns the active tracing policy.
func CurrentTraceMode() TraceMode { return TraceMode(sinks.Load() >> 1) }

// TraceSampleN returns the configured 1-in-N sampling divisor.
func TraceSampleN() int { return int(sampleN.Load()) }

// Tracing reports whether tracing is on in any mode.
func Tracing() bool { return sinks.Load()>>1 != 0 }

// NextBatchID returns a fresh flight-recorder batch ID (never 0).
func NextBatchID() uint64 { return batchID.Add(1) }

// Event is one recorded span or instant event, decoded from a ring slot.
type Event struct {
	Batch uint64 // flight-recorder batch ID; 0 = not batch-attributed
	Epoch uint64 // shard epoch published, when known
	Shard int    // owning shard; -1 = engine-level
	Phase Phase
	Name  uint32 // interned label (kernel name), 0 = none
	Edges uint64 // edge count the span covered
	Start int64  // Now at the event
	Dur   int64  // ns; 0 for instant events
}

// ---------------------------------------------------------------------------
// Ring storage

// slot is one ring entry. Every field is atomic so concurrent export reads
// race-safely against writers; seq validates logical consistency (it is
// cleared before the fields are rewritten and set to the claim ticket
// afterwards, so a reader seeing the same non-zero seq before and after
// reading the fields got a coherent event). The eight words fill one cache
// line.
type slot struct {
	seq   atomic.Uint64
	batch atomic.Uint64
	epoch atomic.Uint64
	meta  atomic.Uint64 // shard(int16)<<48 | phase<<40 | name(uint32)
	edges atomic.Uint64
	start atomic.Int64
	dur   atomic.Int64
	_     [8]byte
}

func packMeta(shard int, ph Phase, name uint32) uint64 {
	return uint64(uint16(int16(shard)))<<48 | uint64(ph)<<40 | uint64(name)
}

func (s *slot) store(ticket uint64, ev Event) {
	s.seq.Store(0)
	s.batch.Store(ev.Batch)
	s.epoch.Store(ev.Epoch)
	s.meta.Store(packMeta(ev.Shard, ev.Phase, ev.Name))
	s.edges.Store(ev.Edges)
	s.start.Store(ev.Start)
	s.dur.Store(ev.Dur)
	s.seq.Store(ticket)
}

// load decodes the slot; ok is false for empty or concurrently rewritten
// slots.
func (s *slot) load() (Event, bool) {
	q := s.seq.Load()
	if q == 0 {
		return Event{}, false
	}
	meta := s.meta.Load()
	ev := Event{
		Batch: s.batch.Load(),
		Epoch: s.epoch.Load(),
		Shard: int(int16(uint16(meta >> 48))),
		Phase: Phase(meta >> 40 & 0xff),
		Name:  uint32(meta),
		Edges: s.edges.Load(),
		Start: s.start.Load(),
		Dur:   s.dur.Load(),
	}
	if s.seq.Load() != q {
		return Event{}, false
	}
	return ev, true
}

// ring is one fixed-capacity flight-recorder buffer. Writers claim slots
// with one atomic add and overwrite oldest-first; a full wrap while another
// writer still holds the same slot can produce one torn event, which the
// seq check discards at read time — a deliberate flight-recorder trade:
// recording never blocks and never allocates.
type ring struct {
	next  atomic.Uint64
	mask  uint64
	slots []slot
}

func newRing(capacity int) *ring {
	if capacity < 2 {
		capacity = 2
	}
	// Round up to a power of two so claiming can mask instead of mod.
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &ring{mask: uint64(c - 1), slots: make([]slot, c)}
}

func (r *ring) record(ev Event) {
	t := r.next.Add(1)
	r.slots[(t-1)&r.mask].store(t, ev)
}

func (r *ring) collect(dst []Event) []Event {
	for i := range r.slots {
		if ev, ok := r.slots[i].load(); ok {
			dst = append(dst, ev)
		}
	}
	return dst
}

// defaultRingCapacity is the ring's slot count: 4 MiB of events at
// 64 B/slot, the total of the engine-level and per-shard rings of 1<<14
// slots each that it replaced for a two-shard Store, rounded up to a power
// of two. That is plenty for an autopsy window without mattering next to
// the graph itself.
const defaultRingCapacity = 1 << 16

var (
	ringMu       sync.Mutex
	ringCapacity = defaultRingCapacity
	// theRing is allocated when tracing is first enabled, not before, so a
	// process that never traces pays nothing for it; it is swapped
	// atomically so recording never takes ringMu.
	theRing atomic.Pointer[ring]
)

// allocRing allocates the ring unless it exists.
func allocRing() {
	ringMu.Lock()
	defer ringMu.Unlock()
	if theRing.Load() == nil {
		theRing.Store(newRing(ringCapacity))
	}
}

// record files ev in the ring if mode m keeps its batch. Non-batch events
// (batch 0) are always kept: they are rare and provide the context spans
// (kernels, view pins).
func record(m TraceMode, ev Event) {
	if m == TraceOff || m == TraceSample && ev.Batch != 0 && ev.Batch%sampleN.Load() != 0 {
		return
	}
	if r := theRing.Load(); r != nil {
		r.record(ev)
	}
}

// Instant records a zero-duration event (a coalesce) at the current time.
func Instant(ph Phase, shard int, batch uint64, edges uint64) {
	if m := CurrentTraceMode(); m != TraceOff {
		record(m, Event{Batch: batch, Shard: shard, Phase: ph, Edges: edges, Start: Now()})
	}
}

// Events returns every currently readable event in the ring, in
// start-time order. Slots being concurrently rewritten are skipped.
func Events() []Event {
	r := theRing.Load()
	if r == nil {
		return nil
	}
	out := r.collect(nil)
	sortEvents(out)
	return out
}

// sortEvents orders events by start time; export is cold, stdlib sort is
// fine.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
}

// ---------------------------------------------------------------------------
// Interned event labels

var (
	nameMu  sync.Mutex
	names   = []string{""} // id 0 = none
	nameIDs = map[string]uint32{}
)

// internName registers a label (a kernel's name, at package init) and
// returns its ID. Interning the same string twice returns the same ID.
func internName(s string) uint32 {
	nameMu.Lock()
	defer nameMu.Unlock()
	if id, ok := nameIDs[s]; ok {
		return id
	}
	id := uint32(len(names))
	names = append(names, s)
	nameIDs[s] = id
	return id
}

// nameOf returns the label interned under id ("" for 0 or unknown IDs).
func nameOf(id uint32) string {
	nameMu.Lock()
	defer nameMu.Unlock()
	if int(id) < len(names) {
		return names[id]
	}
	return ""
}

// ---------------------------------------------------------------------------
// Tail-triggered retention

// BatchTrace is one retained full trace of a slow batch.
type BatchTrace struct {
	Batch  uint64
	LagNs  int64 // the enqueue-to-publish latency that triggered retention
	Events []Event
}

const (
	// tailWarmup is how many batch completions the moving-p99 estimator
	// needs before retention triggers (a cold estimator would retain
	// everything).
	tailWarmup = 32
	// tailKeepMax bounds the retained slow-batch traces, oldest evicted.
	tailKeepMax = 32
	// tailDecayEvery halves the latency histogram this often, so the p99
	// tracks the recent workload instead of the whole process lifetime.
	tailDecayEvery = 4096
)

var tailMu sync.Mutex

var tail struct {
	buckets [64]uint64 // log2-bucketed enqueue-to-publish latencies
	count   uint64
	total   uint64 // completions since start (not decayed; drives warmup)
	kept    []BatchTrace
}

// BatchEnd reports a batch's enqueue-to-publish latency to the tail
// estimator. In Tail mode, a batch slower than the moving p99 (after
// warmup) has its events copied out of the ring and retained; in every
// other mode this is a no-op beyond the mode check.
func BatchEnd(batch uint64, lagNs int64) {
	if CurrentTraceMode() != TraceTail || lagNs < 0 {
		return
	}
	tailMu.Lock()
	defer tailMu.Unlock()
	slow := tail.total >= tailWarmup && tail.count > 0 &&
		float64(lagNs) > BucketQuantile(tail.buckets[:], tail.count, 0.99)
	b := bits.Len64(uint64(lagNs))
	if b >= len(tail.buckets) {
		b = len(tail.buckets) - 1
	}
	tail.buckets[b]++
	tail.count++
	tail.total++
	if tail.total%tailDecayEvery == 0 {
		var c uint64
		for i := range tail.buckets {
			tail.buckets[i] /= 2
			c += tail.buckets[i]
		}
		tail.count = c
	}
	if !slow || batch == 0 {
		return
	}
	evs := snapshotBatch(batch)
	if len(evs) == 0 {
		return
	}
	if len(tail.kept) >= tailKeepMax {
		copy(tail.kept, tail.kept[1:])
		tail.kept = tail.kept[:tailKeepMax-1]
	}
	tail.kept = append(tail.kept, BatchTrace{Batch: batch, LagNs: lagNs, Events: evs})
}

// snapshotBatch copies every ring event attributed to batch.
func snapshotBatch(batch uint64) []Event {
	r := theRing.Load()
	if r == nil {
		return nil
	}
	var out []Event
	for _, ev := range r.collect(nil) {
		if ev.Batch == batch {
			out = append(out, ev)
		}
	}
	sortEvents(out)
	return out
}

// RetainedTraces returns the tail-mode retained slow-batch traces, oldest
// first.
func RetainedTraces() []BatchTrace {
	tailMu.Lock()
	defer tailMu.Unlock()
	out := make([]BatchTrace, len(tail.kept))
	copy(out, tail.kept)
	return out
}

// resetTrace drops every recorded event and retained trace and resizes the
// ring to capacity slots (0 keeps the current capacity). Tests use it;
// racing it with concurrent recording loses events but is memory-safe.
func resetTrace(capacity int) {
	ringMu.Lock()
	if capacity > 0 {
		ringCapacity = capacity
	}
	if theRing.Load() != nil {
		theRing.Store(newRing(ringCapacity))
	}
	ringMu.Unlock()
	tailMu.Lock()
	tail.buckets = [64]uint64{}
	tail.count, tail.total = 0, 0
	tail.kept = nil
	tailMu.Unlock()
}
