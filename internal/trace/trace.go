// Package trace is LSGraph's batch-lifecycle flight recorder: a set of
// lock-free ring buffers of typed span events covering the full life of an
// update batch — enqueue → coalesce → scatter → per-shard pack →
// partition → apply → snapshot publish → reclaim — plus kernel-run
// and view-pin spans. Each event carries the batch ID, owning shard, shard
// epoch, and edge count, so a slow batch or a p99 visibility-lag spike can
// be explained after the fact, which the aggregate counters and histograms
// of internal/obs cannot do.
//
// Like obs, the instrumentation stays compiled into every hot path
// permanently:
//
//   - when tracing is disabled (the default), an instrumented path pays one
//     atomic load (Start returns 0 and Span/Instant return immediately);
//   - when tracing is enabled, recording an event is one atomic add to
//     claim a ring slot plus a handful of atomic stores — no locks, no
//     allocation, no channels.
//
// Rings are flight recorders: a fixed number of slots per shard (plus one
// engine-level ring for events not owned by a shard, such as enqueue,
// scatter, kernel runs, and view pins), overwritten oldest-first. Export
// (Snapshot, WriteChrome, WriteAutopsy) reads the rings with a per-slot
// sequence check, skipping slots concurrently overwritten; a reader never
// blocks a writer.
//
// Sampling policy (SetMode):
//
//   - All: every event is recorded.
//   - Sample 1-in-N: only batches whose ID is a multiple of N are recorded
//     (events not attributed to a batch, like kernel runs, are always kept).
//   - Tail: everything is recorded into the rings, but WriteChrome exports
//     only the retained traces of batches whose enqueue-to-publish latency
//     exceeded a moving p99 estimate (BatchEnd feeds the estimator) — the
//     "keep only the interesting flights" policy.
//
// The exporters produce Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing) and a human-readable slow-batch autopsy report.
package trace

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies which stage of the batch lifecycle (or which non-batch
// activity) a span covers.
type Phase uint8

const (
	// PhaseEnqueue spans a Store enqueue call: scatter, vertex-space
	// reservation, and pushing every routed part onto its shard queue.
	PhaseEnqueue Phase = 1 + iota
	// PhaseCoalesce is an instant event: a batch was merged into an
	// already-queued same-op batch under backpressure instead of being
	// queued on its own.
	PhaseCoalesce
	// PhaseScatter spans routing a mixed batch to shards by source vertex.
	PhaseScatter
	// PhasePack spans endpoint validation + packing (src,dst) keys.
	PhasePack
	// PhasePartition spans splitting the packed keys into source ranges.
	PhasePartition
	// PhaseApply spans the workers taking the ranges through sort, dedup,
	// group discovery and apply.
	PhaseApply
	// PhasePublish spans flattening a shard into a snapshot and swapping it
	// in as the shard's new epoch.
	PhasePublish
	// PhaseReclaim spans recycling retired snapshots whose epoch drained.
	PhaseReclaim
	// PhaseKernel spans one analytics kernel run (Name carries the interned
	// kernel name).
	PhaseKernel
	// PhaseViewPin spans the lifetime of a composed view, pin to release.
	PhaseViewPin

	numPhases
)

var phaseNames = [numPhases]string{
	PhaseEnqueue:   "enqueue",
	PhaseCoalesce:  "coalesce",
	PhaseScatter:   "scatter",
	PhasePack:      "pack",
	PhasePartition: "partition",
	PhaseApply:     "apply",
	PhasePublish:   "publish",
	PhaseReclaim:   "reclaim",
	PhaseKernel:    "kernel",
	PhaseViewPin:   "viewpin",
}

// String returns the phase's lifecycle name ("enqueue", "apply", ...).
func (p Phase) String() string {
	if int(p) < len(phaseNames) && phaseNames[p] != "" {
		return phaseNames[p]
	}
	return "?"
}

// Mode is the tracing policy; see the package comment.
type Mode int32

const (
	// Off records nothing; instrumented paths cost one atomic load.
	Off Mode = iota
	// All records every event.
	All
	// Sample records only batches whose ID is a multiple of the configured
	// N (plus all non-batch events).
	Sample
	// Tail records everything but exports only retained traces of batches
	// slower than a moving p99 of enqueue-to-publish latency.
	Tail
)

var (
	mode    atomic.Int32
	sampleN atomic.Uint64

	// traceEpoch anchors the trace timeline; Now is monotonic nanoseconds
	// since it, so every event in one process shares one clock.
	traceEpoch = time.Now()

	// batchID hands out flight-recorder batch IDs; 0 means "not attributed
	// to a batch", so the counter starts at 1.
	batchID atomic.Uint64
)

// SetMode sets the tracing policy. n is the 1-in-N sampling divisor and is
// only meaningful with Sample (values < 1 are treated as 1, i.e. All).
// Events already recorded are retained across mode changes; Reset clears
// them.
func SetMode(m Mode, n int) {
	if n < 1 {
		n = 1
	}
	sampleN.Store(uint64(n))
	// Mode first, rings second: an EnsureShards racing with this either sees
	// the mode on and allocates its rings itself, or has already raised
	// wantRings for the ensureRings below. A recorder that gets in between
	// finds no rings and falls back through ringFor.
	mode.Store(int32(m))
	if m != Off {
		ensureRings(int(wantRings.Load()))
	}
}

// CurrentMode returns the active tracing policy.
func CurrentMode() Mode { return Mode(mode.Load()) }

// SampleN returns the configured 1-in-N sampling divisor.
func SampleN() int { return int(sampleN.Load()) }

// Enabled reports whether tracing is on in any mode.
func Enabled() bool { return mode.Load() != int32(Off) }

// Now returns nanoseconds since the process's trace-timeline origin
// (monotonic). It is always available, tracing on or off, so callers can
// compute durations for metrics even when no events are recorded.
func Now() int64 { return int64(time.Since(traceEpoch)) }

// Start returns the current trace timestamp if tracing is enabled and 0
// otherwise; pair it with Span, which ignores zero starts. The disabled
// path is one atomic load.
func Start() int64 {
	if mode.Load() == int32(Off) {
		return 0
	}
	return Now()
}

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
	Start int64  // ns since the trace-timeline origin
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

// DefaultRingCapacity is the per-ring slot count (1 MiB of events per ring
// at 64 B/slot is plenty for an autopsy window without mattering next to
// the graph itself).
const DefaultRingCapacity = 1 << 14

var (
	ringsMu      sync.Mutex
	ringCapacity = DefaultRingCapacity
	// rings[0] is the engine-level ring; shard s records into rings[s+1].
	// The slice is swapped atomically so recording never takes ringsMu.
	rings atomic.Pointer[[]*ring]
	// wantRings is the ring count the engines have asked for. Rings cost
	// 1 MiB each, so they are allocated when tracing is first enabled, not
	// when an engine is constructed: a process that never traces pays
	// nothing.
	wantRings atomic.Int32
)

// EnsureShards asks for per-shard rings for shard indexes [0, n). The
// engines call it at construction. The rings are allocated at once when
// tracing is on, otherwise by the SetMode that turns it on; recording with
// a shard index beyond the allocated count falls back to the engine-level
// ring.
func EnsureShards(n int) {
	for {
		cur := wantRings.Load()
		if int32(n+1) <= cur || wantRings.CompareAndSwap(cur, int32(n+1)) {
			break
		}
	}
	if Enabled() {
		ensureRings(n + 1)
	}
}

func ensureRings(n int) {
	if n < 1 {
		n = 1
	}
	if rs := rings.Load(); rs != nil && len(*rs) >= n {
		return
	}
	ringsMu.Lock()
	defer ringsMu.Unlock()
	old := rings.Load()
	if old != nil && len(*old) >= n {
		return
	}
	next := make([]*ring, n)
	if old != nil {
		copy(next, *old)
	}
	for i := range next {
		if next[i] == nil {
			next[i] = newRing(ringCapacity)
		}
	}
	rings.Store(&next)
}

// ringFor routes an event to its shard's ring, falling back to the
// engine-level ring for shard -1 or unconfigured shard indexes.
func ringFor(shard int) *ring {
	rs := rings.Load()
	if rs == nil {
		ensureRings(int(wantRings.Load()))
		rs = rings.Load()
	}
	i := shard + 1
	if i < 1 || i >= len(*rs) {
		i = 0
	}
	return (*rs)[i]
}

// sampled reports whether an event attributed to batch should be recorded
// under the current mode. Non-batch events (batch 0) are always kept: they
// are rare and provide the context spans (kernels, view pins).
func sampled(batch uint64) bool {
	switch Mode(mode.Load()) {
	case All, Tail:
		return true
	case Sample:
		return batch == 0 || batch%sampleN.Load() == 0
	default:
		return false
	}
}

// Span records a completed span that began at start (a Start result).
// A zero start — tracing was off at span begin — records nothing, so the
// disabled path costs only Start's atomic load.
func Span(ph Phase, shard int, batch, epoch uint64, edges uint64, start int64) {
	SpanNamed(ph, shard, batch, epoch, edges, 0, start)
}

// SpanNamed is Span with an interned label (InternName) attached; the
// exporters use the label as the event name (e.g. a kernel's name).
func SpanNamed(ph Phase, shard int, batch, epoch uint64, edges uint64, name uint32, start int64) {
	if start == 0 || mode.Load() == int32(Off) || !sampled(batch) {
		return
	}
	ringFor(shard).record(Event{
		Batch: batch, Epoch: epoch, Shard: shard, Phase: ph,
		Name: name, Edges: edges, Start: start, Dur: Now() - start,
	})
}

// Instant records a zero-duration event (e.g. a coalesce) at the current
// time.
func Instant(ph Phase, shard int, batch uint64, edges uint64) {
	if mode.Load() == int32(Off) || !sampled(batch) {
		return
	}
	ringFor(shard).record(Event{
		Batch: batch, Shard: shard, Phase: ph, Edges: edges, Start: Now(),
	})
}

// Snapshot returns every currently readable event across all rings, in
// start-time order. Slots being concurrently rewritten are skipped.
func Snapshot() []Event {
	rs := rings.Load()
	if rs == nil {
		return nil
	}
	var out []Event
	for _, r := range *rs {
		out = r.collect(out)
	}
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

// InternName registers a label (typically at package init) and returns its
// ID for SpanNamed. Interning the same string twice returns the same ID.
func InternName(s string) uint32 {
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

// NameOf returns the label interned under id ("" for 0 or unknown IDs).
func NameOf(id uint32) string {
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
// warmup) has its events copied out of the rings and retained; in every
// other mode this is a no-op beyond the mode check.
func BatchEnd(batch uint64, lagNs int64) {
	if Mode(mode.Load()) != Tail || lagNs < 0 {
		return
	}
	tailMu.Lock()
	defer tailMu.Unlock()
	slow := tail.total >= tailWarmup && tail.count > 0 &&
		float64(lagNs) > bucketQuantile(tail.buckets[:], tail.count, 0.99)
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
	for i := range tail.kept {
		if tail.kept[i].Batch == batch {
			return // a multi-shard batch completes once per shard
		}
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
	rs := rings.Load()
	if rs == nil {
		return nil
	}
	var scratch, out []Event
	for _, r := range *rs {
		scratch = r.collect(scratch[:0])
		for _, ev := range scratch {
			if ev.Batch == batch {
				out = append(out, ev)
			}
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

// bucketQuantile estimates the q-quantile of a log2-bucketed histogram by
// linear interpolation inside the bucket containing the target rank (the
// same estimator internal/obs exposes on its histograms).
func bucketQuantile(buckets []uint64, count uint64, q float64) float64 {
	if count == 0 {
		return 0
	}
	rank := q * float64(count)
	cum := 0.0
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if cum+fc >= rank {
			var lo, hi float64
			if i > 0 {
				lo = float64(uint64(1) << (i - 1))
				hi = float64(uint64(1) << i)
			}
			return lo + (hi-lo)*(rank-cum)/fc
		}
		cum += fc
	}
	return float64(uint64(1) << (len(buckets) - 1))
}

// Reset drops every recorded event and retained trace and resizes the
// rings to capacity slots each (0 keeps the current capacity). Intended
// for tests; racing Reset with concurrent recording loses events but is
// memory-safe.
func Reset(capacity int) {
	ringsMu.Lock()
	if capacity > 0 {
		ringCapacity = capacity
	}
	if old := rings.Load(); old != nil {
		next := make([]*ring, len(*old))
		for i := range next {
			next[i] = newRing(ringCapacity)
		}
		rings.Store(&next)
	}
	ringsMu.Unlock()
	tailMu.Lock()
	tail.buckets = [64]uint64{}
	tail.count, tail.total = 0, 0
	tail.kept = nil
	tailMu.Unlock()
}
