package obs

import "time"

// Phase names one layer of the engine: the name of its trace events and the
// phase label of its lsgraph_phase_nanos series, one string for both.
type Phase uint8

// The phases, in lifecycle order; the phases table says what each covers.
const (
	PhaseEnqueue  Phase = 1 + iota
	PhaseCoalesce       // the one instant, not a span
	PhaseScatter
	PhasePack
	PhasePartition
	PhaseApply
	PhasePublish
	PhaseReclaim
	PhaseRebalance
	PhaseKernel // one layer per kernel (KernelLayer)
	PhaseViewPin

	numPhases
)

// phases is the table of every layer the engine records, in lifecycle
// order: its name and what one of its spans covers.
var phases = [numPhases]struct{ name, help string }{
	PhaseEnqueue:   {"enqueue", "a Store enqueue call: the copy of the batch, vertex-space reservation, the WAL append and the push onto the queue"},
	PhaseCoalesce:  {"coalesce", "an instant: a batch merged into the same-op batch queued ahead of it, under backpressure or by the writer"},
	PhaseScatter:   {"scatter", "the writer routing a batch to shards by source vertex, by their current ranges"},
	PhasePack:      {"pack", "validating a shard batch's endpoints and packing its (src,dst) keys"},
	PhasePartition: {"partition", "splitting the packed keys into source ranges"},
	PhaseApply:     {"apply", "the workers taking the ranges through sort, dedup, grouping and apply"},
	PhasePublish:   {"publish", "sealing a shard's table as its next snapshot"},
	PhaseReclaim:   {"reclaim", "recycling retired snapshots whose epoch drained"},
	PhaseRebalance: {"rebalance", "one boundary move or rebalance on the writer: its splices, one republish of each touched shard, the epoch install"},
	PhaseKernel:    {"kernel", "one analytics kernel run; the kernel label names it"},
	PhaseViewPin:   {"viewpin", "a view's lifetime, pin to release; long pins delay snapshot reclamation"},
}

// String returns the phase's name ("enqueue", "apply", ...).
func (p Phase) String() string {
	if p < numPhases && phases[p].name != "" {
		return phases[p].name
	}
	return "?"
}

// Help returns what one event of the phase covers.
func (p Phase) Help() string { return phases[p].help }

// Phases returns every phase of the table, in lifecycle order.
func Phases() []Phase {
	ps := make([]Phase, 0, numPhases-1)
	for p := PhaseEnqueue; p < numPhases; p++ {
		ps = append(ps, p)
	}
	return ps
}

// origin anchors the one clock every span reads; Now is monotonic
// nanoseconds since it.
var origin = time.Now()

// Now returns monotonic nanoseconds since process start: the timeline of
// every span and trace event, and the clock instrumentation reads.
func Now() int64 { return int64(time.Since(origin)) }

// Layer is one timed layer: the phase its trace events carry and the
// lsgraph_phase_nanos series its spans observe.
type Layer struct {
	phase Phase
	name  uint32 // interned kernel name; 0 for a lifecycle phase
	hist  *Histogram
}

// layers holds each lifecycle phase's layer. The kernel phase has one layer
// per kernel instead, and coalesce, an instant, none.
var layers = func() (ls [numPhases]*Layer) {
	for p := PhaseEnqueue; p < numPhases; p++ {
		if p != PhaseCoalesce && p != PhaseKernel {
			ls[p] = newLayer(p, "")
		}
	}
	return ls
}()

func newLayer(p Phase, kernel string) *Layer {
	l := &Layer{phase: p}
	labels := Label("phase", p.String())
	if kernel != "" {
		l.name = internName(kernel)
		labels += "," + Label("kernel", kernel)
	}
	l.hist = NewHistogram("lsgraph_phase_nanos", labels, "ns",
		"wall time of one span of an engine layer, by phase (lsbench -exp trace lists the layers)")
	return l
}

// KernelLayer registers one analytics kernel's layer: its spans are
// "kernel:<name>" trace events and observe
// lsgraph_phase_nanos{phase="kernel",kernel="<name>"}. Call it once per
// kernel, at package init.
func KernelLayer(kernel string) *Layer { return newLayer(PhaseKernel, kernel) }

// Begin opens a span of phase p's layer.
func (p Phase) Begin() Span { return layers[p].Begin() }

// Begin opens a span of the layer: one atomic load, and one clock read if
// metrics or tracing is on.
func (l *Layer) Begin() Span {
	on := sinks.Load()
	if on == 0 {
		return Span{}
	}
	return Span{l: l, start: Now(), on: on}
}

// Span is one open measurement of a layer. It is a value: pass it along
// or store it until End.
type Span struct {
	l     *Layer
	start int64  // Now at Begin; 0 when no sink was on
	on    uint32 // the sink word at Begin
}

// End closes the span with one more clock read. The duration goes to the
// layer's histogram if metrics were on at Begin, and to a ring event —
// attributed to shard, -1 for the engine level — if tracing was and keeps
// batch; the two sinks get the same number.
func (s Span) End(shard int, batch, epoch, edges uint64) {
	if s.on != 0 {
		s.end(shard, batch, epoch, edges)
	}
}

func (s Span) end(shard int, batch, epoch, edges uint64) {
	d := Now() - s.start
	if s.Metrics() {
		s.l.hist.Observe(uint64(d))
	}
	if m := TraceMode(s.on >> 1); m != TraceOff {
		record(m, Event{
			Batch: batch, Epoch: epoch, Shard: shard, Phase: s.l.phase,
			Name: s.l.name, Edges: edges, Start: s.start, Dur: d,
		})
	}
}

// On reports whether any sink was on at Begin.
func (s Span) On() bool { return s.on != 0 }

// Metrics reports whether metric collection was on at Begin.
func (s Span) Metrics() bool { return s.on&metricsOn != 0 }

// Traced reports whether tracing was on at Begin.
func (s Span) Traced() bool { return s.on>>1 != 0 }

// Start returns the span's start on the Now timeline; 0 when no sink was
// on at Begin.
func (s Span) Start() int64 { return s.start }
