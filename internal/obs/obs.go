// Package obs is LSGraph's one instrumentation package: a stdlib-only
// metrics registry — sharded counters, gauges and log-scaled histograms with
// Prometheus-text and JSON exporters — and a flight recorder of per-batch
// span events in a lock-free ring, exported as Chrome trace-event JSON and a
// slow-batch autopsy (recorder.go). One HTTP handler serves both (http.go).
//
// Both sinks sit behind one atomic word, so instrumentation stays compiled
// into every hot path: while both are off a site pays one atomic load; while
// one is on, recording is an atomic add on a cache-line-padded shard or a
// ring slot — no locks, no allocation, no map lookups. The registry mutex is
// taken only at registration and export.
//
// A timed layer is declared once, in the phase table (layer.go), and timed
// by one span, which reads the clock once at each end and feeds whichever
// sinks were on when it began — the layer's lsgraph_phase_nanos series and
// its ring event:
//
//	sp := obs.PhasePack.Begin()
//	... work ...
//	sp.End(shard, batch, epoch, edges)
//
// Counters and gauges are package-level vars registered at init; hot paths
// gate them on Enabled:
//
//	var mEdges = obs.NewCounter("lsgraph_edges_total", `op="insert"`, "edges added")
//
//	if obs.Enabled() {
//	    mEdges.Add(n)
//	}
//
// A count that something already keeps — a Store's atomics, a
// runtime/metrics sample — is not copied into a Counter: NewFunc registers a
// callback the registry calls at export, so it costs nothing between scrapes
// and is exported whether or not collection is on.
package obs

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// sinks is the one word every instrumented site loads: bit 0 is metric
// collection (metricsOn), the bits above it the trace mode. A site that
// finds it zero skips all instrumentation.
var sinks atomic.Uint32

const metricsOn = 1

// updateSinks applies f to the sink word atomically.
func updateSinks(f func(uint32) uint32) {
	for {
		old := sinks.Load()
		if sinks.CompareAndSwap(old, f(old)) {
			return
		}
	}
}

// Enabled reports whether metric collection is on.
func Enabled() bool { return sinks.Load()&metricsOn != 0 }

// SetEnabled turns metric collection on or off. Metrics recorded while
// enabled are retained across toggles.
func SetEnabled(on bool) {
	updateSinks(func(s uint32) uint32 {
		if on {
			return s | metricsOn
		}
		return s &^ metricsOn
	})
}

// metric is the export-side interface every metric kind implements.
type metric interface {
	meta() *desc
	// promLines appends one "name{labels} value" line per exported series.
	promLines(dst []string) []string
	// snapshotValue returns the metric's JSON-ready value.
	snapshotValue() any
}

// desc is the registration metadata shared by all metric kinds.
type desc struct {
	name   string // Prometheus metric name, e.g. "lsgraph_edges_total"
	labels string // literal label list without braces, e.g. `op="insert"`, may be ""
	help   string
	typ    string // "counter" | "gauge" | "histogram"
}

func (d *desc) meta() *desc { return d }

// exportName is the metric name used in the Prometheus exposition: the
// format convention requires counters to carry a _total suffix, so one is
// appended for counters registered without it. JSON snapshots keep the
// registered name.
func (d *desc) exportName() string {
	if d.typ == "counter" && !strings.HasSuffix(d.name, "_total") {
		return d.name + "_total"
	}
	return d.name
}

// series renders the metric name with its label set, with extra labels
// appended (extra may be empty).
func (d *desc) series(extra string) string {
	l := d.labels
	if extra != "" {
		if l != "" {
			l += "," + extra
		} else {
			l = extra
		}
	}
	if l == "" {
		return d.name
	}
	return d.name + "{" + l + "}"
}

// Registry holds a set of metrics. The zero value is not usable; use
// NewRegistry. Most code uses the package-level Default registry through
// NewCounter / NewGauge / NewHistogram.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byKey   map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]struct{}{}}
}

// Default is the registry all package-level engine metrics register into.
var Default = NewRegistry()

func (r *Registry) register(m metric) {
	d := m.meta()
	key := d.series("")
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byKey[key]; dup {
		panic("obs: duplicate metric " + key)
	}
	r.byKey[key] = struct{}{}
	r.metrics = append(r.metrics, m)
}

// sorted returns the metrics ordered by (name, labels) so exporters can
// group series of one name under a single HELP/TYPE header.
func (r *Registry) sorted() []metric {
	r.mu.Lock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i].meta(), ms[j].meta()
		if a.name != b.name {
			return a.name < b.name
		}
		return a.labels < b.labels
	})
	return ms
}

// ---------------------------------------------------------------------------
// Counter

// cacheLine is the assumed cache-line size; shards are padded to it so two
// workers bumping adjacent shards never write the same line.
const cacheLine = 64

type counterShard struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// numShards is the per-counter shard count: the next power of two at or
// above GOMAXPROCS (floor 8, since GOMAXPROCS may be raised after package
// init), so AddShard can mask instead of mod.
var numShards = func() int {
	n := 8
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	return n
}()

// Counter is a monotonically increasing counter, sharded across padded
// cache lines so concurrent workers do not contend on one word.
type Counter struct {
	desc
	shards    []counterShard
	perWorker bool // export one series per shard, labelled worker="i", instead of a sum
}

// NewCounter registers a counter in Default. labels is a literal Prometheus
// label list without braces (e.g. `op="insert"`), or "".
func NewCounter(name, labels, help string) *Counter {
	return NewCounterIn(Default, name, labels, help)
}

// NewCounterIn registers a counter in r.
func NewCounterIn(r *Registry, name, labels, help string) *Counter {
	c := &Counter{
		desc:   desc{name: name, labels: labels, help: help, typ: "counter"},
		shards: make([]counterShard, numShards),
	}
	r.register(c)
	return c
}

// NewPerWorkerCounter registers a counter whose shards are exported as
// separate series labelled worker="i" (zero shards are skipped); shard w is
// worker w's private slot via AddShard. Value still returns the sum.
func NewPerWorkerCounter(name, labels, help string) *Counter {
	c := NewCounter(name, labels, help)
	c.perWorker = true
	return c
}

// shardHint derives a cheap, goroutine-correlated shard index from the
// address of a stack variable. Distinct goroutines run on distinct stacks,
// so concurrent callers spread across shards; collisions merely cost a
// shared atomic add, never correctness. The pointer does not escape (it is
// reduced to an integer immediately), so this does not allocate.
func shardHint() int {
	var b byte
	return int(uintptr(unsafe.Pointer(&b)) >> 9)
}

// Add adds n, picking a shard by goroutine-correlated hint.
func (c *Counter) Add(n uint64) {
	c.shards[shardHint()&(len(c.shards)-1)].v.Add(n)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// AddShard adds n to worker w's shard. Use from worker loops that know
// their index: it is deterministic and contention-free.
func (c *Counter) AddShard(w int, n uint64) {
	c.shards[w&(len(c.shards)-1)].v.Add(n)
}

// Value returns the counter's current total across shards.
func (c *Counter) Value() uint64 {
	var t uint64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

func (c *Counter) promLines(dst []string) []string {
	// Export under the _total-suffixed name the exposition format requires.
	d := c.desc
	d.name = c.exportName()
	if c.perWorker {
		for i := range c.shards {
			if v := c.shards[i].v.Load(); v != 0 {
				dst = append(dst, fmt.Sprintf("%s %d", d.series(fmt.Sprintf(`worker="%d"`, i)), v))
			}
		}
		if len(dst) == 0 {
			dst = append(dst, fmt.Sprintf("%s 0", d.series("")))
		}
		return dst
	}
	return append(dst, fmt.Sprintf("%s %d", d.series(""), c.Value()))
}

func (c *Counter) snapshotValue() any {
	if !c.perWorker {
		return c.Value()
	}
	per := map[string]uint64{}
	for i := range c.shards {
		if v := c.shards[i].v.Load(); v != 0 {
			per[fmt.Sprintf("worker%d", i)] = v
		}
	}
	return map[string]any{"total": c.Value(), "workers": per}
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a settable signed value (e.g. resident bytes, vertex count).
type Gauge struct {
	desc
	v atomic.Int64
}

// NewGauge registers a gauge in Default.
func NewGauge(name, labels, help string) *Gauge {
	return NewGaugeIn(Default, name, labels, help)
}

// NewGaugeIn registers a gauge in r.
func NewGaugeIn(r *Registry, name, labels, help string) *Gauge {
	g := &Gauge{desc: desc{name: name, labels: labels, help: help, typ: "gauge"}}
	r.register(g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) promLines(dst []string) []string {
	return append(dst, fmt.Sprintf("%s %d", g.series(""), g.Value()))
}

func (g *Gauge) snapshotValue() any { return g.Value() }

// ---------------------------------------------------------------------------
// Read at export

// funcMetric is a counter or gauge whose values are read from a callback
// when the registry is exported and never in between, for a count its owner
// already keeps: the registry reads it instead of keeping a copy.
type funcMetric struct {
	desc
	index string
	read  func(dst []uint64) []uint64
}

// NewFunc registers in Default a counter or gauge (typ) read at export:
// read appends the current values to dst. Without an index label the series
// is their sum; with one (e.g. "shard"), value i is the series labelled
// index="i".
func NewFunc(name, labels, typ, help, index string, read func(dst []uint64) []uint64) {
	NewFuncIn(Default, name, labels, typ, help, index, read)
}

// NewFuncIn is NewFunc registering in r.
func NewFuncIn(r *Registry, name, labels, typ, help, index string, read func(dst []uint64) []uint64) {
	r.register(&funcMetric{desc: desc{name: name, labels: labels, help: help, typ: typ}, index: index, read: read})
}

// sum returns the sum of the current values.
func (f *funcMetric) sum() uint64 {
	var t uint64
	for _, v := range f.read(nil) {
		t += v
	}
	return t
}

func (f *funcMetric) promLines(dst []string) []string {
	d := f.desc
	d.name = f.exportName()
	if f.index == "" {
		return append(dst, fmt.Sprintf("%s %d", d.series(""), f.sum()))
	}
	for i, v := range f.read(nil) {
		dst = append(dst, fmt.Sprintf("%s %d", d.series(fmt.Sprintf(`%s="%d"`, f.index, i)), v))
	}
	return dst
}

func (f *funcMetric) snapshotValue() any {
	if f.index == "" {
		return f.sum()
	}
	per := map[string]uint64{}
	for i, v := range f.read(nil) {
		per[fmt.Sprintf("%s%d", f.index, i)] = v
	}
	return per
}

// ---------------------------------------------------------------------------
// Histogram

// histBuckets is the number of log2 buckets: bucket i counts observations
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). 2^40 ns ≈ 18 min and
// 2^40 elements is far beyond any per-op size here, so 41 buckets cover
// every realistic observation; larger values clamp into the last bucket.
const histBuckets = 41

// Histogram is a log2-scaled histogram of uint64 observations (nanoseconds
// for timings, element counts for sizes). Observations are lock-free
// atomic adds; export converts to Prometheus cumulative-bucket form.
type Histogram struct {
	desc
	unit    string // annotation for help text, e.g. "ns"
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64
	count   atomic.Uint64
}

// NewHistogram registers a histogram in Default. unit names the observed
// quantity ("ns", "elements", ...) and is appended to the help text.
func NewHistogram(name, labels, unit, help string) *Histogram {
	return NewHistogramIn(Default, name, labels, unit, help)
}

// NewHistogramIn registers a histogram in r.
func NewHistogramIn(r *Registry, name, labels, unit, help string) *Histogram {
	if unit != "" {
		help += " (" + unit + ")"
	}
	h := &Histogram{
		desc: desc{name: name, labels: labels, help: help, typ: "histogram"},
		unit: unit,
	}
	r.register(h)
	return h
}

// Observe records v.
func (h *Histogram) Observe(v uint64) {
	b := bits.Len64(v)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 < q < 1) of the observed values by
// linear interpolation inside the log2 bucket containing the target rank.
// With power-of-two buckets the estimate is coarse (worst case ~2x within
// the top bucket) but monotone in q and cheap; it returns 0 for an empty
// histogram. The counts are loaded bucket by bucket, so a concurrent
// Observe may or may not be included — fine for reporting.
func (h *Histogram) Quantile(q float64) float64 {
	var counts [histBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	return BucketQuantile(counts[:], total, q)
}

// BucketQuantile estimates the q-quantile of a log2-bucketed histogram
// (bucket i counts values v with bits.Len64(v) == i, i.e. v in
// [2^(i-1), 2^i)) holding count observations in total, interpolating
// linearly inside the bucket containing the target rank.
func BucketQuantile(counts []uint64, count uint64, q float64) float64 {
	if count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(count)
	cum := 0.0
	for i, c := range counts {
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
	return float64(uint64(1) << (len(counts) - 1))
}

func (h *Histogram) promLines(dst []string) []string {
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		// Bucket i holds v with bits.Len64(v) == i, i.e. v <= 2^i - 1.
		le := uint64(1)<<uint(i) - 1
		dst = append(dst, fmt.Sprintf("%s %d", h.seriesSuffix("_bucket", fmt.Sprintf(`le="%d"`, le)), cum))
	}
	dst = append(dst, fmt.Sprintf("%s %d", h.seriesSuffix("_bucket", `le="+Inf"`), h.count.Load()))
	dst = append(dst, fmt.Sprintf("%s %d", h.seriesSuffix("_sum", ""), h.sum.Load()))
	dst = append(dst, fmt.Sprintf("%s %d", h.seriesSuffix("_count", ""), h.count.Load()))
	return dst
}

// seriesSuffix renders name+suffix with the label set plus extra.
func (h *Histogram) seriesSuffix(suffix, extra string) string {
	d := h.desc
	d.name += suffix
	return d.series(extra)
}

func (h *Histogram) snapshotValue() any {
	bs := map[string]uint64{}
	var counts [histBuckets]uint64
	var total uint64
	for i := 0; i < histBuckets; i++ {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
		if counts[i] != 0 {
			bs[fmt.Sprintf("le_2^%d", i)] = counts[i]
		}
	}
	return map[string]any{
		"count":   h.count.Load(),
		"sum":     h.sum.Load(),
		"unit":    h.unit,
		"buckets": bs,
		"p50":     BucketQuantile(counts[:], total, 0.50),
		"p90":     BucketQuantile(counts[:], total, 0.90),
		"p99":     BucketQuantile(counts[:], total, 0.99),
	}
}
