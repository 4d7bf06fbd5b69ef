package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// spans, "i" instants, "M" metadata), the JSON Perfetto and chrome://tracing
// load directly. Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// exportEvents returns the event set WriteChrome and WriteAutopsy work on:
// the rings' current contents, except in Tail mode, where only the retained
// slow-batch traces are exported (that is the retention policy's point).
func exportEvents() []Event {
	if CurrentTraceMode() == TraceTail {
		var out []Event
		for _, bt := range RetainedTraces() {
			out = append(out, bt.Events...)
		}
		sortEvents(out)
		return out
	}
	return Events()
}

// eventName is the span name shown in the timeline: the interned label when
// present (kernel names), the lifecycle phase otherwise.
func (ev Event) eventName() string {
	if ev.Name != 0 {
		if n := nameOf(ev.Name); n != "" {
			return ev.Phase.String() + ":" + n
		}
	}
	return ev.Phase.String()
}

// tid maps an event to its Chrome "thread": 0 for engine-level events,
// shard s to s+1.
func (ev Event) tid() int {
	if ev.Shard < 0 {
		return 0
	}
	return ev.Shard + 1
}

// WriteChrome writes the current trace as Chrome trace-event JSON. Load the
// output in Perfetto (ui.perfetto.dev) or chrome://tracing: each shard
// renders as its own track, engine-level events (enqueue, scatter, kernels,
// view pins) on track 0.
func WriteChrome(w io.Writer) error {
	evs := exportEvents()
	out := chromeTrace{DisplayTimeUnit: "ms"}
	out.TraceEvents = make([]chromeEvent, 0, len(evs)+8)

	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "lsgraph"},
	})
	tids := map[int]bool{}
	for _, ev := range evs {
		tids[ev.tid()] = true
	}
	for tid := range tids {
		name := "engine"
		if tid > 0 {
			name = fmt.Sprintf("shard %d", tid-1)
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}

	for _, ev := range evs {
		ce := chromeEvent{
			Name: ev.eventName(),
			Cat:  "lsgraph",
			Pid:  1,
			Tid:  ev.tid(),
			Ts:   float64(ev.Start) / 1e3,
			Args: map[string]any{
				"batch": ev.Batch,
				"shard": ev.Shard,
				"edges": ev.Edges,
				"epoch": ev.Epoch,
			},
		}
		if ev.Dur > 0 {
			ce.Ph, ce.Dur = "X", float64(ev.Dur)/1e3
		} else {
			ce.Ph, ce.S = "i", "t"
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// batchSummary aggregates one batch's events for the autopsy report.
type batchSummary struct {
	batch     uint64
	start     int64 // earliest span start
	end       int64 // latest span end
	phases    [numPhases]int64
	coalesces int
	shards    map[int]bool
	edges     uint64 // largest edge count seen on a span (the batch size)
}

func (b *batchSummary) e2e() int64 { return b.end - b.start }

// dominant returns the lifecycle phase with the largest total duration.
// The container phase (enqueue spans the whole submit path) is skipped so
// the answer names actual work.
func (b *batchSummary) dominant() (Phase, int64) {
	var best Phase
	var bestD int64 = -1
	for p := Phase(1); p < numPhases; p++ {
		if p == PhaseEnqueue {
			continue
		}
		if b.phases[p] > bestD {
			best, bestD = p, b.phases[p]
		}
	}
	return best, bestD
}

// summarize groups batch-attributed events into per-batch summaries.
func summarize(evs []Event) []*batchSummary {
	byBatch := map[uint64]*batchSummary{}
	for _, ev := range evs {
		if ev.Batch == 0 {
			continue
		}
		b := byBatch[ev.Batch]
		if b == nil {
			b = &batchSummary{batch: ev.Batch, start: ev.Start, end: ev.Start, shards: map[int]bool{}}
			byBatch[ev.Batch] = b
		}
		if ev.Start < b.start {
			b.start = ev.Start
		}
		if end := ev.Start + ev.Dur; end > b.end {
			b.end = end
		}
		if int(ev.Phase) < len(b.phases) {
			b.phases[ev.Phase] += ev.Dur
		}
		if ev.Phase == PhaseCoalesce {
			b.coalesces++
		}
		if ev.Shard >= 0 {
			b.shards[ev.Shard] = true
		}
		if ev.Edges > b.edges {
			b.edges = ev.Edges
		}
	}
	out := make([]*batchSummary, 0, len(byBatch))
	for _, b := range byBatch {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].e2e() > out[j].e2e() })
	return out
}

// autopsyTop is how many slowest batches the report details.
const autopsyTop = 5

// WriteAutopsy writes the human-readable slow-batch report: the slowest
// traced batches by end-to-end latency, each with its per-phase breakdown
// and dominant phase, plus overall per-phase totals.
func WriteAutopsy(w io.Writer) error {
	evs := exportEvents()
	sums := summarize(evs)

	var sb strings.Builder
	fmt.Fprintf(&sb, "slow-batch autopsy — %d events, %d batches traced (mode %s)\n",
		len(evs), len(sums), modeNames[CurrentTraceMode()])
	if len(sums) == 0 {
		sb.WriteString("no batch-attributed events recorded; enable tracing and run updates first\n")
		_, err := io.WriteString(w, sb.String())
		return err
	}

	var totals [numPhases]int64
	for _, b := range sums {
		for p := range totals {
			totals[p] += b.phases[p]
		}
	}
	sb.WriteString("phase totals across traced batches: ")
	first := true
	for p := Phase(1); p < numPhases; p++ {
		if totals[p] == 0 {
			continue
		}
		if !first {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %s", p, fmtNs(totals[p]))
		first = false
	}
	sb.WriteString("\n\n")

	n := len(sums)
	if n > autopsyTop {
		n = autopsyTop
	}
	fmt.Fprintf(&sb, "%d slowest batches by end-to-end (enqueue-to-publish) latency:\n", n)
	for i := 0; i < n; i++ {
		b := sums[i]
		dom, domD := b.dominant()
		pct := 0.0
		if b.e2e() > 0 {
			pct = 100 * float64(domD) / float64(b.e2e())
		}
		fmt.Fprintf(&sb, "  batch %d: e2e %s, %d edges, %d shard(s)%s — dominant phase: %s (%s, %.0f%% of e2e)\n",
			b.batch, fmtNs(b.e2e()), b.edges, len(b.shards),
			coalesceNote(b.coalesces), dom, fmtNs(domD), pct)
		fmt.Fprintf(&sb, "    ")
		first := true
		for p := Phase(1); p < numPhases; p++ {
			if b.phases[p] == 0 {
				continue
			}
			if !first {
				fmt.Fprintf(&sb, " | ")
			}
			fmt.Fprintf(&sb, "%s %s", p, fmtNs(b.phases[p]))
			first = false
		}
		sb.WriteString("\n")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func coalesceNote(n int) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprintf(", coalesced x%d", n)
}

func fmtNs(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

var modeNames = [...]string{TraceOff: "off", TraceAll: "all", TraceSample: "sample", TraceTail: "tail"}
