// Command benchmark is the repository's ruler: four workloads over the three
// front doors (lsgraph.Graph, lsgraph.Store, the HTTP handler) and the durable
// store, eight end-to-end metrics measured with tracing off, and a traced run
// that yields the per-layer metrics. BENCHMARK.json at the repository root
// names the workloads and metrics; README.md explains every one.
//
//	go run . -seed 1                         every workload, end-to-end metrics
//	go run . -seed 1 -trace 1                every workload, per-layer metrics
//	go run . -workload store-stream -seed 7 -seconds 12 -trace 0
//	go run . -agree -n 5                     two sets of runs must agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"lsgraph/internal/parallel"
)

// runSeconds is how long a run repeats its measured round unless -seconds
// says otherwise; BENCHMARK.json's run_seconds is the same number.
const runSeconds = 20

// metric is a metric's name and unit as the benchmark prints them, and for
// an end-to-end metric how run.result scales it by the host's speed.
type metric struct {
	name, unit string
	scaling    int
}

// endToEnd lists what a user of the system sees. Every workload reports all
// of them with tracing off; README.md gives each one's start and stop points
// per workload.
var endToEnd = []metric{
	{"setup_s", "s", timeLike},
	{"update_eps", "edges/s", rateLike},
	{"update_p50_ms", "ms", timeLike},
	{"read_p50_us", "us", readLike},
	{"pagerank_ms", "ms", timeLike},
	{"bfs_ms", "ms", timeLike},
	{"recover_s", "s", timeLike},
	{"heap_bytes_per_edge", "B/edge", asMeasured},
}

// outcome is the last line a run prints, in the shape the driver reads.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchDir is the benchmark's own directory, from the repository root (where
// the driver starts the program) or from inside it (go run .).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return "benchmark"
	}
	return "."
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", runSeconds, "how long each workload repeats its measured round")
		trace   = flag.Int("trace", 0, "1 makes the traced run that reports the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "tiny sizes and a single round, for the package's tests")
		agree   = flag.Bool("agree", false, "run two sets of -n runs and check that they agree within the bounds")
		n       = flag.Int("n", 5, "runs per set for -agree")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workers())
	parallel.Procs = workers()

	if *agree {
		os.Exit(agreeMain(*seed, *seconds, *n))
	}
	sz := fullSizes
	if *smoke {
		sz, *seconds = smokeSizes, 0
	}
	ok := true
	for _, w := range workloads {
		if *name != "" && *name != w.name {
			continue
		}
		out, err := runWorkload(w, sz, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, _ := json.Marshal(out)
		fmt.Printf("%s\n", line)
		ok = ok && out.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload makes one run of w and prints every metric by name, with its
// unit and sample count. It returns an error, and no outcome, when the run
// could not be completed or a metric is missing.
func runWorkload(w workload, sz sizes, seed uint64, seconds float64, traced bool) (*outcome, error) {
	dir := benchDir()
	tmp := filepath.Join(dir, "out", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	if traced {
		seconds /= 3                      // the shadow stack takes the rest of the run
		sz.minRound = max(sz.minRound, 2) // one round recorded, one not
	}
	debug.FreeOSMemory()
	before := readGoStats()
	r := newRun(sz, seed, seconds, tmp, traced)
	g, b, err := w.run(r)
	if err != nil {
		return nil, err
	}
	out := &outcome{Metrics: map[string]value{}}
	if traced {
		r.rec.on = true
		vals, err := shadowStack(r, g, b, before)
		if err != nil {
			return nil, err
		}
		path, err := r.rec.write(filepath.Join(dir, "out"), w.name)
		if err != nil {
			return nil, err
		}
		fmt.Printf("# %s: trace written to %s\n", w.name, path)
		for _, m := range perLayer {
			v, ok := vals[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			out.Metrics[m.name] = value{v, m.unit}
			fmt.Printf("%-16s %-38s %14.4f %s\n", w.name, m.name, v, m.unit)
		}
	} else {
		for _, m := range endToEnd {
			v, n := r.result(m.name, m.scaling, nil)
			if math.IsNaN(v) {
				if r.firstErr != nil {
					return nil, fmt.Errorf("%s has no sample: %w", m.name, r.firstErr)
				}
				return nil, fmt.Errorf("%s has no sample", m.name)
			}
			out.Metrics[m.name] = value{v, m.unit}
			raw, _ := r.result(m.name, asMeasured, nil)
			fmt.Printf("%-16s %-22s %14.4f %-8s n=%-6d as measured %.4f\n", w.name, m.name, v, m.unit, n, raw)
		}
		calib, n := r.result("host.calib_ms", asMeasured, nil)
		fmt.Printf("# %s: calibration %.3f ms over %d samples (a round's timings are scaled by %.1f ms / its own)\n", w.name, calib, n, calibRefMs)
		if ref, n := r.result("host.read_ref_us", asMeasured, nil); n > 0 {
			fmt.Printf("# %s: reference read %.4f us over %d chunks (a round's reads are scaled by %.2f us / its own)\n", w.name, ref, n, readRefUs)
		}
	}
	out.Attempted, out.Failed = r.attempted, r.failed
	out.Correct = r.failed == 0
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed, first: %v\n", w.name, r.failed, r.attempted, r.firstErr)
	}
	return out, nil
}
