// Command lsbench regenerates the tables and figures of the LSGraph
// paper's evaluation at a configurable scale.
//
// Usage:
//
//	lsbench                         # run every experiment at default scale
//	lsbench -exp fig12,table3       # run selected experiments
//	lsbench -exp prepare            # batch-pipeline phase breakdown vs workers
//	lsbench -exp mixed              # concurrent ingest + analytics on a Store
//	lsbench -exp sharded            # ingest scaling across shard writer pipelines
//	lsbench -exp recover            # WAL ingest overhead + recovery speed
//	lsbench -scale 14 -trials 5     # bigger graphs, more repetitions
//	lsbench -json out.json -tag recover  # also write recorded metrics as JSON
//	lsbench -quick                  # smallest useful scale (~1 minute)
//	lsbench -list                   # list experiment names
//
// Reports are plain-text tables on stdout; each header cites the paper
// result the experiment corresponds to.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lsgraph"
	"lsgraph/internal/bench"
	"lsgraph/internal/obs"
)

func main() {
	var (
		expFlag = flag.String("exp", "all", "comma-separated experiment names, or 'all'")
		scale   = flag.Uint("scale", 13, "rMat scale (log2 vertices) of the LJ stand-in")
		trials  = flag.Int("trials", 3, "repetitions averaged per measurement")
		workers = flag.Int("workers", 0, "update/analytics parallelism (0 = all cores)")
		batches = flag.String("batches", "", "comma-separated batch sizes (default per scale)")
		quick   = flag.Bool("quick", false, "use the quick scale preset")
		list    = flag.Bool("list", false, "list experiment names and exit")
		jsonO   = flag.String("json", "", "write metrics recorded by the experiments to this file in the BENCH_<tag>.json {tag, unit, benchmarks} shape")
		tag     = flag.String("tag", "dev", "tag field for -json output")
		metrics = flag.String("metrics", "", "serve Prometheus /metrics, /metrics.json, /debug/pprof and /debug/trace on this address while experiments run; implies metric collection")
		obsDump = flag.Bool("obsdump", false, "enable metric collection and print a JSON metrics snapshot on exit")
		traceO  = flag.String("trace", "", "record the batch-lifecycle flight recorder across all experiments and write Chrome trace-event JSON (load in ui.perfetto.dev) to this file on exit")
		traceMd = flag.String("tracemode", "all", "flight-recorder sampling policy: all | sample=N | tail")
		autopsy = flag.Bool("autopsy", false, "record the flight recorder and print the slow-batch autopsy report on exit")
	)
	flag.Parse()

	if *metrics != "" {
		go func() {
			if err := obs.Serve(*metrics); err != nil {
				fmt.Fprintln(os.Stderr, "lsbench: metrics server:", err)
			}
		}()
	}
	if *obsDump {
		obs.SetEnabled(true)
	}
	if *traceO != "" || *autopsy {
		m, n, err := lsgraph.ParseTraceMode(*traceMd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsbench:", err)
			os.Exit(2)
		}
		if m == lsgraph.TraceOff {
			m, n = lsgraph.TraceAll, 1
		}
		lsgraph.SetTraceMode(m, n)
	}

	if *list {
		for _, name := range bench.Experiments {
			fmt.Println(name)
		}
		return
	}

	s := bench.DefaultScale()
	if *quick {
		s = bench.QuickScale()
	} else {
		s.Base = *scale
		s.Trials = *trials
	}
	s.Workers = *workers
	if *batches != "" {
		s.BatchSizes = s.BatchSizes[:0]
		for _, f := range strings.Split(*batches, ",") {
			var b int
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &b); err != nil || b <= 0 {
				fmt.Fprintf(os.Stderr, "lsbench: bad batch size %q\n", f)
				os.Exit(2)
			}
			s.BatchSizes = append(s.BatchSizes, b)
		}
	}

	names := bench.Experiments
	if *expFlag != "all" {
		names = nil
		for _, f := range strings.Split(*expFlag, ",") {
			names = append(names, strings.TrimSpace(f))
		}
	}
	for _, name := range names {
		if err := bench.Run(name, s, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "lsbench:", err)
			os.Exit(1)
		}
	}

	if *jsonO != "" {
		if b := bench.MetricsJSON(*tag); b == nil {
			fmt.Fprintf(os.Stderr, "lsbench: -json: no experiment recorded metrics (only some do, e.g. recover)\n")
			os.Exit(1)
		} else if err := os.WriteFile(*jsonO, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "lsbench:", err)
			os.Exit(1)
		} else {
			fmt.Printf("metrics written to %s\n", *jsonO)
		}
	}

	if *obsDump {
		b, err := obs.SnapshotJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsbench:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics snapshot:\n%s\n", b)
	}

	if *traceO != "" {
		f, err := os.Create(*traceO)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsbench:", err)
			os.Exit(1)
		}
		werr := lsgraph.WriteTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "lsbench:", werr)
			os.Exit(1)
		}
		fmt.Printf("flight-recorder trace written to %s (load in ui.perfetto.dev or chrome://tracing)\n", *traceO)
	}
	if *autopsy {
		if err := lsgraph.WriteTraceAutopsy(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "lsbench:", err)
		}
	}
}
