// Command lsbench regenerates the tables and figures of the LSGraph
// paper's evaluation at a configurable scale.
//
// Usage:
//
//	lsbench                         # run every experiment at default scale
//	lsbench -exp fig12,table3       # run selected experiments
//	lsbench -scale 14 -trials 5     # bigger graphs, more repetitions
//	lsbench -quick                  # smallest useful scale (~1 minute)
//	lsbench -quick -trials 5        # the quick preset with one field overridden
//	lsbench -list                   # list experiment names
//
// Reports are plain-text tables on stdout; each header cites the paper
// result the experiment corresponds to.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"lsgraph/internal/bench"
	"lsgraph/internal/obs"
)

// options holds the parsed command line.
type options struct {
	exp, batches    string
	scale           uint
	trials, workers int
	quick, list     bool
	obs             obs.Flags
}

// newFlags registers lsbench's flags on fs.
func newFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.exp, "exp", "all", "comma-separated experiment names, or 'all'")
	fs.UintVar(&o.scale, "scale", 13, "rMat scale (log2 vertices) of the LJ stand-in")
	fs.IntVar(&o.trials, "trials", 3, "repetitions averaged per measurement")
	fs.IntVar(&o.workers, "workers", 0, "update/analytics parallelism (0 = all cores)")
	fs.StringVar(&o.batches, "batches", "", "comma-separated batch sizes (default per scale)")
	fs.BoolVar(&o.quick, "quick", false, "use the quick scale preset; an explicit -scale, -trials or -batches still applies on top of it")
	fs.BoolVar(&o.list, "list", false, "list experiment names and exit")
	o.obs.Register(fs,
		"record the batch-lifecycle flight recorder across all experiments and write Chrome trace-event JSON (load in ui.perfetto.dev) to this file on exit",
		"serve Prometheus /metrics, /metrics.json, /debug/pprof and /debug/trace on this address while experiments run; implies metric collection")
	return o
}

// scaleFromFlags returns the scale preset (-quick or the default) with the
// flags the caller set on fs applied on top of it.
func (o *options) scaleFromFlags(fs *flag.FlagSet) (bench.Scale, error) {
	s := bench.DefaultScale()
	if o.quick {
		s = bench.QuickScale()
	}
	s.Workers = o.workers
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scale":
			s.Base = o.scale
		case "trials":
			s.Trials = o.trials
		}
	})
	if o.batches != "" {
		s.BatchSizes = nil
		for _, f := range strings.Split(o.batches, ",") {
			b, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || b <= 0 {
				return s, fmt.Errorf("bad batch size %q", f)
			}
			s.BatchSizes = append(s.BatchSizes, b)
		}
	}
	return s, nil
}

// experiments returns the names -exp selects, checked against
// bench.Experiments before any of them runs.
func (o *options) experiments() ([]string, error) {
	if o.exp == "all" {
		return bench.Experiments, nil
	}
	var names []string
	for _, f := range strings.Split(o.exp, ",") {
		name := strings.TrimSpace(f)
		if !slices.Contains(bench.Experiments, name) {
			return nil, fmt.Errorf("unknown experiment %q (known: %s)", name, strings.Join(bench.Experiments, ", "))
		}
		names = append(names, name)
	}
	return names, nil
}

func main() {
	o := newFlags(flag.CommandLine)
	flag.Parse()

	if err := o.obs.Start("lsbench"); err != nil {
		fmt.Fprintln(os.Stderr, "lsbench:", err)
		os.Exit(2)
	}

	if o.list {
		fmt.Println(strings.Join(bench.Experiments, "\n"))
		return
	}

	s, err := o.scaleFromFlags(flag.CommandLine)
	var names []string
	if err == nil {
		names, err = o.experiments()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsbench:", err)
		os.Exit(2)
	}
	for _, name := range names {
		if err := bench.Run(name, s, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "lsbench:", err)
			os.Exit(1)
		}
	}

	if err := o.obs.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "lsbench:", err)
		os.Exit(1)
	}
}
