package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
)

// spec is the part of BENCHMARK.json the program reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec() (*spec, error) {
	data, err := os.ReadFile(filepath.Join(benchDir(), "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the driver's definition).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// verdict is the comparison of one metric on one workload between two sets
// of runs of the same code.
type verdict struct {
	medA, medB       float64
	worse            float64 // share by which set B's median is worse than set A's; negative when better
	spreadA, spreadB float64 // distance between the quartiles as a share of the median
	ok               bool
}

// compare says whether two sets of runs agree: their medians differ by at
// most bound in either direction, and, unless the metric is exempt (set-up
// time is, by the driver's rule), each set's quartile spread stays within
// bound too.
func compare(a, b []float64, better string, bound float64, spreadExempt bool) verdict {
	v := verdict{medA: median(a), medB: median(b)}
	v.worse = (v.medB - v.medA) / v.medA
	if better == "higher" {
		v.worse = -v.worse
	}
	spread := func(xs []float64, med float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / med
	}
	v.spreadA, v.spreadB = spread(a, v.medA), spread(b, v.medB)
	v.ok = math.Abs(v.worse) <= bound && (spreadExempt || (v.spreadA <= bound && v.spreadB <= bound))
	return v
}

// agreeMain makes two sets of n full runs of the current tree, each run a
// fresh process with a seed of its own as the driver does, prints both sets'
// medians, their difference, each set's spread and the bound for every
// workload and end-to-end metric, and returns 1 if any pair disagrees or any
// operation failed.
func agreeMain(seed uint64, seconds float64, n int) int {
	sp, err := readSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// values[set][workload][metric] holds one value per run.
	var values [2]map[string]map[string][]float64
	failed := 0
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for i := 0; i < n; i++ {
			for _, w := range workloads {
				s := seed + uint64(set*n+i)
				cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds), "-trace", "0")
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.name, s, err)
					return 1
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var out outcome
				if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.name, s, err)
					return 1
				}
				failed += out.Failed
				if values[set][w.name] == nil {
					values[set][w.name] = map[string][]float64{}
				}
				for name, v := range out.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], v.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d run %d %s: %d operations, %d failed\n", set+1, i+1, w.name, out.Attempted, out.Failed)
			}
		}
	}
	fmt.Printf("%-16s %-20s %13s %13s %8s %8s %8s %6s\n", "workload", "metric", "median 1", "median 2", "worse", "spread 1", "spread 2", "bound")
	disagree := 0
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			v := compare(values[0][w.name][m.Name], values[1][w.name][m.Name], m.Better, m.Bound, m.Name == "setup_s")
			mark := ""
			if !v.ok {
				mark = "  DISAGREE"
				disagree++
			}
			fmt.Printf("%-16s %-20s %13.4f %13.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%%s\n",
				w.name, m.Name, v.medA, v.medB, 100*v.worse, 100*v.spreadA, 100*v.spreadB, 100*m.Bound, mark)
		}
	}
	fmt.Printf("%d pairs disagree, %d operations failed\n", disagree, failed)
	if disagree > 0 || failed > 0 {
		return 1
	}
	return 0
}
