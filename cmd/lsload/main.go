// Command lsload is LSGraph's open-loop network load harness: it drives a
// running lsgraphd with seeded Poisson arrivals at a fixed offered rate
// and reports per-request latency percentiles, throughput, and shed
// counts — the SLO view (throughput vs p99) that closed-loop
// microbenchmarks cannot produce.
//
// Open loop means arrivals are scheduled by a clock, not by completions:
// a slow server does not slow the generator down, it builds queueing
// delay that shows up honestly in the tail. See EXPERIMENTS.md "SLO
// methodology".
//
// Usage:
//
//	lsload -addr http://127.0.0.1:7420 -mix T1,T4,T5 -rate 300 -duration 10s
//	lsload -mix all -out BENCH_load.json -tag load
//
// Workload mixes, after the T1-T5 workload matrix of OLTP/OLAP index
// benchmarks (point lookup / scan / analytics / write-heavy / mixed):
//
//	T1 point-lookup   100% degree lookups
//	T2 neighbor-scan  90% adjacency scans, 10% degree
//	T3 analytics      50% degree, 35% k-hop, 15% BFS kernel
//	T4 write-heavy    90% edge-batch writes, 10% degree
//	T5 mixed          45% degree, 25% scan, 20% write, 9% k-hop, 1% kernel
//	T6 skewed-write   90% writes with Zipf-skewed sources, 10% degree —
//	                  hammers one shard of a range-partitioned graph, the
//	                  workload the store's rebalancer exists to absorb
//
// The report is written as flat {tag, unit, benchmarks} JSON
// (BENCH_<tag>.json).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"lsgraph/internal/gen"
	"lsgraph/internal/httpserve"
)

// opKind enumerates the request classes a mix draws from.
type opKind int

const (
	opPoint opKind = iota
	opScan
	opKhop
	opKernel
	opWrite
	numOps
)

var opNames = [numOps]string{"point", "scan", "khop", "kernel", "write"}

// mix is one workload: per-op weights summing to 100. skewedWrites
// switches write bodies from uniform sources to the seeded power-law
// generator (internal/gen.Zipf), concentrating write load on the hub
// shard of a range-partitioned graph.
type mix struct {
	name         string
	desc         string
	weights      [numOps]int
	skewedWrites bool
}

var mixes = []mix{
	{name: "T1", desc: "point lookup", weights: [numOps]int{opPoint: 100}},
	{name: "T2", desc: "neighbor scan", weights: [numOps]int{opPoint: 10, opScan: 90}},
	{name: "T3", desc: "analytics", weights: [numOps]int{opPoint: 50, opKhop: 35, opKernel: 15}},
	{name: "T4", desc: "write-heavy", weights: [numOps]int{opPoint: 10, opWrite: 90}},
	{name: "T5", desc: "mixed", weights: [numOps]int{opPoint: 45, opScan: 25, opKhop: 9, opKernel: 1, opWrite: 20}},
	{name: "T6", desc: "skewed-write", weights: [numOps]int{opPoint: 10, opWrite: 90}, skewedWrites: true},
}

// result classifies one finished request.
type result int

const (
	resOK      result = iota
	resShed           // 429: admission control said back off
	resTimeout        // client-side deadline
	resError          // transport error or unexpected status
)

// opStats accumulates one op class's results for one mix run.
type opStats struct {
	mu        sync.Mutex
	latencies []int64 // ns, successful requests only
	counts    [4]int64
}

func (s *opStats) record(r result, ns int64) {
	s.mu.Lock()
	s.counts[r]++
	if r == resOK {
		s.latencies = append(s.latencies, ns)
	}
	s.mu.Unlock()
}

// percentile returns the q-quantile (0..1) of sorted ns samples.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// harness bundles the target and the knobs shared by all mixes.
type harness struct {
	client   *http.Client
	base     string
	graph    string
	vertices uint32
	batch    int
	khop     int
	inflight chan struct{}
}

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:7420", "lsgraphd base URL")
		graph    = flag.String("graph", "load", "graph name to drive")
		shards   = flag.Int("shards", 1, "shard count when creating the graph")
		queueLen = flag.Int("queue", 64, "per-shard queue bound when creating the graph")
		mixFlag  = flag.String("mix", "T1,T4,T5", "comma-separated mix names (T1..T6; T6 is the Zipf-skewed write mix) or 'all'")
		rate     = flag.Float64("rate", 300, "offered load in requests/second (Poisson arrivals)")
		duration = flag.Duration("duration", 10*time.Second, "measured run length per mix")
		seed     = flag.Int64("seed", 1, "RNG seed (arrivals, op picks, and data are all derived from it)")
		vertices = flag.Uint("vertices", 1<<16, "vertex-ID space the generated traffic draws from")
		batch    = flag.Int("batch", 256, "edges per write request")
		preload  = flag.Int("preload", 200000, "edges inserted (and flushed) before measuring")
		khopD    = flag.Int("khop", 2, "depth of k-hop requests")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-request client timeout")
		inflight = flag.Int("maxinflight", 1024, "max concurrent in-flight requests before arrivals are dropped client-side")
		wait     = flag.Duration("wait", 15*time.Second, "how long to poll /healthz for the server to come up")
		out      = flag.String("out", "BENCH_load.json", "{tag, unit, benchmarks} JSON report path ('' = stdout table only)")
		tag      = flag.String("tag", "load", "report tag")
	)
	flag.Parse()
	log.SetPrefix("lsload: ")
	log.SetFlags(0)

	selected, err := selectMixes(*mixFlag)
	if err != nil {
		log.Fatal(err)
	}
	h := &harness{
		client: &http.Client{
			Timeout: *timeout,
			Transport: &http.Transport{
				MaxIdleConns:        *inflight,
				MaxIdleConnsPerHost: *inflight,
			},
		},
		base:     strings.TrimRight(*addr, "/"),
		graph:    *graph,
		vertices: uint32(*vertices),
		batch:    *batch,
		khop:     *khopD,
		inflight: make(chan struct{}, *inflight),
	}
	if err := h.waitReady(*wait); err != nil {
		log.Fatal(err)
	}
	if err := h.createGraph(*shards, *queueLen); err != nil {
		log.Fatal(err)
	}
	if *preload > 0 {
		start := time.Now()
		if err := h.preload(*preload, *seed); err != nil {
			log.Fatal(err)
		}
		log.Printf("preloaded %d edges in %s", *preload, time.Since(start).Round(time.Millisecond))
	}

	bench := make(map[string]float64)
	fmt.Printf("%-4s %-14s %9s %9s %8s %8s %8s %6s %6s %6s %7s\n",
		"mix", "workload", "offered", "achieved", "p50(ms)", "p90(ms)", "p99(ms)", "shed", "t/o", "err", "drop")
	for _, m := range selected {
		r := h.runMix(m, *rate, *duration, *seed)
		r.print()
		r.export(bench)
		// Drain the writer queues between mixes so one mix's write backlog
		// does not pollute the next mix's read latencies.
		if err := h.flush(); err != nil {
			log.Printf("flush after %s: %v", m.name, err)
		}
	}
	if *out != "" {
		if err := writeReport(*out, *tag, bench); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *out)
	}
}

// selectMixes resolves the -mix flag.
func selectMixes(s string) ([]mix, error) {
	if s == "all" {
		return mixes, nil
	}
	var sel []mix
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, m := range mixes {
			if strings.EqualFold(m.name, name) {
				sel = append(sel, m)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown mix %q (want T1..T6 or all)", name)
		}
	}
	if len(sel) == 0 {
		return nil, errors.New("no mixes selected")
	}
	return sel, nil
}

// waitReady polls /healthz until the server answers 200.
func (h *harness) waitReady(d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		resp, err := h.client.Get(h.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after %s", h.base, d)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// createGraph creates the target graph (idempotent).
func (h *harness) createGraph(shards, queue int) error {
	body := fmt.Sprintf(`{"shards":%d,"max_queue":%d,"vertices":%d}`, shards, queue, h.vertices)
	req, err := http.NewRequest(http.MethodPut, h.base+"/v1/graphs/"+h.graph, strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("create graph: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// preload seeds the graph with a power-law-ish edge set so reads hit real
// adjacency, inserting in binary batches and flushing at the end. Writes
// retry on 429: preload is closed-loop on purpose.
func (h *harness) preload(edges int, seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	zipf := rand.NewZipf(rng, 1.2, 8, uint64(h.vertices-1))
	const per = 4096
	src := make([]uint32, 0, per)
	dst := make([]uint32, 0, per)
	for edges > 0 {
		n := min(edges, per)
		src, dst = src[:0], dst[:0]
		for i := 0; i < n; i++ {
			src = append(src, uint32(zipf.Uint64()))
			dst = append(dst, rng.Uint32()%h.vertices)
		}
		for {
			status, err := h.postEdges(src, dst)
			if err != nil {
				return fmt.Errorf("preload: %v", err)
			}
			if status == http.StatusTooManyRequests {
				time.Sleep(50 * time.Millisecond)
				continue
			}
			if status != http.StatusAccepted {
				return fmt.Errorf("preload: unexpected status %d", status)
			}
			break
		}
		edges -= n
	}
	return h.flush()
}

// postEdges sends one binary insert batch and returns the status code.
func (h *harness) postEdges(src, dst []uint32) (int, error) {
	body := httpserve.AppendBinaryEdges(make([]byte, 0, 8*len(src)), src, dst)
	req, err := http.NewRequest(http.MethodPost, h.base+"/v1/graphs/"+h.graph+"/edges", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", httpserve.ContentTypeBinary)
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// flush waits until every enqueued batch is applied and published.
func (h *harness) flush() error {
	resp, err := h.client.Post(h.base+"/v1/graphs/"+h.graph+"/flush", "", nil)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("flush: status %d", resp.StatusCode)
	}
	return nil
}

// mixResult is one mix's measured outcome.
type mixResult struct {
	mix      mix
	offered  float64
	elapsed  time.Duration
	arrivals int64
	dropped  int64 // client-side: in-flight cap reached at arrival time
	ops      [numOps]*opStats
}

// runMix drives one workload mix at the offered rate for the duration and
// returns its results. The arrival process is a seeded Poisson clock:
// inter-arrival gaps are exponential with mean 1/rate, scheduled against
// absolute time so generator latency does not shift the offered load.
func (h *harness) runMix(m mix, rate float64, duration time.Duration, seed int64) *mixResult {
	r := &mixResult{mix: m, offered: rate}
	for i := range r.ops {
		r.ops[i] = &opStats{}
	}
	// Independent streams so op-pick randomness does not perturb arrival
	// times across mixes with different weights.
	arrivalRng := rand.New(rand.NewSource(seed*1000003 + int64(len(m.name))))
	opRng := rand.New(rand.NewSource(seed*7700003 + 17))
	dataRng := rand.New(rand.NewSource(seed*31 + 7))
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed*131+int64(3))), 1.2, 8, uint64(h.vertices-1))
	var writeZipf *gen.Zipf
	if m.skewedWrites {
		writeZipf = gen.NewZipf(h.vertices, 1.2, uint64(seed)*0x9e3779b97f4a7c15+6)
	}
	var dataMu sync.Mutex
	pickVertex := func() uint32 {
		dataMu.Lock()
		v := uint32(zipf.Uint64())
		dataMu.Unlock()
		return v
	}

	var wg sync.WaitGroup
	start := time.Now()
	next := start
	deadline := start.Add(duration)
	for {
		gap := time.Duration(arrivalRng.ExpFloat64() / rate * float64(time.Second))
		next = next.Add(gap)
		if next.After(deadline) {
			break
		}
		time.Sleep(time.Until(next))
		op := m.pick(opRng.Intn(100))
		r.arrivals++
		select {
		case h.inflight <- struct{}{}:
		default:
			r.dropped++
			continue
		}
		var src, dst []uint32
		if op == opWrite {
			// Bodies are built on the generator goroutine from the seeded
			// stream, so request goroutines never share the RNG.
			dataMu.Lock()
			if writeZipf != nil {
				src, dst = writeZipf.Batch(h.batch)
			} else {
				src = make([]uint32, h.batch)
				dst = make([]uint32, h.batch)
				for i := range src {
					src[i] = dataRng.Uint32() % h.vertices
					dst[i] = dataRng.Uint32() % h.vertices
				}
			}
			dataMu.Unlock()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-h.inflight }()
			t0 := time.Now()
			res := h.do(op, pickVertex, src, dst)
			r.ops[op].record(res, time.Since(t0).Nanoseconds())
		}()
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	return r
}

// pick maps a uniform draw in [0,100) to an op by the mix's weights.
func (m mix) pick(p int) opKind {
	for op, w := range m.weights {
		if p < w {
			return opKind(op)
		}
		p -= w
	}
	return opPoint
}

// do issues one request and classifies the outcome.
func (h *harness) do(op opKind, pickVertex func() uint32, src, dst []uint32) result {
	var resp *http.Response
	var err error
	switch op {
	case opPoint:
		resp, err = h.client.Get(fmt.Sprintf("%s/v1/graphs/%s/vertices/%d/degree", h.base, h.graph, pickVertex()))
	case opScan:
		resp, err = h.client.Get(fmt.Sprintf("%s/v1/graphs/%s/vertices/%d/neighbors?limit=1024", h.base, h.graph, pickVertex()))
	case opKhop:
		resp, err = h.client.Get(fmt.Sprintf("%s/v1/graphs/%s/khop?src=%d&depth=%d", h.base, h.graph, pickVertex(), h.khop))
	case opKernel:
		resp, err = h.client.Post(fmt.Sprintf("%s/v1/graphs/%s/kernels/bfs?src=%d", h.base, h.graph, pickVertex()), "", nil)
	case opWrite:
		var status int
		status, err = h.postEdges(src, dst)
		if err == nil {
			switch status {
			case http.StatusAccepted:
				return resOK
			case http.StatusTooManyRequests:
				return resShed
			default:
				return resError
			}
		}
	}
	if err != nil {
		var ne interface{ Timeout() bool }
		if errors.As(err, &ne) && ne.Timeout() {
			return resTimeout
		}
		return resError
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode < 300:
		return resOK
	case resp.StatusCode == http.StatusTooManyRequests:
		return resShed
	default:
		return resError
	}
}

// merged returns the mix's pooled sorted latencies and summed counts.
func (r *mixResult) merged() (sorted []int64, counts [4]int64) {
	for _, s := range r.ops {
		s.mu.Lock()
		sorted = append(sorted, s.latencies...)
		for i, c := range s.counts {
			counts[i] += c
		}
		s.mu.Unlock()
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted, counts
}

func (r *mixResult) print() {
	lat, counts := r.merged()
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	achieved := float64(counts[resOK]) / r.elapsed.Seconds()
	fmt.Printf("%-4s %-14s %9.1f %9.1f %8.2f %8.2f %8.2f %6d %6d %6d %7d\n",
		r.mix.name, r.mix.desc, r.offered, achieved,
		ms(percentile(lat, 0.50)), ms(percentile(lat, 0.90)), ms(percentile(lat, 0.99)),
		counts[resShed], counts[resTimeout], counts[resError], r.dropped)
	for op, s := range r.ops {
		s.mu.Lock()
		n := len(s.latencies)
		var p99 int64
		if n > 0 {
			sorted := append([]int64(nil), s.latencies...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			p99 = percentile(sorted, 0.99)
		}
		c := s.counts
		s.mu.Unlock()
		if n+int(c[resShed]+c[resTimeout]+c[resError]) > 0 {
			fmt.Printf("     · %-8s ok=%-7d shed=%-5d t/o=%-4d err=%-4d p99=%.2fms\n",
				opNames[op], n, c[resShed], c[resTimeout], c[resError], ms(p99))
		}
	}
}

// export adds the mix's series to the report's flat benchmark map:
// latency percentiles in ns (the file's declared unit) plus throughput and
// shed counters, which carry their unit in the name.
func (r *mixResult) export(bench map[string]float64) {
	lat, counts := r.merged()
	pre := "loadtest/" + r.mix.name
	bench[pre+"/p50_ns"] = float64(percentile(lat, 0.50))
	bench[pre+"/p90_ns"] = float64(percentile(lat, 0.90))
	bench[pre+"/p99_ns"] = float64(percentile(lat, 0.99))
	bench[pre+"/offered_rps"] = r.offered
	bench[pre+"/achieved_rps"] = float64(counts[resOK]) / r.elapsed.Seconds()
	bench[pre+"/shed_429"] = float64(counts[resShed])
	bench[pre+"/timeouts"] = float64(counts[resTimeout])
	bench[pre+"/errors"] = float64(counts[resError])
	bench[pre+"/dropped_client"] = float64(r.dropped)
	for op, s := range r.ops {
		s.mu.Lock()
		if len(s.latencies) > 0 {
			sorted := append([]int64(nil), s.latencies...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			bench[pre+"/"+opNames[op]+"/p99_ns"] = float64(percentile(sorted, 0.99))
		}
		s.mu.Unlock()
	}
}

// writeReport writes the JSON report: {tag, unit, benchmarks}, keys sorted
// for stable diffs.
func writeReport(path, tag string, bench map[string]float64) error {
	keys := make([]string, 0, len(bench))
	for k := range bench {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "{\n  \"tag\": %q,\n  \"unit\": \"ns/op\",\n  \"benchmarks\": {\n", tag)
	for i, k := range keys {
		comma := ","
		if i == len(keys)-1 {
			comma = ""
		}
		fmt.Fprintf(&b, "    %q: %s%s\n", k, trimFloat(bench[k]), comma)
	}
	b.WriteString("  }\n}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// trimFloat renders a float without trailing zeros (integers stay bare).
func trimFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}
