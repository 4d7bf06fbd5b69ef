package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"lsgraph"
	"lsgraph/internal/httpserve"
)

// graphName is the one graph serve-mixed creates.
const graphName = "g"

// httpMaxQueue is the graph's max_queue: how many batches a shard may have
// queued before httpserve sheds ingest with 429. At the server's default of
// 64 the mix sheds nothing on a quiet host, but the shuffled decks send writes
// in bursts faster than a shard writer applies and publishes them, and the
// backlog routinely peaks at 20 to 40 batches: one vCPU the host takes away
// for a tenth of a second then turns into a handful of refused writes. The
// workload must be one on which no operation fails, so the operator's knob is
// set out of reach: a round sends 384 writes before its flush empties the
// queues.
const httpMaxQueue = 1024

// server is an in-process lsgraphd: httpserve's handler on a loopback
// listener.
type server struct {
	srv  *httpserve.Server
	hs   *http.Server
	done chan struct{}
	base string // http://127.0.0.1:port/v1/graphs/g
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  httpserve.New(httpserve.Config{}),
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String() + "/v1/graphs/" + graphName,
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// stop shuts the listener down, waits for the serving goroutine, and closes
// every store.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close() // idle keep-alive connections outlived the deadline
	}
	<-s.done
	s.srv.Close()
}

func (s *server) store() *lsgraph.Store { return s.srv.Store(graphName) }

// client is one closed-loop caller: one connection, one request in flight.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request, reads the whole reply into out when out is not nil,
// and reports any status other than want as an error.
func (c *client) do(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", httpserve.ContentTypeBinary)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %.100s", method, path, resp.StatusCode, want, data)
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// encode packs a batch in the binary wire form: little-endian uint32 pairs.
func encode(src, dst []uint32) []byte {
	out := make([]byte, 0, 8*len(src))
	for i := range src {
		out = binary.LittleEndian.AppendUint32(out, src[i])
		out = binary.LittleEndian.AppendUint32(out, dst[i])
	}
	return out
}

// Request kinds of the serve-mixed deck.
const (
	opRead = iota
	opWrite
	opBFS
	opPageRank
)

// mixClient is one client's pre-generated traffic and its record of which
// writes the server accepted.
type mixClient struct {
	*client
	decks  [][]uint8 // shuffled op kinds; every deck has the same composition
	deck   int
	verts  []uint32 // Zipf read targets, cycled
	vert   int
	bodies [][]byte // encoded write batches, cycled: a pass of inserts, then a pass of deletes
	writes int
	// inserted[i] says whether batch i's last accepted write was an insert.
	inserted []bool
}

// mix is the serve-mixed traffic for one graph: the set-up requests and the
// closed-loop clients. The workload drives it for the whole run; the shadow
// stack plays one round of it against its own server.
type mix struct {
	r       *run
	g       *graph
	pool    []batch  // every client's write batches, client by client
	create  []byte   // graph config
	load    [][]byte // base graph as ingest bodies
	clients []*mixClient
	admin   *client
}

func newMix(r *run, g *graph, scale int, stream uint64) *mix {
	sz := r.sz
	m := &mix{r: r, g: g}
	m.pool = newBatches(r.seed, stream, scale, g, sz.httpClients*sz.httpPool, sz.httpBatchEdges)
	for lo := 0; lo < len(g.src); lo += sz.httpLoadEdges {
		hi := min(lo+sz.httpLoadEdges, len(g.src))
		m.load = append(m.load, encode(g.src[lo:hi], g.dst[lo:hi]))
	}
	m.create, _ = json.Marshal(map[string]any{"vertices": g.n, "shards": storeShards, "max_queue": httpMaxQueue})
	for c := 0; c < sz.httpClients; c++ {
		rnd := newRNG(r.seed, stream+1+uint64(c))
		mc := &mixClient{
			verts:    zipfVertices(r.seed, stream+11+uint64(c), g.n, 1<<16),
			inserted: make([]bool, sz.httpPool),
		}
		for _, b := range m.pool[c*sz.httpPool : (c+1)*sz.httpPool] {
			mc.bodies = append(mc.bodies, encode(b.src, b.dst))
		}
		for d := 0; d < 8; d++ {
			deck := make([]uint8, sz.httpDeck) // zero is opRead
			n := copy(deck, bytes.Repeat([]byte{opWrite}, sz.httpWrites))
			n += copy(deck[n:], bytes.Repeat([]byte{opBFS}, sz.httpBFS))
			copy(deck[n:], bytes.Repeat([]byte{opPageRank}, sz.httpPR))
			shuffle(rnd, deck)
			mc.decks = append(mc.decks, deck)
		}
		m.clients = append(m.clients, mc)
	}
	return m
}

// open is the set-up an operator pays: server up, graph created, base graph
// ingested over HTTP and flushed.
func (m *mix) open() (*server, error) {
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	c := newClient(srv.base)
	defer c.close()
	err = c.do("PUT", "", m.create, http.StatusCreated, nil)
	for _, body := range m.load {
		if err == nil {
			err = c.do("POST", "/edges", body, http.StatusAccepted, nil)
		}
	}
	if err == nil {
		err = c.do("POST", "/flush", nil, http.StatusOK, nil)
	}
	if err != nil {
		srv.stop()
		return nil, err
	}
	return srv, nil
}

// rebuild times open, checks the new server's graph and stops it again. The
// server keeps nothing on disk here, so a restart re-ingests: the same call
// is this workload's recover_s.
func (m *mix) rebuild(metric string) error {
	runtime.GC()
	t0 := time.Now()
	srv, err := m.open()
	if err != nil {
		return err
	}
	dur := time.Since(t0)
	got := srv.store().NumEdges()
	srv.stop()
	if want := uint64(len(m.g.base)); got != want {
		m.r.fail(1, fmt.Errorf("%s ingested %d edges, oracle has %d", metric, got, want))
		return nil
	}
	m.r.add(metric, dur.Seconds())
	return nil
}

// connect points the mix's clients at srv.
func (m *mix) connect(srv *server) {
	m.admin = newClient(srv.base)
	for _, mc := range m.clients {
		mc.client = newClient(srv.base)
	}
}

// close drops the clients' idle connections.
func (m *mix) close() {
	m.admin.close()
	for _, mc := range m.clients {
		mc.close()
	}
}

// round has every client play its next deck at once and then flushes: the
// round's writes count as applied once they are visible.
func (m *mix) round(srv *server, measured bool) error {
	r, sz := m.r, m.r.sz
	edges := make([]int, len(m.clients))
	t0 := time.Now()
	var wg sync.WaitGroup
	for c, mc := range m.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			edges[c] = mc.playDeck(r, m.g.hub, sz.httpBatchEdges, measured)
		}()
	}
	wg.Wait()
	if err := m.admin.do("POST", "/flush", nil, http.StatusOK, nil); err != nil {
		return err
	}
	wall := time.Since(t0)
	if measured {
		sum := 0
		for _, e := range edges {
			sum += e
		}
		r.add("update_eps", float64(sum)/wall.Seconds())
		r.add("httpserve.rps", float64(len(m.clients)*sz.httpDeck)/wall.Seconds())
	}
	return nil
}

// inserted returns the batches whose last accepted write was an insert.
// Batches are disjoint, so the base graph plus these is the final state
// however the clients interleaved.
func (m *mix) inserted() []batch {
	var out []batch
	for c, mc := range m.clients {
		for i, in := range mc.inserted {
			if in {
				out = append(out, m.pool[c*len(mc.inserted)+i])
			}
		}
	}
	return out
}

// serveMixed drives reads, writes and kernels at once through the HTTP front
// door, closed loop, on a graph small enough to stay in cache so that decode,
// admission, encode and the socket are the largest share.
func serveMixed(r *run) (*graph, batch, error) {
	g := newGraph(r.seed, r.sz.scale)
	m := newMix(r, g, r.sz.scale, 2)
	heap0 := float64(heapLive())
	srv, err := m.open()
	if err != nil {
		return nil, batch{}, err
	}
	defer srv.stop()
	m.connect(srv)
	defer m.close()

	err = r.rounds(func(measured bool) error {
		r.calibrate()
		if measured {
			if err := m.rebuild("setup_s"); err != nil {
				return err
			}
			r.calibrate()
		}
		if err := m.round(srv, measured); err != nil {
			return err
		}
		r.calibrate()
		if !measured {
			runtime.GC()
			return nil
		}
		r.add("heap_bytes_per_edge", (float64(heapLive())-heap0)/float64(srv.store().NumEdges()))
		defer r.calibrate()
		return m.rebuild("recover_s")
	})
	if err != nil {
		return nil, batch{}, err
	}

	final := newOracle(g, m.inserted())
	view := srv.store().View()
	r.check(final.checkState(view, g.hub, r.seed))
	r.check(checkRanks(lsgraph.PageRank(view, 10)))
	view.Release()
	var bfs struct{ Reached int }
	err = m.admin.do("POST", "/kernels/bfs?src="+strconv.Itoa(int(g.hub)), nil, http.StatusOK, &bfs)
	if want := final.reached(g.hub); err == nil && bfs.Reached != want {
		err = fmt.Errorf("bfs reached %d vertices, oracle reaches %d", bfs.Reached, want)
	}
	r.check(err)
	return g, m.pool[0], nil
}

// playDeck sends the client's next deck, one request at a time, and returns
// how many edges the server accepted.
func (mc *mixClient) playDeck(r *run, hub uint32, batchEdges int, measured bool) (accepted int) {
	deck := mc.decks[mc.deck%len(mc.decks)]
	mc.deck++
	hubQuery := "?src=" + strconv.Itoa(int(hub))
	for _, kind := range deck {
		switch kind {
		case opRead:
			v := mc.verts[mc.vert%len(mc.verts)]
			mc.vert++
			var reply struct{ Degree, Returned int }
			d, ok := r.op("op.read", func(root int, op uint64) error {
				var err error
				r.rec.call("http.roundtrip", root, op, func() {
					err = mc.do("GET", "/vertices/"+strconv.Itoa(int(v))+"/neighbors?limit="+strconv.Itoa(readLimit), nil, http.StatusOK, &reply)
				})
				if err == nil && reply.Returned != min(reply.Degree, readLimit) {
					err = fmt.Errorf("read of %d returned %d of %d neighbours", v, reply.Returned, reply.Degree)
				}
				return err
			})
			if ok && measured {
				r.add("read_p50_us", float64(d)/1e3)
			}
		case opWrite:
			i := mc.writes % len(mc.bodies)
			del := mc.writes/len(mc.bodies)%2 == 1
			mc.writes++
			path := "/edges"
			if del {
				path += "?op=delete"
			}
			d, ok := r.op("op.update", func(root int, op uint64) error {
				var err error
				r.rec.call("http.roundtrip", root, op, func() {
					err = mc.do("POST", path, mc.bodies[i], http.StatusAccepted, nil)
				})
				return err
			})
			if ok {
				mc.inserted[i] = !del
				accepted += batchEdges
				if measured {
					r.add("update_p50_ms", ms(d))
				}
			}
		case opBFS, opPageRank:
			name, path, metric := "op.bfs", "/kernels/bfs"+hubQuery, "bfs_ms"
			if kind == opPageRank {
				name, path, metric = "op.pagerank", "/kernels/pagerank?iters=10&top=1", "pagerank_ms"
			}
			var reply struct {
				Reached int
				Top     []struct{ Rank float64 }
			}
			d, ok := r.op(name, func(root int, op uint64) error {
				var err error
				r.rec.call("http.roundtrip", root, op, func() {
					err = mc.do("POST", path, nil, http.StatusOK, &reply)
				})
				// Writes are in flight, so the exact answer is not fixed;
				// the final state is checked against the oracle after the
				// last flush.
				if err == nil && reply.Reached < 1 && len(reply.Top) < 1 {
					err = errors.New("kernel reply holds no result")
				}
				return err
			})
			if ok && measured {
				r.add(metric, ms(d))
			}
		}
	}
	return accepted
}
