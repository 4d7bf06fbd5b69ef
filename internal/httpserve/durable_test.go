package httpserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lsgraph"
)

// putGraph creates the named graph via the HTTP API and returns the
// status code.
func putGraph(t *testing.T, client *http.Client, base, graph, body string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/graphs/"+graph, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("PUT graph: %v", err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// post issues an empty-body POST and returns the status code, decoding a
// JSON response into v when given.
func post(t *testing.T, client *http.Client, url string, v any) int {
	t.Helper()
	resp, err := client.Post(url, "", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode < 300 {
		if err := jsonDecode(resp.Body, v); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestDurableRestartE2E is the end-to-end crash/restart check of the
// serving stack: ingest over HTTP into a durable server, flush (the
// durability barrier), abandon the server without closing it — the
// in-process stand-in for SIGKILL: no drain, no checkpoint, no WAL close —
// then Open a second server on the same data directory and verify every
// flushed batch survived and /healthz reports the recovery.
func TestDurableRestartE2E(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		DataDir:       dir,
		Fsync:         "interval",
		FsyncInterval: time.Millisecond,
	}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()

	if code := putGraph(t, client, ts.URL, "g", `{"shards":2,"vertices":128,"max_vertices":500}`); code != http.StatusCreated {
		t.Fatalf("create graph: status %d", code)
	}
	// Ingest across both formats and both ops, then flush: everything
	// accepted before the flush must survive the kill.
	for b := 0; b < 8; b++ {
		src := []uint32{uint32(b), uint32(b + 1), 100}
		dst := []uint32{uint32(b + 1), uint32(b), uint32(b + 2)}
		format := ContentTypeNDJSON
		if b%2 == 1 {
			format = ContentTypeBinary
		}
		if code := postEdges(t, client, ts.URL, "g", "insert", format, src, dst); code != http.StatusAccepted {
			t.Fatalf("ingest batch %d: status %d", b, code)
		}
	}
	if code := postEdges(t, client, ts.URL, "g", "delete", ContentTypeNDJSON, []uint32{100}, []uint32{2}); code != http.StatusAccepted {
		t.Fatalf("delete batch: status %d", code)
	}
	if code := post(t, client, ts.URL+"/v1/graphs/g/flush", nil); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}
	var want graphSummary
	if code := getJSON(t, client, ts.URL+"/v1/graphs/g", &want); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	ts.Close()
	// Abandoned: srv is never Closed, exactly like a killed process — its
	// WAL was last synced by the flush barrier, nothing was checkpointed.

	srv2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	client2 := ts2.Client()

	// The graph was rediscovered from graph.json with its config intact.
	var got graphSummary
	if code := getJSON(t, client2, ts2.URL+"/v1/graphs/g", &got); code != http.StatusOK {
		t.Fatalf("stats after restart: status %d", code)
	}
	if got.Shards != 2 || got.MaxVerts != 500 {
		t.Fatalf("recovered shards=%d max_vertices=%d, want 2 and 500", got.Shards, got.MaxVerts)
	}
	if code := postEdges(t, client2, ts2.URL, "g", "insert", ContentTypeBinary, []uint32{500}, []uint32{1}); code != http.StatusUnprocessableEntity {
		t.Fatalf("ingest past the recovered max_vertices: status %d, want 422", code)
	}
	if !got.Durable || got.Recovery == nil || got.Recovery.ReplayedRecords == 0 {
		t.Fatalf("recovery not reported: %+v", got.Recovery)
	}
	if got.Edges != want.Edges {
		t.Fatalf("recovered edges=%d, want %d", got.Edges, want.Edges)
	}
	// Spot-check adjacency, including the deleted edge staying deleted.
	var nr neighborsResp
	if code := getJSON(t, client2, ts2.URL+"/v1/graphs/g/vertices/100/neighbors", &nr); code != http.StatusOK {
		t.Fatalf("neighbors: status %d", code)
	}
	for _, n := range nr.Neighbors {
		if n == 2 {
			t.Fatal("deleted edge (100,2) resurrected by recovery")
		}
	}

	// /healthz carries the durable flag and per-graph recovery stats.
	var hz struct {
		Durable  bool                             `json:"durable"`
		Recovery map[string]lsgraph.RecoveryStats `json:"recovery"`
	}
	if code := getJSON(t, client2, ts2.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if !hz.Durable || hz.Recovery["g"].ReplayedRecords == 0 {
		t.Fatalf("healthz recovery: %+v", hz)
	}

	// A checkpoint via the endpoint bounds the next recovery: a third boot
	// loads it and replays nothing.
	var ck struct {
		Checkpoints uint64 `json:"checkpoints"`
	}
	if code := post(t, client2, ts2.URL+"/v1/graphs/g/checkpoint", &ck); code != http.StatusOK {
		t.Fatalf("checkpoint: status %d", code)
	}
	if ck.Checkpoints == 0 {
		t.Fatal("checkpoint endpoint reported zero checkpoints")
	}
	ts2.Close()

	srv3, err := Open(cfg)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer srv3.Close()
	st := srv3.store("g")
	if st == nil {
		t.Fatal("graph missing on third boot")
	}
	r := st.Recovery()
	if !r.CheckpointLoaded || r.ReplayedRecords != 0 {
		t.Fatalf("third boot should recover from checkpoint alone: %+v", r)
	}
	if st.NumEdges() != want.Edges {
		t.Fatalf("third boot edges=%d, want %d", st.NumEdges(), want.Edges)
	}
}

// TestDurableCleanShutdownCheckpoints verifies Server.Close checkpoints
// every durable graph, so a clean restart replays no WAL.
func TestDurableCleanShutdownCheckpoints(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, AutoCreate: true}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	if code := postEdges(t, client, ts.URL, "auto", "insert", ContentTypeNDJSON,
		[]uint32{1, 2}, []uint32{2, 1}); code != http.StatusAccepted {
		t.Fatalf("ingest: status %d", code)
	}
	ts.Close()
	srv.Close() // drains, checkpoints, closes

	srv2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer srv2.Close()
	st := srv2.store("auto")
	if st == nil {
		t.Fatal("auto-created graph not recovered")
	}
	r := st.Recovery()
	if !r.CheckpointLoaded || r.ReplayedRecords != 0 {
		t.Fatalf("clean restart recovery: %+v", r)
	}
	if st.NumEdges() != 2 {
		t.Fatalf("edges=%d, want 2", st.NumEdges())
	}
}

// TestDurableDropRemovesData verifies DELETE on a durable graph removes
// its on-disk state, so it does not resurrect at the next boot.
func TestDurableDropRemovesData(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, _, err := srv.CreateGraph("gone", GraphConfig{}); err != nil {
		t.Fatalf("CreateGraph: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gone", graphConfigFile)); err != nil {
		t.Fatalf("graph.json not written: %v", err)
	}
	if !srv.DropGraph("gone") {
		t.Fatal("DropGraph reported missing graph")
	}
	if _, err := os.Stat(filepath.Join(dir, "gone")); !os.IsNotExist(err) {
		t.Fatalf("graph dir survived drop: %v", err)
	}
	srv.Close()

	srv2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer srv2.Close()
	if srv2.store("gone") != nil {
		t.Fatal("dropped graph resurrected")
	}
}

// durableGraph leaves a closed durable graph of a few edges, checkpoint and
// shard logs included, under dir/name.
func durableGraph(t *testing.T, dir, name string) {
	t.Helper()
	srv, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, _, err := srv.CreateGraph(name, GraphConfig{}); err != nil {
		t.Fatalf("CreateGraph: %v", err)
	}
	st := srv.store(name)
	st.InsertEdges([]lsgraph.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
	st.Flush()
	srv.Close()
}

// TestOpenDeletesTombstone: a dropped graph's tombstone — here holding a
// complete graph, as when the removal failed right after the rename — is
// deleted by Open and never recovered.
func TestOpenDeletesTombstone(t *testing.T) {
	dir := t.TempDir()
	durableGraph(t, dir, "g")
	tomb := filepath.Join(dir, tombstonePrefix+"g")
	if err := os.Rename(filepath.Join(dir, "g"), tomb); err != nil {
		t.Fatal(err)
	}
	srv, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer srv.Close()
	if names := srv.GraphNames(); len(names) != 0 {
		t.Fatalf("recovered %v from a tombstone", names)
	}
	if _, err := os.Stat(tomb); !os.IsNotExist(err) {
		t.Fatalf("tombstone survived Open: %v", err)
	}
}

// TestOpenRefusesWALWithoutConfig: a graph directory whose WAL state
// outlived its graph.json makes Open fail, naming the directory, where it
// used to drop the graph silently; a directory with neither is ignored.
func TestOpenRefusesWALWithoutConfig(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "stray", "notes"), 0o755); err != nil {
		t.Fatal(err)
	}
	durableGraph(t, dir, "g")
	g := filepath.Join(dir, "g")
	// The checkpoint and the shard logs each are WAL state, then neither is.
	for _, rm := range []string{graphConfigFile, "checkpoint", "wal"} {
		if err := os.RemoveAll(filepath.Join(g, rm)); err != nil {
			t.Fatal(err)
		}
		srv, err := Open(Config{DataDir: dir})
		if rm == "wal" {
			if err != nil {
				t.Fatalf("Open with no WAL state left: %v", err)
			}
			srv.Close()
			break
		}
		if err == nil {
			srv.Close()
			t.Fatalf("without %s: Open recovered nothing from WAL state without graph.json and did not fail", rm)
		}
		if !strings.Contains(err.Error(), g) {
			t.Fatalf("error %q does not name the directory", err)
		}
	}
}

// TestShardsAboveVerticesRefused: a shard count above the graph's vertex
// slots, here one that wraps to 0 as a uint32, is refused with 400 before
// anything is written, and Open over a graph.json that carries one returns
// an error. Both used to panic dividing by zero shards.
func TestShardsAboveVerticesRefused(t *testing.T) {
	dir := t.TempDir()
	srv, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	for _, body := range []string{`{"shards":4294967296}`, `{"shards":9,"vertices":8}`} {
		if code := putGraph(t, ts.Client(), ts.URL, "x", body); code != http.StatusBadRequest {
			t.Fatalf("PUT %s: status %d, want 400", body, code)
		}
		if _, err := os.Stat(filepath.Join(dir, "x")); !os.IsNotExist(err) {
			t.Fatalf("PUT %s left a graph directory: %v", body, err)
		}
	}
	ts.Close()
	srv.Close()

	durableGraph(t, dir, "g")
	if err := writeGraphConfig(filepath.Join(dir, "g"), GraphConfig{Shards: 1 << 32}); err != nil {
		t.Fatal(err)
	}
	srv, err = Open(Config{DataDir: dir})
	if err == nil {
		srv.Close()
		t.Fatal("Open recovered a graph of 2³² shards")
	}
	if !strings.Contains(err.Error(), `"g"`) {
		t.Fatalf("error %q does not name the graph", err)
	}
}

// TestCheckpointEndpointOnInMemoryServer verifies the checkpoint route
// answers 409 when the server has no data directory.
func TestCheckpointEndpointOnInMemoryServer(t *testing.T) {
	srv := New(Config{AutoCreate: true})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	if code := postEdges(t, client, ts.URL, "mem", "insert", ContentTypeNDJSON, []uint32{1}, []uint32{2}); code != http.StatusAccepted {
		t.Fatalf("ingest: status %d", code)
	}
	if code := post(t, client, ts.URL+"/v1/graphs/mem/checkpoint", nil); code != http.StatusConflict {
		t.Fatalf("checkpoint on in-memory graph: status %d, want 409", code)
	}
}

// jsonDecode decodes one JSON value from r into v, quoting the body in
// the error for debuggability.
func jsonDecode(r io.Reader, v any) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%w (body %q)", err, b)
	}
	return nil
}
