package check

import (
	"encoding/base64"
	"fmt"
	"math"
	"math/rand"

	"lsgraph/internal/algo"
	"lsgraph/internal/core"
	"lsgraph/internal/engine"
	"lsgraph/internal/refgraph"
	"lsgraph/internal/serve"
)

// Mode selects which surface the simulator drives.
type Mode uint8

const (
	// ModeCore drives a bare core.Graph of one range: synchronous batches
	// (exclusive update contract), explicit growth, Snapshot views.
	ModeCore Mode = iota
	// ModeStore drives a serve.Store over a core.Paged:
	// asynchronous enqueue with a small queue bound (so backpressure
	// coalescing triggers), View pinning, Flush-then-compare verification.
	ModeStore
)

// String names the mode for test labels and replay commands: "core" or
// "store".
func (m Mode) String() string {
	if m == ModeStore {
		return "store"
	}
	return "core"
}

// Fault injects an engine-side bug for harness self-tests: inserted edges
// whose destination satisfies dst % Mod == Eq are silently dropped before
// reaching the engine (the oracle still sees them), so a working harness
// must report a divergence. The zero value injects nothing.
type Fault struct {
	Mod, Eq uint32
}

func (f Fault) drops(dst uint32) bool { return f.Mod != 0 && dst%f.Mod == f.Eq }

// SimConfig parameterizes one simulated workload.
type SimConfig struct {
	// Shards is the Store's vertex-space partition count in ModeStore
	// (default 1). ModeCore's graph is the paper's engine, one range; there
	// Shards is the partition count of the paged graph every verify reloads
	// the graph's snapshot into.
	Shards int
	// Mode selects core.Graph or serve.Store as the surface under test.
	Mode Mode
	// Engine names the engine configuration under test in ModeCore, one of
	// simEngines ("" is the default policy).
	Engine string
	// Fault, when non-zero, injects a deliberate engine-side bug so tests
	// can prove the harness catches and shrinks real divergences.
	Fault Fault
}

// simEngines are the engine configurations the sweeps cover. The default
// thresholds (array to 32, RIA to 4096) sit above any degree a 192-vertex
// universe reaches, so "small" pulls them down until a vertex walks through
// all four classes within 40 neighbors — inline to 13, array to 17, RIA to
// 37, HITree above, and back to an RIA at 25 on the way down — and "pma"
// and "riaonly" are the same thresholds under the two overflow ablations.
var simEngines = []struct {
	name string
	cfg  core.Config
}{
	{"", core.Config{}},
	{"small", core.Config{ArrayMax: 4, M: 24}},
	{"pma", core.Config{ArrayMax: 4, M: 24, Overflow: core.KindPMA}},
	{"riaonly", core.Config{ArrayMax: 4, M: 24, Overflow: core.KindRIAOnly}},
}

// engineConfig returns the named configuration of simEngines with the
// simulator's worker count.
func (c SimConfig) engineConfig() (core.Config, error) {
	for _, e := range simEngines {
		if e.name == c.Engine {
			cfg := e.cfg
			cfg.Workers = 2
			return cfg, nil
		}
	}
	return core.Config{}, fmt.Errorf("check: unknown engine configuration %q", c.Engine)
}

// simMaxVertex is the generated vertex-ID universe. It is kept below 256
// so one byte encodes an ID, and small enough that duplicate edges,
// re-inserts, and deletes of live edges all occur constantly.
const simMaxVertex = 192

// simInitVerts is the engine's initial vertex-space size: deliberately
// tiny so nearly every workload exercises vertex-space growth.
const simInitVerts = 8

// simMaxBatch bounds the edges per generated batch.
const simMaxBatch = 40

// opKind enumerates the simulator's operations.
type opKind uint8

const (
	opInsert       opKind = iota // apply an insert batch (dups and re-inserts included)
	opDelete                     // apply a delete batch (absent edges included)
	opGrow                       // grow the vertex space explicitly
	opVerify                     // full lockstep comparison against the oracle
	opKernel                     // run one analytics kernel on engine and oracle
	opView                       // pin a view/snapshot mid-stream and validate it
	opRebalance                  // move a partition boundary, then fully verify
	opDeleteVertex               // remove a vertex's edges in both directions
)

func (k opKind) String() string {
	switch k {
	case opInsert:
		return "insert"
	case opDelete:
		return "delete"
	case opGrow:
		return "grow"
	case opVerify:
		return "verify"
	case opKernel:
		return "kernel"
	case opRebalance:
		return "rebalance"
	case opDeleteVertex:
		return "delete-vertex"
	default:
		return "view"
	}
}

// op is one decoded simulator operation.
type op struct {
	kind     opKind
	src, dst []uint32 // insert/delete batches
	sel      byte     // raw selector byte: grow delta, kernel, boundary or vertex
}

// decodeProgram turns an arbitrary byte string into an op sequence. Every
// byte string is a valid program (fuzzing needs totality): the eleven
// op-kind selectors weight inserts 3x and deletes 2x, batches read one
// count byte plus two bytes per edge, and truncated records are clipped
// to the bytes available. The same decoder serves the seeded simulator,
// both engine-level fuzz targets, and replay.
func decodeProgram(data []byte) []op {
	var ops []op
	for len(data) > 0 {
		k := data[0] % 11
		data = data[1:]
		switch {
		case k <= 2: // inserts get 3/10 weight
			var o op
			o, data = decodeBatch(opInsert, data)
			if len(o.src) > 0 {
				ops = append(ops, o)
			}
		case k <= 4: // deletes 2/10
			var o op
			o, data = decodeBatch(opDelete, data)
			if len(o.src) > 0 {
				ops = append(ops, o)
			}
		case k == 5:
			ops = append(ops, op{kind: opVerify})
		case k == 6:
			if len(data) == 0 {
				return ops
			}
			ops = append(ops, op{kind: opKernel, sel: data[0]})
			data = data[1:]
		case k == 7:
			if len(data) == 0 {
				return ops
			}
			ops = append(ops, op{kind: opGrow, sel: data[0]})
			data = data[1:]
		case k == 8:
			ops = append(ops, op{kind: opView})
		case k == 9:
			if len(data) == 0 {
				return ops
			}
			ops = append(ops, op{kind: opRebalance, sel: data[0]})
			data = data[1:]
		default:
			if len(data) == 0 {
				return ops
			}
			ops = append(ops, op{kind: opDeleteVertex, sel: data[0]})
			data = data[1:]
		}
	}
	return ops
}

// decodeBatch reads one count byte and up to simMaxBatch (src,dst) byte
// pairs, clipping to the bytes available.
func decodeBatch(kind opKind, data []byte) (op, []byte) {
	if len(data) == 0 {
		return op{kind: kind}, nil
	}
	cnt := 1 + int(data[0])%simMaxBatch
	data = data[1:]
	if have := len(data) / 2; cnt > have {
		cnt = have
	}
	o := op{kind: kind, src: make([]uint32, cnt), dst: make([]uint32, cnt)}
	for i := 0; i < cnt; i++ {
		o.src[i] = uint32(data[2*i]) % simMaxVertex
		o.dst[i] = uint32(data[2*i+1]) % simMaxVertex
	}
	return o, data[2*cnt:]
}

// encodeOps is decodeProgram's canonical inverse: the returned bytes
// decode back to exactly ops. The shrinker minimizes on the op list and
// re-encodes the survivor for the replay command.
func encodeOps(ops []op) []byte {
	var out []byte
	for _, o := range ops {
		switch o.kind {
		case opInsert, opDelete:
			sel := byte(0)
			if o.kind == opDelete {
				sel = 3
			}
			out = append(out, sel, byte(len(o.src)-1))
			for i := range o.src {
				out = append(out, byte(o.src[i]), byte(o.dst[i]))
			}
		case opVerify:
			out = append(out, 5)
		case opKernel:
			out = append(out, 6, o.sel)
		case opGrow:
			out = append(out, 7, o.sel)
		case opView:
			out = append(out, 8)
		case opRebalance:
			out = append(out, 9, o.sel)
		case opDeleteVertex:
			out = append(out, 10, o.sel)
		}
	}
	return out
}

// runner executes one op sequence on a fresh engine in lockstep with a
// fresh oracle.
type runner struct {
	cfg       SimConfig
	g         *core.Graph // ModeCore's graph
	pg        *core.Paged // ModeStore's: the graph st serves
	st        *serve.Store
	ref       *refgraph.Graph
	lastEpoch uint64

	// held is a view pinned at an earlier view op and kept across every
	// publish since — appends to the pages it reads, cleaning, page reuse,
	// table recycling, boundary moves — with heldAdj a deep copy of
	// what it read when pinned. A publish that wrote anywhere an older
	// epoch can reach shows up as a difference between the two.
	held    *serve.View
	heldAdj [][]uint32

	// seen accumulates, over ModeCore's verifications, the bytes each
	// overflow class held: a non-zero field is a class the workload reached.
	seen core.MemoryBreakdown
}

// runOps builds the configured surface, executes ops in lockstep against
// the oracle, runs a final full verification, and reports the first
// divergence or invariant violation. Panics on the caller's goroutine
// (corrupt offsets, routing bugs) are converted to errors so the shrinker
// and fuzz targets can treat them like any other failure.
func runOps(ops []op, cfg SimConfig) error {
	_, err := run(ops, cfg)
	return err
}

// run is runOps returning the runner too, for what it saw on the way.
func run(ops []op, cfg SimConfig) (r *runner, err error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	r = &runner{cfg: cfg, ref: refgraph.New(simInitVerts)}
	if cfg.Mode == ModeStore {
		r.pg = core.NewPaged(simInitVerts, cfg.Shards, 2)
		r.st = serve.New(r.pg, serve.Options{MaxQueue: 4})
	} else {
		ecfg, err := cfg.engineConfig()
		if err != nil {
			return nil, err
		}
		r.g = core.New(simInitVerts, ecfg)
	}
	defer func() {
		if r.held != nil {
			r.held.Release()
		}
		if r.st != nil {
			r.st.Close()
		}
	}()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	for i, o := range ops {
		if err := r.step(o); err != nil {
			return r, fmt.Errorf("op %d (%s): %w", i, o.kind, err)
		}
	}
	if err := r.verify(); err != nil {
		return r, fmt.Errorf("final verify: %w", err)
	}
	if err := r.checkHeld(); err != nil {
		return r, fmt.Errorf("final held view: %w", err)
	}
	return r, nil
}

// checkHeld compares the long-pinned view against the copy taken when it
// was pinned; every read surface of an old epoch must be frozen.
func (r *runner) checkHeld() error {
	v := r.held
	if v == nil {
		return nil
	}
	if int(v.NumVertices()) != len(r.heldAdj) {
		return fmt.Errorf("held view (epoch %d) has %d vertices, had %d when pinned", v.Epoch(), v.NumVertices(), len(r.heldAdj))
	}
	var m uint64
	for u, want := range r.heldAdj {
		got := v.Neighbors(uint32(u))
		if len(got) != len(want) || v.Degree(uint32(u)) != uint32(len(want)) {
			return fmt.Errorf("held view (epoch %d) vertex %d: degree %d, had %d when pinned", v.Epoch(), u, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("held view (epoch %d) vertex %d neighbor %d: %d, was %d when pinned", v.Epoch(), u, i, got[i], want[i])
			}
		}
		m += uint64(len(want))
	}
	if m != v.NumEdges() {
		return fmt.Errorf("held view (epoch %d) edge count %d, degree sum %d", v.Epoch(), v.NumEdges(), m)
	}
	return nil
}

// rehold checks and releases the held view, then pins the current state in
// its place.
func (r *runner) rehold() error {
	if err := r.checkHeld(); err != nil {
		return err
	}
	if r.held != nil {
		r.held.Release()
	}
	v := r.st.View()
	r.held, r.heldAdj = v, make([][]uint32, v.NumVertices())
	for u := range r.heldAdj {
		r.heldAdj[u] = append([]uint32(nil), v.Neighbors(uint32(u))...)
	}
	return nil
}

func (r *runner) step(o op) error {
	switch o.kind {
	case opInsert:
		return r.insert(o)
	case opDelete:
		return r.delete(o)
	case opGrow:
		n := r.ref.NumVertices() + 1 + uint32(o.sel)%16
		if r.st != nil {
			// The serving layer has no explicit grow; reserving the logical
			// bound is its documented concurrent-safe growth path.
			r.pg.ReserveVertices(n)
		} else {
			r.g.EnsureVertices(n)
		}
		r.ref.EnsureVertices(n)
		return nil
	case opVerify:
		return r.verify()
	case opKernel:
		return r.kernel(o.sel)
	case opRebalance:
		return r.rebalance(o.sel)
	case opDeleteVertex:
		return r.deleteVertex(o.sel)
	default:
		return r.view()
	}
}

// deleteVertex removes every edge of the vertex the selector names, in both
// directions: Graph.DeleteVertex on the bare engine, the equivalent delete
// batch through the store (which has no such call). One op takes a hub from
// whatever class it holds straight to an empty block.
func (r *runner) deleteVertex(sel byte) error {
	n := r.ref.NumVertices()
	if n == 0 {
		return nil
	}
	v := uint32(sel) % n
	var src, dst []uint32
	for _, u := range r.ref.Neighbors(v) {
		src, dst = append(src, v, u), append(dst, u, v)
	}
	if r.st != nil {
		r.st.DeleteBatch(src, dst)
	} else {
		r.g.DeleteVertex(v)
	}
	for i := range src {
		r.ref.Delete(src[i], dst[i])
	}
	return nil
}

// rebalance derives a legal boundary move from the selector byte (which
// boundary, and where in its legal window the new start lands), executes
// it through the Store, and immediately re-verifies the full graph against
// the oracle — splices must be invisible to every read surface. ModeCore's
// graph is one range with nothing to move, so there, as for selectors with
// no legal move (single shard, or adjacent boundaries with no room) and
// moves the store rejects as no-ops (core.ErrNoMove), it decodes to
// nothing.
func (r *runner) rebalance(sel byte) error {
	S := r.cfg.Shards
	if r.st == nil || S < 2 {
		return nil
	}
	starts, n := r.st.Partition().Starts, r.st.NumVertices()
	k := int(sel) % (S - 1)
	// Legal new starts for boundary k keep every shard non-empty:
	// (Starts[k], next) exclusive, where next is the following boundary.
	lo := starts[k] + 1
	hi := n
	if k+2 < S {
		hi = starts[k+2]
	}
	if hi <= lo {
		return nil
	}
	h := uint32(sel) * 0x9E3779B1 // decorrelate the cut from the boundary choice
	cut := lo + (h>>8)%(hi-lo)
	_, _, err := r.st.MoveBoundary(k, cut)
	if err == core.ErrNoMove {
		return nil
	}
	if err != nil {
		return fmt.Errorf("MoveBoundary(%d, %d): %w", k, cut, err)
	}
	return r.verify()
}

// batchBound returns 1 + the largest ID the batch references.
func batchBound(src, dst []uint32) uint32 {
	var b uint32
	for i := range src {
		if src[i]+1 > b {
			b = src[i] + 1
		}
		if dst[i]+1 > b {
			b = dst[i] + 1
		}
	}
	return b
}

func (r *runner) insert(o op) error {
	src, dst := o.src, o.dst
	if f := r.cfg.Fault; f.Mod != 0 {
		fs := make([]uint32, 0, len(src))
		fd := make([]uint32, 0, len(dst))
		for i := range src {
			if !f.drops(dst[i]) {
				fs = append(fs, src[i])
				fd = append(fd, dst[i])
			}
		}
		src, dst = fs, fd
	}
	bound := batchBound(o.src, o.dst)
	r.ref.EnsureVertices(bound)
	if r.st != nil {
		r.st.InsertBatch(src, dst)
	} else {
		r.g.EnsureVertices(bound)
		r.g.InsertBatch(src, dst)
	}
	for i := range o.src {
		r.ref.Insert(o.src[i], o.dst[i])
	}
	return nil
}

func (r *runner) delete(o op) error {
	bound := batchBound(o.src, o.dst)
	r.ref.EnsureVertices(bound)
	if r.st != nil {
		r.st.DeleteBatch(o.src, o.dst)
	} else {
		r.g.EnsureVertices(bound)
		r.g.DeleteBatch(o.src, o.dst)
	}
	for i := range o.src {
		r.ref.Delete(o.src[i], o.dst[i])
	}
	return nil
}

// verify is the full lockstep comparison: structural invariants of every
// shard — its runs and pages in ModeStore, its vertex blocks and overflow
// structures in ModeCore — then exact vertex/edge/adjacency agreement with
// the oracle — of the Store's view itself in ModeStore (after Flush, with
// epoch monotonicity) — then, in ModeCore, CSR consistency of a fresh
// snapshot and of a paged graph loaded from it.
func (r *runner) verify() error {
	if r.st != nil {
		r.st.Flush()
		v := r.st.View()
		defer v.Release()
		if e := v.Epoch(); e < r.lastEpoch {
			return fmt.Errorf("view epoch moved backwards: %d after %d", e, r.lastEpoch)
		} else {
			r.lastEpoch = e
		}
		if err := compareGraphs(v, r.ref); err != nil {
			return err
		}
		if err := r.checkHeld(); err != nil {
			return err
		}
		// Flush drained the queue and the test goroutine is the only
		// enqueuer, so the writer is quiescent: the deep shard walk is safe
		// here.
		return r.pg.CheckInvariants()
	}
	r.sawClasses()
	if err := r.g.CheckInvariants(); err != nil {
		return err
	}
	if err := compareGraphs(r.g, r.ref); err != nil {
		return err
	}
	if err := r.hasProbes(); err != nil {
		return err
	}
	snap := r.g.Snapshot()
	if err := Snapshot(snap, r.ref); err != nil {
		return err
	}
	return r.reload(snap)
}

// engineClasses says which overflow classes — array, RIA, HITree or PMA — a
// named engine configuration's vertices can hold.
var engineClasses = map[string][3]bool{
	"small":   {true, true, true},
	"pma":     {false, false, true},
	"riaonly": {true, true, false},
}

// classesSeen reports which of them the verifies have seen held.
func (r *runner) classesSeen() [3]bool {
	return [3]bool{r.seen.ArrayPayload > 0, r.seen.RIAPayload > 0, r.seen.Trees > 0}
}

// sawClasses adds the live structures' bytes to r.seen.
func (r *runner) sawClasses() {
	b := r.g.MemoryBreakdown()
	r.seen.ArrayPayload += b.ArrayPayload
	r.seen.RIAPayload += b.RIAPayload
	r.seen.Trees += b.Trees
}

// reload round-trips the graph through its CSR as recovery loads a
// checkpoint: a paged graph of cfg.Shards ranges bulk-loaded from snap
// must pass the deep walk of its tables and pages, and a Store serving it
// must agree with the oracle.
func (r *runner) reload(snap *core.Snapshot) error {
	offs, adj := snap.CSR()
	g := core.NewPaged(snap.NumVertices(), r.cfg.Shards, 2)
	if err := g.LoadCSR(0, offs, adj); err != nil {
		return err
	}
	if err := g.CheckInvariants(); err != nil {
		return fmt.Errorf("reloaded from CSR: %w", err)
	}
	st := serve.New(g, serve.Options{})
	defer st.Close()
	v := st.View()
	defer v.Release()
	if err := compareGraphs(v, r.ref); err != nil {
		return fmt.Errorf("reloaded from CSR: %w", err)
	}
	return nil
}

// hasProbes spot-checks the point-lookup path (inline search plus
// overflow Has), which full adjacency comparison does not exercise.
func (r *runner) hasProbes() error {
	n := r.ref.NumVertices()
	if n == 0 {
		return nil
	}
	for s := uint32(0); s < 8; s++ {
		v := (s * 37) % n
		u := (s*53 + 11) % n
		if got, want := r.g.Has(v, u), r.ref.Has(v, u); got != want {
			return fmt.Errorf("Has(%d,%d) = %v, oracle %v", v, u, got, want)
		}
	}
	return nil
}

// compareGraphs asserts got and the oracle agree exactly on vertex count,
// edge count, every degree, and every adjacency list.
func compareGraphs(got engine.Graph, ref *refgraph.Graph) error {
	if g, w := got.NumVertices(), ref.NumVertices(); g != w {
		return fmt.Errorf("NumVertices %d, oracle %d", g, w)
	}
	if g, w := got.NumEdges(), ref.NumEdges(); g != w {
		return fmt.Errorf("NumEdges %d, oracle %d", g, w)
	}
	for v := uint32(0); v < ref.NumVertices(); v++ {
		if g, w := got.Degree(v), ref.Degree(v); g != w {
			return fmt.Errorf("Degree(%d) = %d, oracle %d", v, g, w)
		}
	}
	return Blocks(got, ref)
}

// kernel runs one analytics kernel. ModeCore compares the kernel's result
// on the live graph against the oracle. ModeStore flushes, pins a view,
// and compares the kernel on the view against the oracle.
func (r *runner) kernel(sel byte) error {
	n := r.ref.NumVertices()
	if n == 0 {
		return nil
	}
	if r.st != nil {
		r.st.Flush()
		v := r.st.View()
		defer v.Release()
		if err := runKernelPair(sel, v, r.ref, n); err != nil {
			return fmt.Errorf("view vs oracle: %w", err)
		}
		return nil
	}
	return runKernelPair(sel, r.g, r.ref, n)
}

// runKernelPair runs the selected kernel on both graphs (single worker,
// so float accumulation order is identical, except BFS depths, which no
// worker count changes) and compares results.
func runKernelPair(sel byte, a, b engine.Graph, n uint32) error {
	switch src := uint32(sel) % n; sel % 5 {
	case 0:
		// Depths do not depend on the worker count, so one side runs two
		// workers and the race detector sees both directions' level writes.
		if err := equalInt32s(algo.BFSLevels(a, src, 2), algo.BFSLevels(b, src, 1)); err != nil {
			return fmt.Errorf("BFSLevels(%d): %w", src, err)
		}
	case 1:
		if err := equalUint32s(algo.CC(a, 1), algo.CC(b, 1)); err != nil {
			return fmt.Errorf("CC: %w", err)
		}
	case 2:
		if err := equalFloats(algo.PageRank(a, 5, 1), algo.PageRank(b, 5, 1)); err != nil {
			return fmt.Errorf("PageRank: %w", err)
		}
	case 3:
		if err := equalUint32s(algo.KCore(a, 1), algo.KCore(b, 1)); err != nil {
			return fmt.Errorf("KCore: %w", err)
		}
	default:
		if ta, tb := algo.TriangleCount(a, 1).Triangles, algo.TriangleCount(b, 1).Triangles; ta != tb {
			return fmt.Errorf("TriangleCount: %d vs %d", ta, tb)
		}
	}
	return nil
}

func equalInt32s(a, b []int32) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("index %d: %d vs %d", i, a[i], b[i])
		}
	}
	return nil
}

func equalUint32s(a, b []uint32) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("index %d: %d vs %d", i, a[i], b[i])
		}
	}
	return nil
}

func equalFloats(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return fmt.Errorf("index %d: %g vs %g", i, a[i], b[i])
		}
	}
	return nil
}

// view exercises mid-stream read paths without quiescing the writer:
// ModeStore pins a view while batches may still be in flight and
// checks its self-consistency (degree sums matching NumEdges, sorted
// in-range adjacency, a block path yielding exactly it, epoch monotonicity);
// ModeCore takes a snapshot and checks it for CSR well-formedness. In
// ModeStore it also checks the view held since the previous view op
// against what that view read when it was pinned, and re-pins.
func (r *runner) view() error {
	if r.st == nil {
		snap := r.g.Snapshot()
		if err := Snapshot(snap, nil); err != nil {
			return err
		}
		if snap.NumEdges() != r.g.NumEdges() {
			return fmt.Errorf("snapshot has %d edges, graph %d", snap.NumEdges(), r.g.NumEdges())
		}
		return nil
	}
	if err := r.rehold(); err != nil {
		return err
	}
	v := r.st.View()
	defer v.Release()
	if e := v.Epoch(); e < r.lastEpoch {
		return fmt.Errorf("view epoch moved backwards: %d after %d", e, r.lastEpoch)
	} else {
		r.lastEpoch = e
	}
	n := v.NumVertices()
	var m uint64
	for u := uint32(0); u < n; u++ {
		ns := v.Neighbors(u)
		if uint32(len(ns)) != v.Degree(u) {
			return fmt.Errorf("view vertex %d: %d neighbors but degree %d", u, len(ns), v.Degree(u))
		}
		for i, w := range ns {
			if w >= n {
				return fmt.Errorf("view vertex %d neighbor %d outside [0,%d)", u, w, n)
			}
			if i > 0 && w <= ns[i-1] {
				return fmt.Errorf("view vertex %d adjacency unsorted at %d", u, i)
			}
		}
		if err := engine.CheckBlocks(func(y func([]uint32) bool) { v.NeighborBlocks(u, y) }, ns); err != nil {
			return fmt.Errorf("view vertex %d: %w", u, err)
		}
		m += uint64(len(ns))
	}
	if m != v.NumEdges() {
		return fmt.Errorf("view degree sum %d != NumEdges %d", m, v.NumEdges())
	}
	return nil
}

// shrinkBudget bounds the number of candidate re-executions one shrink
// may spend, keeping worst-case failure reporting fast.
const shrinkBudget = 250

// shrinkOps minimizes a failing op sequence with bounded delta-debugging:
// remove geometrically shrinking chunks of ops, then halve and trim edge
// lists inside the surviving batches, keeping every candidate that still
// fails. The result is the smallest failing sequence found within the
// budget (always itself a failing program, never empty).
func shrinkOps(ops []op, cfg SimConfig) []op {
	budget := shrinkBudget
	fails := func(cand []op) bool {
		if budget <= 0 {
			return false
		}
		budget--
		return runOps(cand, cfg) != nil
	}
	cur := ops
	for changed := true; changed && budget > 0; {
		changed = false
		// Remove chunks of ops, largest first.
		for chunk := len(cur) / 2; chunk >= 1; chunk /= 2 {
			for i := 0; i+chunk <= len(cur) && budget > 0; {
				cand := make([]op, 0, len(cur)-chunk)
				cand = append(cand, cur[:i]...)
				cand = append(cand, cur[i+chunk:]...)
				if fails(cand) {
					cur, changed = cand, true
				} else {
					i += chunk
				}
			}
		}
		// Shrink edge lists inside the surviving batches: try each half,
		// then dropping the last edge, as long as something sticks.
		for i := 0; i < len(cur) && budget > 0; i++ {
			if cur[i].kind != opInsert && cur[i].kind != opDelete {
				continue
			}
			for len(cur[i].src) > 1 && budget > 0 {
				o, n := cur[i], len(cur[i].src)
				shrunk := false
				for _, b := range [][2]int{{0, n / 2}, {n / 2, n}, {0, n - 1}} {
					cand := append([]op{}, cur...)
					cand[i] = op{kind: o.kind, src: o.src[b[0]:b[1]], dst: o.dst[b[0]:b[1]]}
					if fails(cand) {
						cur, shrunk, changed = cand, true, true
						break
					}
				}
				if !shrunk {
					break
				}
			}
		}
	}
	return cur
}

// genProgram derives a deterministic random byte program from seed;
// lengths vary between roughly 100 and 500 bytes so workloads span a few
// ops to several dozen.
func genProgram(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 96+rng.Intn(416))
	rng.Read(data)
	return data
}

// genClassWalk derives a deterministic program that walks a few hub
// vertices up through every overflow class of the "small" thresholds and
// back down, a handful of edges at a time so that every threshold is
// crossed by single-edge updates in both directions: inserts of both
// directions of hub edges until the hubs hold 45 to 70 neighbors, then
// deletes of the same edges in another order, then a partial climb back.
// Boundary moves, verifications, views, kernels and the odd DeleteVertex of
// a hub are interleaved throughout, so hubs get flattened and emptied in
// every class, and in a Store change shard. The result is an ordinary byte
// program.
func genClassWalk(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	hubs := []uint32{uint32(3 + rng.Intn(20)), uint32(60 + rng.Intn(40)), uint32(130 + rng.Intn(50))}
	var ops []op
	var live [][2]uint32 // hub edges currently inserted, as (hub, neighbor)
	model := refgraph.New(simMaxVertex)
	after := func() {
		// A verification while a hub sits in the four-wide array class, or
		// the sweep could cross it between two verifies and never see it.
		for _, h := range hubs {
			if d := model.Degree(h); d > 13 && d <= 17 {
				ops = append(ops, op{kind: opVerify})
				break
			}
		}
		switch rng.Intn(8) {
		case 0, 1:
			ops = append(ops, op{kind: opRebalance, sel: byte(rng.Intn(256))})
		case 2:
			ops = append(ops, op{kind: opVerify})
		case 3:
			ops = append(ops, op{kind: opView})
		case 4:
			ops = append(ops, op{kind: opKernel, sel: byte(rng.Intn(256))})
		}
	}
	batch := func(kind opKind, es [][2]uint32) {
		o := op{kind: kind}
		for _, e := range es {
			o.src, o.dst = append(o.src, e[0], e[1]), append(o.dst, e[1], e[0])
			if kind == opInsert {
				model.Insert(e[0], e[1])
				model.Insert(e[1], e[0])
			} else {
				model.Delete(e[0], e[1])
				model.Delete(e[1], e[0])
			}
		}
		ops = append(ops, o)
		after()
	}
	climb := func(target int) {
		for len(live) < target*len(hubs) {
			var es [][2]uint32
			for i := 1 + rng.Intn(4); i > 0; i-- {
				es = append(es, [2]uint32{hubs[rng.Intn(len(hubs))], uint32(rng.Intn(simMaxVertex))})
			}
			live = append(live, es...)
			batch(opInsert, es)
		}
	}
	descend := func(keep int) {
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		for len(live) > keep {
			k := min(1+rng.Intn(4), len(live)-keep)
			batch(opDelete, live[len(live)-k:])
			live = live[:len(live)-k]
		}
	}
	climb(45 + rng.Intn(25))
	ops = append(ops, op{kind: opVerify})
	descend(0)
	ops = append(ops, op{kind: opVerify})
	climb(30)
	h := hubs[rng.Intn(len(hubs))]
	for _, u := range append([]uint32(nil), model.Neighbors(h)...) {
		model.Delete(h, u)
		model.Delete(u, h)
	}
	ops = append(ops, op{kind: opDeleteVertex, sel: byte(h)}, op{kind: opVerify})
	descend(20)
	return encodeOps(ops)
}

// RunBytes decodes one byte program (any byte string is valid — the same
// decoder backs the fuzz targets) and executes it under cfg, without
// shrinking. It returns the first divergence or invariant violation.
func RunBytes(data []byte, cfg SimConfig) error {
	return runOps(decodeProgram(data), cfg)
}

// RunSeed generates the seed's workload, executes it under cfg and, on
// failure, shrinks the program to a minimal failing op sequence. The
// returned error carries the minimized divergence plus two replay
// commands: an exact-program replay (TestSimReplay reads the base64
// program from the environment) and the full-seed rerun.
func RunSeed(seed int64, cfg SimConfig) error {
	return runShrunk(decodeProgram(genProgram(seed)), cfg, fmt.Sprintf(
		"go test -run 'TestSimSeeds/%s/shards=%d/seed=%d' ./internal/check", cfg.Mode, cfg.Shards, seed))
}

// runShrunk executes ops under cfg and, on failure, shrinks them and
// reports the minimal program with its replay command, and rerun, the
// command that repeats the whole workload.
func runShrunk(ops []op, cfg SimConfig, rerun string) error {
	err := runOps(ops, cfg)
	if err == nil {
		return nil
	}
	min := shrinkOps(ops, cfg)
	merr := runOps(min, cfg)
	if merr == nil {
		// The shrunk sequence no longer reproduces (timing-dependent
		// failure); report the original program instead.
		min, merr = ops, err
	}
	prog := base64.StdEncoding.EncodeToString(encodeOps(min))
	return fmt.Errorf("differential simulator failed (shards %d, mode %s, engine %q): %w\n"+
		"minimized to %d ops (from %d); replay the minimal program with:\n"+
		"  LSGRAPH_CHECK_REPLAY=%s LSGRAPH_CHECK_SHARDS=%d LSGRAPH_CHECK_MODE=%s LSGRAPH_CHECK_ENGINE=%s go test -run 'TestSimReplay' ./internal/check\n"+
		"or rerun the full seed with:\n  %s",
		cfg.Shards, cfg.Mode, cfg.Engine, merr, len(min), len(ops),
		prog, cfg.Shards, cfg.Mode, cfg.Engine, rerun)
}
