package serve

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lsgraph/internal/core"
	"lsgraph/internal/parallel"
	"lsgraph/internal/wal"
)

// ErrNotDurable is returned by Checkpoint on a Store opened without a
// durability directory.
var ErrNotDurable = errors.New("serve: store has no durability configured")

// ErrClosed is returned by Checkpoint on a Store that has been closed.
var ErrClosed = errors.New("serve: store closed")

// DurabilityOptions configures the WAL + checkpoint subsystem of a Store
// opened with OpenDurable.
type DurabilityOptions struct {
	// Dir is the durability directory (created if missing). Required.
	Dir string
	// Fsync is the group-commit policy for WAL appends. Default interval.
	Fsync wal.FsyncPolicy
	// FsyncInterval is the group-commit timer period for
	// wal.FsyncInterval. Default 50ms.
	FsyncInterval time.Duration
	// SegmentBytes is the WAL segment rotation size. Default 16 MiB.
	SegmentBytes int64
	// CheckpointEvery, when > 0, triggers an automatic background
	// checkpoint (followed by segment GC) each time that many records have
	// been logged since the last one. 0 means checkpoints happen only via
	// explicit Checkpoint calls.
	CheckpointEvery int
	// FS is the file system the WAL, checkpoints and recovery write
	// through (see wal.FS); nil is the OS.
	FS wal.FS
}

// durability is a Store's durable-state bundle.
type durability struct {
	opt DurabilityOptions
	// log is the append side, opened once recovery has applied the WAL tail.
	log *wal.Log
	// recovery summarizes what OpenDurable loaded and replayed.
	recovery wal.RecoveryStats

	sinceCkpt   atomic.Int64 // records logged since the last checkpoint
	ckptRunning atomic.Bool  // at most one auto-checkpoint in flight
	ckptMu      sync.Mutex   // serializes checkpoint writers

	checkpoints atomic.Uint64
	segsGCed    atomic.Uint64
}

// walOp maps a queue op to its WAL record op.
func walOp(op int) uint8 {
	if op == opDelete {
		return wal.OpDelete
	}
	return wal.OpInsert
}

// OpenDurable opens (creating or recovering) a durable Store over a fresh
// core.Paged of at least n vertices in shards shards, whose loads and
// batches run on up to workers goroutines (0: GOMAXPROCS). Recovery is
// checkpointing run backwards, on the graph before any writer exists, in
// five steps: load the newest valid checkpoint; scan the WAL, packing the
// edges of every record past its log's watermark into keys in global LSN
// order; reduce them to their net effect, each edge's last op
// (tail.reduce); merge that into the checkpoint's runs with the batch
// merge's find, place and write, each run written once to the shards' pages
// (core.Paged.LoadCSR); then start the Store — one first publish per shard,
// which only seals its table — and attach the log. So nothing replayed is
// re-logged, the Store's counters start at zero, and a crash mid-recovery
// changes nothing but the cut at a torn tail, which the next recovery
// repeats (wal.Replay). The shard layout is not recovered: the store
// reopens on shards shards with a uniform partition map, by which the merge
// routes every vertex. The Store appends one record per batch to log 0
// (wal/shard-000) at any shard count; the other logs of a directory written
// by a layout that logged per shard replay like log 0, and the first
// checkpoint covers them, so its GC deletes them.
func OpenDurable(n uint32, shards, workers int, opt Options, dopt DurabilityOptions) (*Store, error) {
	if dopt.Dir == "" {
		return nil, errors.New("serve: durability requires a directory")
	}
	start := time.Now()
	ck, err := wal.LoadLatestCheckpoint(dopt.Dir)
	if err != nil {
		return nil, err
	}
	rs := wal.RecoveryStats{
		CheckpointLoaded: ck != nil,
		LoadNanos:        time.Since(start).Nanoseconds(),
	}
	if ck == nil {
		ck = &wal.Checkpoint{} // never checkpointed: no vertices, shards or watermarks
	}
	rs.CheckpointVertices = ck.N
	d := &durability{opt: dopt}
	// floor is the highest LSN the recovered state reflects: the loaded
	// checkpoint's watermarks and every scanned record. The log continues
	// after it, and the first epoch carries it.
	var floor uint64
	for _, wm := range ck.Watermarks {
		floor = max(floor, wm)
	}

	t := time.Now()
	var tl tail
	maxLSN, rst, err := wal.Replay(dopt.Dir, ck.Watermark, dopt.FS, tl.add)
	if err != nil {
		return nil, fmt.Errorf("serve: recovery replay: %w", err)
	}
	rs.ScanNanos = time.Since(t).Nanoseconds()
	rs.ReplayedRecords = rst.RecordsReplayed
	rs.ReplayedEdges = rst.EdgesReplayed
	rs.Segments = rst.Segments
	rs.TruncatedSegments = rst.TruncatedSegments
	rs.TornBytes = rst.TornBytes
	rs.MaxLSN = maxLSN
	floor = max(floor, maxLSN)

	var delta core.Delta
	if tl.n > 0 {
		t = time.Now()
		delta = tl.reduce(workers)
		rs.ReduceNanos = time.Since(t).Nanoseconds()
	}

	t = time.Now()
	g := core.NewPaged(max(n, ck.N), shards, workers)
	g.ReserveVertices(tl.bound) // the tail's own IDs, as enqueue grew the space
	if err := mergeCheckpoint(g, ck.Shards, delta); err != nil {
		return nil, fmt.Errorf("serve: recovery: %w", err)
	}
	for _, sh := range ck.Shards {
		rs.CheckpointEdges += uint64(len(sh.Adj))
	}
	rs.MergeNanos = time.Since(t).Nanoseconds()

	d.log, err = wal.OpenLog(dopt.Dir, 1, floor, wal.Options{
		Fsync:         dopt.Fsync,
		FsyncInterval: dopt.FsyncInterval,
		SegmentBytes:  dopt.SegmentBytes,
		FS:            dopt.FS,
	})
	if err != nil {
		return nil, err
	}
	t = time.Now()
	s := launch(g, opt, floor)
	rs.PublishNanos = time.Since(t).Nanoseconds()
	rs.DurationNanos = time.Since(start).Nanoseconds()
	d.recovery = rs
	s.dur = d
	track(s)
	return s, nil
}

// mergeCheckpoint loads the checkpoint's shard CSRs into g, each merged with
// the delta's edges whose sources lie from its first vertex up to the next
// shard's: the first shard also takes those below it, the last those beyond
// every shard, and with no shard at all the delta loads alone.
func mergeCheckpoint(g *core.Paged, shards []wal.ShardSnap, d core.Delta) error {
	var nonEmpty []*wal.ShardSnap // loadCheckpoint orders only these
	for i := range shards {
		if len(shards[i].Offs) > 1 {
			nonEmpty = append(nonEmpty, &shards[i])
		}
	}
	if len(nonEmpty) == 0 {
		nonEmpty = append(nonEmpty, &wal.ShardSnap{Offs: []uint64{0}})
	}
	from := 0
	for i, sh := range nonEmpty {
		to := len(d.Keys)
		if i+1 < len(nonEmpty) {
			to, _ = slices.BinarySearch(d.Keys, uint64(nonEmpty[i+1].Base)<<32)
		}
		part := core.Delta{Keys: d.Keys[from:to], Del: d.Del[from:to]}
		if err := g.LoadCSR(sh.Base, sh.Offs, sh.Adj, part); err != nil {
			return fmt.Errorf("checkpoint shard at vertex %d: %w", sh.Base, err)
		}
		from = to
	}
	return nil
}

// tail is the WAL tail as recovery scans it: every replayed record's edges
// packed into src<<32|dst keys in LSN order — in chunks of tailChunk keys,
// so that an unknown total costs no regrowth — and where each run of
// consecutive same-op records starts. The vertex space grows from the
// records' own IDs, as the Store's enqueue grew it when they were logged; a
// record naming an ID enqueue would have refused (checkBatch) fails the
// recovery.
type tail struct {
	chunks [][]uint64
	n      int   // keys in all
	runs   []int // index of each run's first key; consecutive runs alternate op
	del0   bool  // run 0 deletes
	op     uint8 // the last run's op
	bound  uint32
}

// tailChunk is the keys in one of a tail's chunks.
const tailChunk = 1 << 16

// add is the wal.Replay callback.
func (t *tail) add(r wal.Record) error {
	if err := checkBatch(r.Src, r.Dst); err != nil {
		return fmt.Errorf("WAL record %d: %w", r.LSN, err)
	}
	if len(r.Src) == 0 {
		return nil
	}
	if len(t.runs) == 0 {
		t.del0 = r.Op == wal.OpDelete
	}
	if len(t.runs) == 0 || r.Op != t.op {
		t.runs, t.op = append(t.runs, t.n), r.Op
	}
	for i, v := range r.Src {
		c := len(t.chunks) - 1
		if c < 0 || len(t.chunks[c]) == tailChunk {
			t.chunks, c = append(t.chunks, make([]uint64, 0, tailChunk)), c+1
		}
		t.chunks[c] = append(t.chunks[c], uint64(v)<<32|uint64(r.Dst[i]))
		t.bound = max(t.bound, v+1, r.Dst[i]+1)
	}
	t.n += len(r.Src)
	return nil
}

// reduce brings the tail to its net effect, which is exact under set
// semantics: an edge ends as the last record naming it left it, and the
// records that do not name it change nothing about it. One sort finds each
// edge's last op: every key is repacked with its run's index below the edge
// (src and dst narrowed to the tail's ID width), so equal edges sort by run,
// and of each edge only the key of its last run is kept — its op is the
// run's, since runs alternate. That is O(t log t) for t edges however often
// the op changes. The sort is a radix sort with p workers: one pass repacks
// the chunks in place and counts the keys' top digits, one scatters them by
// digit into a single array — the only copy of the tail it makes — and each
// digit's few keys are then sorted where they lie. Only a tail whose IDs
// leave no room for the run index (beyond 2³¹ vertices with op changes)
// sorts (edge, run) pairs instead.
func (t *tail) reduce(p int) core.Delta {
	idBits := uint(bits.Len32(t.bound - 1))
	runBits := uint(bits.Len(uint(len(t.runs) - 1)))
	if 2*idBits+runBits > 64 {
		ks := slices.Concat(t.chunks...)
		t.chunks = nil
		return t.reducePairs(ks)
	}
	if p <= 0 {
		p = parallel.Procs
	}
	// The digit: the edges' top bits, about 16 keys to each value of it, so
	// that an edge's keys share one.
	width := 2*idBits + runBits
	digit := min(2*idBits, uint(max(bits.Len(uint(t.n))-4, 1)), 8)
	shift, R := width-digit, 1<<digit
	ks, hist := make([]uint64, t.n), make([]int, p*R)
	parallel.Workers(p, func(w int) {
		c := hist[w*R : (w+1)*R]
		for ci := w; ci < len(t.chunks); ci += p {
			at := ci * tailChunk
			r, _ := slices.BinarySearch(t.runs, at+1)
			r-- // the run of the chunk's first key
			for i, k := range t.chunks[ci] {
				for r+1 < len(t.runs) && t.runs[r+1] <= at+i {
					r++
				}
				k = (k>>32<<idBits|k&math.MaxUint32)<<runBits | uint64(r)
				t.chunks[ci][i] = k
				c[k>>shift]++
			}
		}
	})
	// Each worker's offsets: digits in order, workers in order within one.
	pos := 0
	for d := 0; d < R; d++ {
		for w := 0; w < p; w++ {
			c := &hist[w*R+d]
			pos, *c = pos+*c, pos
		}
	}
	parallel.Workers(p, func(w int) {
		off := hist[w*R : (w+1)*R]
		for ci := w; ci < len(t.chunks); ci += p {
			for _, k := range t.chunks[ci] {
				ks[off[k>>shift]] = k
				off[k>>shift]++
			}
		}
	})
	t.chunks = nil

	// Sort each digit's keys where they lie and keep, at its front, each
	// edge's last: unpacked, with its op. Then close the gaps between digits.
	ends := hist[(p-1)*R:] // the last worker's offsets end each digit
	start := func(d int) int {
		if d == 0 {
			return 0
		}
		return ends[d-1]
	}
	kept, del, bufs := make([]int, R), make([]bool, len(ks)), make([][]uint64, p)
	parallel.ForChunkW(R, p, func(w, lo, hi int) {
		for d := lo; d < hi; d++ {
			b, at := ks[start(d):ends[d]], start(d)
			if cap(bufs[w]) < len(b) {
				bufs[w] = make([]uint64, len(b))
			}
			parallel.SortSeq(b, bufs[w], 1<<shift-1)
			j := 0
			for i, k := range b {
				if e := k >> runBits; i+1 == len(b) || b[i+1]>>runBits != e {
					b[j], del[at+j] = e>>idBits<<32|e&(1<<idBits-1), t.runDeletes(int(k&(1<<runBits-1)))
					j++
				}
			}
			kept[d] = j
		}
	})
	n := 0
	for d, j := range kept {
		n += copy(ks[n:], ks[start(d):start(d)+j])
		copy(del[n-j:], del[start(d):start(d)+j])
	}
	return core.Delta{Keys: ks[:n], Del: del[:n]}
}

// reducePairs is reduce for IDs too wide to pack a run index beside: ks
// are the tail's keys, in LSN order.
func (t *tail) reducePairs(ks []uint64) core.Delta {
	type keyRun struct {
		k uint64
		r int
	}
	es := make([]keyRun, 0, len(ks))
	for r, lo := range t.runs {
		hi := len(ks)
		if r+1 < len(t.runs) {
			hi = t.runs[r+1]
		}
		for _, k := range ks[lo:hi] {
			es = append(es, keyRun{k, r})
		}
	}
	slices.SortFunc(es, func(a, b keyRun) int { return cmp.Or(cmp.Compare(a.k, b.k), cmp.Compare(a.r, b.r)) })
	d := core.Delta{Keys: ks[:0], Del: make([]bool, 0, len(es))}
	for i, e := range es {
		if i+1 == len(es) || es[i+1].k != e.k {
			d.Keys, d.Del = append(d.Keys, e.k), append(d.Del, t.runDeletes(e.r))
		}
	}
	return d
}

// runDeletes reports whether run r of the tail is one of deletes.
func (t *tail) runDeletes(r int) bool { return t.del0 != (r%2 == 1) }

// Durable reports whether the Store was opened with a durability
// directory.
func (s *Store) Durable() bool { return s.dur != nil }

// Recovery returns what OpenDurable loaded and replayed (the zero value
// for a non-durable or freshly created store).
func (s *Store) Recovery() wal.RecoveryStats {
	if s.dur == nil {
		return wal.RecoveryStats{}
	}
	return s.dur.recovery
}

// Checkpoint pins a view and publishes it as a durable checkpoint (CSR per
// shard + partition layout + per-log watermarks, atomic tmp+rename), then rotates the WAL and garbage-
// collects the segments it and its retained predecessor both cover.
// Concurrent Checkpoint calls serialize; ingest and reads continue
// throughout — the only shared work is the view pin. Returns
// ErrNotDurable on an in-memory store.
func (s *Store) Checkpoint() error {
	d := s.dur
	if d == nil {
		return ErrNotDurable
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if s.closed.Load() {
		// Close waits on ckptMu before sealing the log; bailing here keeps
		// a checkpoint that lost that race from writing to the directory
		// after Close has returned it to the caller.
		return ErrClosed
	}

	v := s.View()
	defer v.Release()
	es := v.e.shards
	// The epoch reflects every record at or below its LSN, on log 0 and on
	// the stale logs a layout that logged per shard left, whose records all
	// predate recovery: the first epoch carries the recovery floor.
	wms := make([]uint64, d.log.NumDirs())
	for i := range wms {
		wms[i] = v.e.lsn
	}
	ck := &wal.Checkpoint{
		N:          v.NumVertices(),
		Starts:     make([]uint32, len(es)),
		Watermarks: wms,
	}
	for i, e := range es {
		ck.Starts[i] = e.lo
		offs, adj := e.snap.CSR()
		ck.Shards = append(ck.Shards, wal.ShardSnap{Base: e.lo, Offs: offs, Adj: adj})
	}
	// Sync before publishing: the checkpoint claims everything up to the
	// watermarks is durable, so the covering records must be on disk
	// before their segments become GC-eligible.
	if err := d.log.SyncAll(); err != nil {
		return err
	}
	if err := d.log.WriteCheckpoint(ck); err != nil {
		return err
	}
	d.checkpoints.Add(1)
	d.sinceCkpt.Store(0)
	if err := d.log.Rotate(); err != nil {
		return err
	}
	n, err := d.log.GC(wms)
	d.segsGCed.Add(uint64(n))
	return err
}

// maybeAutoCheckpoint fires a background Checkpoint when the configured
// record budget since the last one is spent. At most one runs at a time;
// errors (including injected crashes) are absorbed — the next trigger or
// recovery picks up from the log.
func (d *durability) maybeAutoCheckpoint(s *Store) {
	if d.opt.CheckpointEvery <= 0 {
		return
	}
	if d.sinceCkpt.Load() < int64(d.opt.CheckpointEvery) {
		return
	}
	if !d.ckptRunning.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer d.ckptRunning.Store(false)
		if s.closed.Load() {
			return
		}
		s.Checkpoint()
	}()
}
