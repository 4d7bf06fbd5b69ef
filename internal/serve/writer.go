package serve

import (
	"slices"
	"sync/atomic"

	"lsgraph/internal/core"
	"lsgraph/internal/obs"
	"lsgraph/internal/parallel"
)

// sideBySideMin is the smallest batch whose shard parts the writer applies
// side by side whether or not a caller waits for it: the bound from which
// core's pipeline splits a batch across workers.
const sideBySideMin = 1 << 12

// testHookBeforeApply, when non-nil, runs on the writer goroutine before
// each apply. Tests use it to hold the writer mid-drain and exercise queue
// coalescing deterministically.
var testHookBeforeApply func()

// run is the writer goroutine: it drains the whole queue each cycle and
// takes the entries in order — batches are applied and installed as one
// epoch, a boundary move runs between the batches around it, a Flush
// sentinel is released once everything ahead of it is reader-visible.
//
// A batch ahead of an entry whose caller waits — a Flush or a boundary
// move — has its shard parts applied side by side: the caller is blocked,
// so the CPUs they take would idle. So has a batch of sideBySideMin edges or
// more, which core's pipeline splits across workers anyway. Any other batch
// is background work too small to split, its parts applied one after
// another on the writer, which leaves the other CPUs to the producers.
// Either way for every batch cost one of the benchmark's workloads its
// update latency (EXPERIMENTS.md, "One writer").
//
// A batch applied side by side absorbs the batches of its op right behind
// it that would be applied side by side too, so the run costs one scatter,
// one publish of each shard it touches and one epoch: a bulk load sent as
// many requests is applied about once per drain (EXPERIMENTS.md, "Merged
// drains"). A Flush, a move, a change of op or a batch applied one after
// another ends the run; small background batches keep their own applies,
// since merging them made the HTTP workload's reads and writes slower.
//
// The queue is two slices swapped under the lock: producers append to one
// while the writer drains the other, which it clears as it goes, so a
// writer that keeps up never makes the next enqueue allocate a queue.
func (s *Store) run() {
	defer close(s.done)
	for {
		s.mu.Lock()
		q := s.queue
		s.queue, s.spare = s.spare[:0], q
		closed := s.closed.Load()
		s.mu.Unlock()
		if len(q) == 0 {
			if closed {
				s.reclaim()
				return
			}
			<-s.wake
			continue
		}
		waited := 0 // entries before it are ahead of a waiting caller's
		for i := range q {
			if q[i].op == opFlush || q[i].op == opMove {
				waited = i
			}
		}
		wide := func(i int) bool { return i < waited || len(q[i].src) >= sideBySideMin }
		for i := 0; i < len(q); i++ {
			b := &q[i]
			switch b.op {
			case opFlush:
				close(b.done)
			case opMove:
				s.move(b.move)
			default:
				w, end := wide(i), i+1
				for w && end < len(q) && q[end].op == b.op && wide(end) {
					end++
				}
				s.absorb(b, q[i+1:end])
				s.apply(b, w)
				i = end - 1
			}
			*b = pending{} // release the entry for GC (absorb released the rest of its run)
		}
	}
}

// apply routes one batch, a queued one or a run that run merged, to the
// shards by their ranges as they are now — the one layout fact, which only
// this goroutine changes — and applies its shard parts, side by side when
// wide, else one after another (see run); the scatter runs on the workers
// that the parts then get. Each touched shard applies on its share of the
// worker budget and publishes its snapshot once its part is in; then the
// epoch holding all of them is installed, and every batch it holds is
// measured as visible.
func (s *Store) apply(b *pending, wide bool) {
	if testHookBeforeApply != nil {
		testHookBeforeApply()
	}
	p := 1
	if wide {
		p = s.g.Workers()
	}
	sc := obs.PhaseScatter.Begin()
	parts := s.g.Scatter(b.src, b.dst, p)
	sc.End(-1, b.batch, 0, uint64(len(b.src)))
	b.src, b.dst = nil, nil // the parts hold the batch now
	s.touched = s.touched[:0]
	for i := range parts {
		if n := len(parts[i].Src); n > 0 {
			s.touched = append(s.touched, i)
			s.routed[i].Add(uint64(n))
		}
	}
	if obs.Enabled() {
		obsShardSkew.Set(int64(skewPct(len(parts), func(i int) uint64 { return uint64(len(parts[i].Src)) })))
	}
	p = min(p, len(s.touched))
	e := s.successor(b.batches, b.lsn)
	var claim atomic.Int64
	parallel.Workers(p, func(int) {
		for j := int(claim.Add(1)) - 1; j < len(s.touched); j = int(claim.Add(1)) - 1 {
			i := s.touched[j]
			sh, part := s.shards[i].shard, &parts[i]
			sh.EnsureVertices(b.bound)
			sh.BeginTrace(b.batch)
			if b.op == opInsert {
				sh.InsertBatch(part.Src, part.Dst)
			} else {
				sh.DeleteBatch(part.Src, part.Dst)
			}
			s.shards[i].applied.Add(1)
			e.shards[i] = s.publish(i, b.batch, e.batches)
		}
	})
	s.stats.batchesApplied.Add(1)
	s.install(e)
	visible(b.stamp)
	for _, st := range b.merged {
		visible(st)
	}
}

// visible closes an installed batch's end-to-end enqueue-to-publish
// measurement and feeds the tail estimator; a batch enqueued with neither
// sink on has nothing to close.
func visible(st stamp) {
	if st.enq == 0 {
		return
	}
	lag := obs.Now() - st.enq
	if obs.Enabled() {
		obsVisibilityLag.Observe(uint64(lag))
	}
	obs.BatchEnd(st.batch, lag)
}

// publish seals shard i's table as its next snapshot, stamped with the
// range the shard owns right now. batch and epoch attribute it in the
// flight recorder. Writer goroutine only (and launch, before the writer
// starts); different shards may publish at once.
func (s *Store) publish(i int, batch, epoch uint64) shardPin {
	sp := obs.PhasePublish.Begin()
	sh := s.shards[i].shard
	p := shardPin{snap: sh.Publish(), lo: sh.Base(), hi: sh.End()}
	sp.End(i, batch, epoch, p.snap.NumEdges())
	return p
}

// successor returns the epoch after the current one — sharing every
// shard's pin, holding batches more batches, its WAL LSN raised to lsn, its
// boundary-move count carried — for the writer to fill in the shards it
// republishes and then install.
func (s *Store) successor(batches, lsn uint64) *epoch {
	e := &epoch{shards: make([]shardPin, len(s.shards)), batches: batches, lsn: lsn}
	if old := s.cur.Load(); old != nil {
		copy(e.shards, old.shards)
		e.batches += old.batches
		e.lsn = max(e.lsn, old.lsn)
		e.moves = old.moves
	}
	return e
}

// install makes e current — the one atomic store that publishes it to
// readers — retires the epoch it replaces, and reclaims whatever has
// drained. Every pin of e that the old epoch did not hold is a snapshot
// its shard has just published. Writer goroutine only (and launch).
func (s *Store) install(e *epoch) {
	old := s.cur.Load()
	for i, p := range e.shards {
		st := &s.shards[i]
		if old == nil || p.snap != old.shards[i].snap {
			st.held = append(st.held, heldSnap{snap: p.snap})
			s.stats.snapshotsPublished.Add(1)
		}
		st.held[len(st.held)-1].n++
		e.m += p.snap.NumEdges()
	}
	s.cur.Store(e)
	if old != nil {
		s.retired = append(s.retired, old)
	}
	s.reclaim()
}

// reclaim drops the retired epochs whose refcount has drained (zero
// observed after retirement; see the package comment for why that
// observation is safe), in whatever order readers let go of them, and
// recycles each shard snapshot no undrained epoch holds any more: the shard
// keeps the newest recycled table for its next publish and frees the arena
// pages nothing older than the oldest undrained snapshot can read. It ends
// every install, so it is also where the shards' published footprint is
// noted for Stats. Writer goroutine only.
func (s *Store) reclaim() {
	sp := obs.PhaseReclaim.Begin()
	freed := 0
	kept := s.retired[:0]
	for _, e := range s.retired {
		if e.refs.Load() != 0 {
			kept = append(kept, e)
			continue
		}
		for i := range e.shards {
			if s.shards[i].drop(e.shards[i].snap) {
				freed++
			}
		}
	}
	clear(s.retired[len(kept):])
	s.retired = kept
	if freed > 0 {
		s.stats.snapshotsReclaimed.Add(uint64(freed))
		sp.End(-1, 0, 0, uint64(freed))
	}
	for i := range s.shards {
		st := &s.shards[i]
		ps := st.shard.Published()
		st.cleaned.Store(ps.Cleaned)
		st.published.Store(ps.Total())
		st.pages.Store(ps.InUse + ps.Free + ps.Retired)
	}
	var lag uint64
	if len(s.retired) > 0 {
		lag = s.cur.Load().batches - s.retired[0].batches
	}
	s.stats.lag.Store(lag)
}

// drop releases a drained epoch's hold on snap and recycles snap when no
// undrained epoch holds it any more, reporting whether it did. The current
// epoch holds the shard's latest snapshot, so that one is never recycled.
func (st *shardState) drop(snap *core.Snapshot) bool {
	for j := range st.held {
		h := &st.held[j]
		if h.snap != snap {
			continue
		}
		if h.n--; h.n > 0 {
			return false
		}
		st.shard.Recycle(snap)
		st.held = slices.Delete(st.held, j, j+1)
		return true
	}
	panic("serve: a drained epoch holds a snapshot its shard does not")
}
