package serve

import "lsgraph/internal/obs"

// testHookBeforeApply, when non-nil, runs on a writer goroutine before
// each batch is applied. Tests use it to hold a writer mid-drain and
// exercise queue coalescing deterministically.
var testHookBeforeApply func()

// run is a shard writer's goroutine: it applies this shard's updates and
// publishes its snapshots. It drains the whole queue each cycle, applying
// each entry as one engine batch and republishing after each, so readers
// observe every applied batch as its own shard epoch.
func (w *shardWriter) run() {
	defer close(w.done)
	for {
		w.mu.Lock()
		q := w.queue
		w.queue = nil
		closed := w.closed
		w.mu.Unlock()
		if len(q) > 0 {
			depth := w.s.queued.Add(-int64(len(q)))
			if obs.Enabled() {
				obsQueueDepth.Set(depth)
				obsShardQueueDepth.Set(w.idx, 0)
			}
		}
		if len(q) == 0 {
			if closed {
				w.reclaim()
				return
			}
			<-w.wake
			continue
		}
		for i := range q {
			b := &q[i]
			if b.op == opFlush {
				close(b.done)
				continue
			}
			if b.op == opRebalance {
				// Rendezvous: the second of the two affected writers to reach
				// its control entry executes the splice while the first waits
				// parked. Only these two writers stop; every other shard's
				// writer and every reader keeps running.
				if b.reb.arrived.Add(1) == 2 {
					w.s.executeRebalance(b.reb)
					close(b.reb.done)
				} else {
					<-b.reb.done
				}
				continue
			}
			if testHookBeforeApply != nil {
				testHookBeforeApply()
			}
			if b.bound > 0 {
				w.shard.EnsureVertices(b.bound)
			}
			w.shard.BeginTrace(b.batch)
			if b.op == opInsert {
				w.shard.InsertBatch(b.src, b.dst)
			} else {
				w.shard.DeleteBatch(b.src, b.dst)
			}
			w.s.stats.batchesApplied.Add(1)
			if obs.Enabled() {
				obsShardApplied.AddShard(w.idx, 1)
			}
			if b.lsn > w.appliedLSN {
				w.appliedLSN = b.lsn
			}
			w.publish(b.batch)
			if b.enq != 0 {
				// The batch is now reader-visible: close the end-to-end
				// enqueue-to-publish measurement and feed the tail estimator.
				lag := obs.Now() - b.enq
				if obs.Enabled() {
					obsVisibilityLag.Observe(uint64(lag))
				}
				obs.BatchEnd(b.batch, lag)
			}
			q[i] = pending{} // release the scattered batch for GC
		}
	}
}

// publish builds the shard's next snapshot, swaps it in as the shard's new
// epoch, and retires the previous one. batch is the flight-recorder
// attribution of the update that triggered the republish (0 from New).
// Writer goroutine only (and New, before the writer starts).
func (w *shardWriter) publish(batch uint64) {
	sp := obs.PhasePublish.Begin()
	e := w.buildSnap()
	w.install(e)
	sp.End(w.idx, batch, e.epoch, e.snap.NumEdges())
}

// install makes e the shard's current epoch — the one atomic swap that
// publishes it to readers — retires the epoch it replaces, and reclaims
// whatever has drained. Writer goroutine only, or the rebalance executor
// while the writer is parked.
func (w *shardWriter) install(e *epochSnap) {
	if old := w.cur.Swap(e); old != nil {
		w.retired = append(w.retired, old)
	}
	w.s.stats.snapshotsPublished.Add(1)
	w.reclaim()
}

// buildSnap seals the shard's table as its next epochSnap
// (core.PagedShard.Publish; the batches since the current one already wrote
// their runs to the shard's page arena) without swapping it in, stamped with
// the range the shard owns right now. No other goroutine can be changing that range: a boundary move
// touches only the two shards it parks. Writer goroutine only — or the
// rebalance executor, while both affected writers are parked at their control
// entries.
func (w *shardWriter) buildSnap() *epochSnap {
	var next uint64
	if old := w.cur.Load(); old != nil {
		next = old.epoch + 1
	}
	hi := uint64(openEnd)
	if starts := w.s.g.PartitionMap().Starts; w.idx+1 < len(starts) {
		hi = uint64(starts[w.idx+1])
	}
	return &epochSnap{
		snap:  w.shard.Publish(),
		epoch: next,
		lo:    w.shard.Base(),
		hi:    hi,
		lsn:   w.appliedLSN,
	}
}

// reclaim recycles retired snapshots whose epoch has drained (refcount
// zero observed after retirement; see the package comment for why that
// observation is safe), in whatever order readers let go of them: the shard
// keeps the newest drained table for its next publish and frees the arena
// pages nothing older than the oldest undrained epoch can read. It ends
// every publish, so it is also where the shard's published footprint is
// noted for Stats. Writer goroutine only.
func (w *shardWriter) reclaim() {
	sp := obs.PhaseReclaim.Begin()
	freed := 0
	kept := w.retired[:0]
	for _, e := range w.retired {
		if e.refs.Load() == 0 {
			w.shard.Recycle(e.snap)
			e.snap = nil
			freed++
			w.s.stats.snapshotsReclaimed.Add(1)
			if obs.Enabled() {
				obsReclaims.Inc()
			}
		} else {
			kept = append(kept, e)
		}
	}
	if freed > 0 {
		sp.End(w.idx, 0, 0, uint64(freed))
	}
	for i := len(kept); i < len(w.retired); i++ {
		w.retired[i] = nil
	}
	w.retired = kept
	ps := w.shard.Published()
	cleaned := ps.Cleaned - w.cleaned.Swap(ps.Cleaned)
	w.published.Store(ps.Total())
	if obs.Enabled() {
		obsArenaCleaned.Add(cleaned)
		obsArenaBytes.Set(w.idx, int64(ps.InUse+ps.Free+ps.Retired))
		var lag int64
		if len(w.retired) > 0 {
			lag = int64(w.cur.Load().epoch - w.retired[0].epoch)
		}
		obsEpochLag.Set(lag)
		obsShardPublishLag.Set(w.idx, lag)
	}
}
