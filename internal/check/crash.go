package check

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"lsgraph/internal/core"
	"lsgraph/internal/refgraph"
	"lsgraph/internal/serve"
	"lsgraph/internal/wal"
)

// This file is the kill-and-recover fault-injection harness: it drives a
// durable serve.Store through a seeded workload, freezes the WAL at one
// chosen lifecycle event (exactly what a kill -9 at that instant would
// leave on disk), recovers a fresh store from the directory, and
// differentially compares it against a refgraph oracle built from the
// records the WAL actually accepted.
//
// The durability model it checks is the process-kill model the WAL
// implements: a record whose append completed (the hook saw the event and
// let it continue) is on disk and must survive; the record the crash
// lands on — dropped or half-written — and everything after it must not
// resurrect. Fsync policy does not change this model (fsync guards
// against OS crashes, which the harness cannot simulate in-process), so
// the oracle is exactly "acked appends, in LSN order".

// CrashPoint selects the lifecycle event at which the injector freezes
// the WAL.
type CrashPoint struct {
	// Kind is the event to trigger on: EvAppend (mid-append), EvSync
	// (post-write pre-fsync), EvCheckpointFile (mid-checkpoint tmp write),
	// EvCheckpointDone (checkpoint renamed, WAL not yet GCed), or
	// EvReplayRecord (mid-recovery — fires during the harness's reopen).
	Kind wal.EventKind
	// Nth is the 1-based occurrence of Kind to crash at.
	Nth int
	// Torn, for EvAppend, leaves half the frame on disk (KillTorn)
	// instead of dropping the record entirely.
	Torn bool
}

// String names the point for subtest names: "append-17", "append-9-torn".
func (p CrashPoint) String() string {
	s := fmt.Sprintf("%v-%d", p.Kind, p.Nth)
	if p.Torn {
		s += "-torn"
	}
	return s
}

// CrashPlan is one kill-and-recover scenario.
type CrashPlan struct {
	// Seed drives the workload generator.
	Seed int64
	// Shards is the store's shard-writer count.
	Shards int
	// Vertices is the initial vertex bound; batches may reference
	// slightly beyond it to exercise growth across recovery.
	Vertices uint32
	// Batches is the number of update batches to enqueue.
	Batches int
	// BatchLen is the edge count per batch.
	BatchLen int
	// DeleteEvery makes every k-th batch a delete (0 = inserts only).
	DeleteEvery int
	// CheckpointBatches issues an explicit Checkpoint after every k-th
	// batch (0 = never), which is how the checkpoint crash points get
	// something to crash in.
	CheckpointBatches int
	// Fsync is the WAL policy; EvSync points need FsyncAlways so sync
	// events fire deterministically per append.
	Fsync wal.FsyncPolicy
	// Point is where to crash.
	Point CrashPoint
}

// LoggedOp is one WAL-record-granularity operation the recorder observed.
type LoggedOp struct {
	Op       uint8
	Src, Dst []uint32
}

// CrashReport is what one RunCrash scenario observed, for assertions
// beyond the built-in differential check.
type CrashReport struct {
	// Fired reports whether the crash point triggered. A plan whose Nth
	// exceeds the workload's event count recovers a cleanly-killed log.
	Fired bool
	// Acked are the durable records, in LSN order: the oracle's input.
	Acked []LoggedOp
	// Lost is the record the crash landed on (EvAppend points only): it
	// must NOT be recovered.
	Lost *LoggedOp
	// Recovery is what the post-crash reopen loaded and replayed.
	Recovery wal.RecoveryStats
	// Driven is the driven store's counters just before the kill: how many
	// of its publishes rebuilt, how many checkpoints it got out.
	Driven serve.Stats
}

// crashRecorder is the fault injector and durability recorder in one
// hook: it counts events, kills at the planned point, and acks every
// append it lets through. The mutex serializes hook calls from the
// driver and the group-commit goroutine.
type crashRecorder struct {
	mu    sync.Mutex
	point CrashPoint
	seen  map[wal.EventKind]int
	acked []LoggedOp
	lost  *LoggedOp
	fired bool
}

func newCrashRecorder(p CrashPoint) *crashRecorder {
	return &crashRecorder{point: p, seen: make(map[wal.EventKind]int)}
}

func (r *crashRecorder) hook(e wal.Event) wal.Action {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen[e.Kind]++
	if !r.fired && e.Kind == r.point.Kind && r.seen[e.Kind] == r.point.Nth {
		r.fired = true
		if e.Kind == wal.EvAppend {
			r.lost = &LoggedOp{Op: e.Op, Src: cloneU32(e.Src), Dst: cloneU32(e.Dst)}
			if r.point.Torn {
				return wal.KillTorn
			}
		}
		return wal.Kill
	}
	if e.Kind == wal.EvAppend {
		// Continue means the full frame is written before Append returns;
		// under the process-kill model the record is durable from here on.
		r.acked = append(r.acked, LoggedOp{Op: e.Op, Src: cloneU32(e.Src), Dst: cloneU32(e.Dst)})
	}
	return wal.Continue
}

// ackedOps is what the recorder has acknowledged so far.
func (r *crashRecorder) ackedOps() []LoggedOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.acked
}

func cloneU32(s []uint32) []uint32 { return append([]uint32(nil), s...) }

// ApplyLogged replays ops onto a refgraph oracle, growing its vertex
// space as the store's enqueue path would.
func ApplyLogged(g *refgraph.Graph, ops []LoggedOp) {
	for _, o := range ops {
		for i := range o.Src {
			hi := max(o.Src[i], o.Dst[i]) + 1
			if hi > g.NumVertices() {
				g.EnsureVertices(hi)
			}
			if o.Op == wal.OpDelete {
				g.Delete(o.Src[i], o.Dst[i])
			} else {
				g.Insert(o.Src[i], o.Dst[i])
			}
		}
	}
}

// CompareDurable diffs a recovered store against the oracle, tolerating
// vertex-bound differences by treating out-of-range vertices as degree 0
// on either side.
func CompareDurable(st *serve.Store, want *refgraph.Graph) error {
	v := st.View()
	defer v.Release()
	n := v.NumVertices()
	if wn := want.NumVertices(); wn > n {
		n = wn
	}
	for u := uint32(0); u < n; u++ {
		var got []uint32
		if u < v.NumVertices() {
			got = v.Neighbors(u)
		}
		var exp []uint32
		if u < want.NumVertices() {
			exp = want.Neighbors(u)
		}
		if len(got) != len(exp) {
			return fmt.Errorf("check: vertex %d recovered degree %d, oracle %d (got %v want %v)",
				u, len(got), len(exp), got, exp)
		}
		for i := range got {
			if got[i] != exp[i] {
				return fmt.Errorf("check: vertex %d neighbor[%d] = %d, oracle %d", u, i, got[i], exp[i])
			}
		}
	}
	return nil
}

// RunCrash executes one kill-and-recover scenario in dir (which must be
// empty): drive the workload, crash at the plan's point, recover, and
// differentially compare the recovered store against the oracle of acked
// records. It then proves the recovered store is still durable — appends
// a probe batch, reopens once more, and re-compares. A non-nil error is
// a durability bug (or a harness I/O failure).
func RunCrash(dir string, plan CrashPlan) (*CrashReport, error) {
	if plan.Shards < 1 {
		plan.Shards = 1
	}
	if plan.Vertices == 0 {
		plan.Vertices = 64
	}
	if plan.BatchLen <= 0 {
		plan.BatchLen = 4
	}
	// rec carries the crash point; ackRec records the drive phase's acked
	// appends. They are the same recorder except for replay crashes, which
	// fire during the reopen — there the drive runs under a recorder whose
	// point can never trigger, so the workload completes and every record
	// is acked.
	rec := newCrashRecorder(plan.Point)
	ackRec := rec
	cfg := core.Config{Workers: 2, Shards: plan.Shards}
	replayCrash := plan.Point.Kind == wal.EvReplayRecord
	if replayCrash {
		ackRec = newCrashRecorder(CrashPoint{Kind: plan.Point.Kind, Nth: 1 << 30})
	}
	s, err := serve.OpenDurable(plan.Vertices, cfg, serve.Options{}, serve.DurabilityOptions{
		Dir:   dir,
		Fsync: plan.Fsync,
		Hook:  ackRec.hook,
	})
	if err != nil {
		return nil, fmt.Errorf("check: open durable store: %w", err)
	}

	// Drive the seeded workload. IDs reach 25% past the initial bound so
	// recovery must reproduce vertex growth too. A delete batch draws edges
	// the log has acknowledged as inserted, so it removes edges that exist,
	// and an insert batch puts back a deleted edge in every third place: an
	// edge goes insert → delete → re-insert across records and
	// shard logs, whichever op is last deciding it. Everything runs from one
	// goroutine, so WAL append order (= LSN order = ack order) is
	// deterministic for a given seed and crash point.
	rng := rand.New(rand.NewSource(plan.Seed))
	idSpan := int64(plan.Vertices) + int64(plan.Vertices)/4
	var inserted, deleted [][2]uint32
	draw := func(pool *[][2]uint32) [2]uint32 {
		e := rng.Intn(len(*pool))
		p := (*pool)[e]
		(*pool)[e] = (*pool)[len(*pool)-1]
		*pool = (*pool)[:len(*pool)-1]
		return p
	}
	for b := 1; b <= plan.Batches; b++ {
		del := plan.DeleteEvery > 0 && b%plan.DeleteEvery == 0
		src := make([]uint32, plan.BatchLen)
		dst := make([]uint32, plan.BatchLen)
		for i := range src {
			var e [2]uint32
			switch {
			case del && len(inserted) > 0:
				e = draw(&inserted)
				deleted = append(deleted, e)
			case !del && i%3 == 2 && len(deleted) > 0:
				e = draw(&deleted)
			default:
				e = [2]uint32{uint32(rng.Int63n(idSpan)), uint32(rng.Int63n(idSpan))}
			}
			src[i], dst[i] = e[0], e[1]
		}
		acked := len(ackRec.ackedOps())
		if del {
			s.DeleteBatch(src, dst)
		} else {
			s.InsertBatch(src, dst)
			if len(ackRec.ackedOps()) > acked {
				// The log took it, so its edges exist — all of them unless a
				// kill landed inside it, and after a kill nothing is logged.
				for i := range src {
					inserted = append(inserted, [2]uint32{src[i], dst[i]})
				}
			}
		}
		if plan.CheckpointBatches > 0 && b%plan.CheckpointBatches == 0 {
			// Ignore the error: a checkpoint crash point makes this fail by
			// design, and post-kill checkpoints fail on the dead log.
			_ = s.Checkpoint()
		}
	}
	s.Flush()
	driven := s.Stats()
	s.Close()

	// The oracle: exactly the acked records, in LSN order.
	oracle := refgraph.New(plan.Vertices)
	ApplyLogged(oracle, ackRec.acked)

	// Recover. A mid-replay crash fails the first reopen (recovery itself
	// is crashed into); the second must succeed because recovery's only
	// disk mutation — torn-tail truncation — is idempotent.
	var reopenHook wal.Hook
	if replayCrash {
		reopenHook = rec.hook
	}
	s2, err := serve.OpenDurable(plan.Vertices, cfg, serve.Options{}, serve.DurabilityOptions{
		Dir:  dir,
		Hook: reopenHook,
	})
	if replayCrash {
		if rec.fired {
			if err == nil {
				s2.Close()
				return nil, fmt.Errorf("check: reopen succeeded despite mid-replay crash")
			}
			if !errors.Is(err, wal.ErrKilled) {
				return nil, fmt.Errorf("check: mid-replay crash surfaced as %v, want ErrKilled", err)
			}
			s2, err = serve.OpenDurable(plan.Vertices, cfg, serve.Options{}, serve.DurabilityOptions{Dir: dir})
		}
		// If the workload was too small for the replay point to fire, the
		// first reopen succeeded and is the store under test.
	}
	if err != nil {
		return nil, fmt.Errorf("check: recover: %w", err)
	}
	rep := &CrashReport{Fired: rec.fired, Acked: ackRec.acked, Lost: ackRec.lost, Recovery: s2.Recovery(), Driven: driven}
	if err := CompareDurable(s2, oracle); err != nil {
		s2.Close()
		return rep, fmt.Errorf("recovered store diverges from acked-records oracle (crash at %v): %w", plan.Point, err)
	}

	// The recovered store must still be durable: log a probe batch, kill
	// nothing, reopen, and re-compare — catches recovery that rebuilds
	// state but corrupts the log's continuation point.
	probeSrc := []uint32{plan.Vertices + 1, plan.Vertices + 2}
	probeDst := []uint32{plan.Vertices + 2, plan.Vertices + 1}
	s2.InsertBatch(probeSrc, probeDst)
	s2.Flush()
	s2.Close()
	ApplyLogged(oracle, []LoggedOp{{Op: wal.OpInsert, Src: probeSrc, Dst: probeDst}})
	s3, err := serve.OpenDurable(plan.Vertices, cfg, serve.Options{}, serve.DurabilityOptions{Dir: dir})
	if err != nil {
		return rep, fmt.Errorf("check: reopen after probe: %w", err)
	}
	defer s3.Close()
	if err := CompareDurable(s3, oracle); err != nil {
		return rep, fmt.Errorf("post-recovery append lost (crash at %v): %w", plan.Point, err)
	}
	return rep, nil
}
