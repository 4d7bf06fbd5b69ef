package check

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"lsgraph/internal/refgraph"
	"lsgraph/internal/serve"
	"lsgraph/internal/wal"
)

// CrashPlan is one kill-and-recover scenario. RunCrash takes it as given:
// Shards, Vertices, Batches and BatchLen must be positive.
type CrashPlan struct {
	// Seed drives the workload generator.
	Seed int64
	// Shards is the store's vertex-range shard count.
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
	// Fsync is the WAL policy. FsyncNone and FsyncAlways keep the file
	// operations of a plan exactly repeatable; FsyncInterval's timer does
	// not.
	Fsync wal.FsyncPolicy
	// Point is where the workload's file system fails (zero: nowhere).
	Point FaultPoint
	// Reopen is where the first recovery's file system fails — a crash
	// while recovering, after which a second recovery must converge.
	Reopen FaultPoint
}

// CrashReport is what one RunCrash scenario observed, for assertions
// beyond the built-in differential check.
type CrashReport struct {
	// Drive and Reopen are the file systems of the workload and of the first
	// recovery: whether their points fired, the operations they counted (a
	// fault-free workload's are every crash point its plan has), and the
	// workload's acked records — the oracle's input — and lost one.
	Drive, Reopen *FaultFS
	// Recovery is what the post-crash reopen loaded and replayed.
	Recovery wal.RecoveryStats
}

// ApplyLogged replays ops onto a refgraph oracle, growing its vertex
// space as the store's enqueue path would.
func ApplyLogged(g *refgraph.Graph, ops []wal.Record) {
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
	for u := uint32(0); u < max(v.NumVertices(), want.NumVertices()); u++ {
		var got, exp []uint32
		if u < v.NumVertices() {
			got = v.Neighbors(u)
		}
		if u < want.NumVertices() {
			exp = want.Neighbors(u)
		}
		if !slices.Equal(got, exp) {
			return fmt.Errorf("check: vertex %d recovered with neighbors %v, oracle %v", u, got, exp)
		}
	}
	return nil
}

// RunCrash is the kill-and-recover harness. It runs one scenario in dir
// (which must be empty): drive the plan's workload on a FaultFS that
// freezes at the plan's point — exactly what a kill -9 at that instant
// leaves on disk — recover, and compare the recovered store against a
// refgraph oracle of the acked records. The model is the process-kill one
// the WAL implements: a record whose segment Write completed is on disk and
// must survive; the one the crash refused or tore, and everything after,
// must not. Fsync policy does not change it (fsync guards against OS
// crashes, which no in-process harness can simulate). It then proves the
// recovered store is still durable — appends a probe batch, reopens once
// more, and re-compares. A non-nil error is a durability bug (or a harness
// I/O failure).
func RunCrash(dir string, plan CrashPlan) (*CrashReport, error) {
	rep := &CrashReport{Drive: NewFaultFS(dir, plan.Point), Reopen: NewFaultFS(dir, plan.Reopen)}
	// A store that fails to open after the crash point fired crashed while
	// opening, before anything was logged.
	if err := driveCrash(dir, plan, rep.Drive); err != nil && !rep.Drive.Fired() {
		return nil, err
	}
	oracle := refgraph.New(plan.Vertices)
	ApplyLogged(oracle, rep.Drive.Acked())

	// Recover. A crash while recovering fails the first reopen; the second
	// must succeed, because recovery's disk mutations — dropping the
	// segments past a torn frame, then truncating it — leave the frame in
	// place until they are done, so a retry redoes them.
	s2, err := serve.OpenDurable(plan.Vertices, plan.Shards, 2, serve.Options{}, serve.DurabilityOptions{Dir: dir, FS: rep.Reopen})
	if rep.Reopen.Fired() {
		if err == nil {
			s2.Close()
			return rep, fmt.Errorf("check: reopen succeeded despite a crash at %+v while recovering", plan.Reopen)
		}
		if !errors.Is(err, ErrFrozen) {
			return rep, fmt.Errorf("check: crash while recovering surfaced as %v, want ErrFrozen", err)
		}
		s2, err = serve.OpenDurable(plan.Vertices, plan.Shards, 2, serve.Options{}, serve.DurabilityOptions{Dir: dir})
	}
	if err != nil {
		return rep, fmt.Errorf("check: recover: %w", err)
	}
	rep.Recovery = s2.Recovery()
	if err := CompareDurable(s2, oracle); err != nil {
		s2.Close()
		return rep, fmt.Errorf("recovered store diverges from acked-records oracle (crash at %+v): %w", plan.Point, err)
	}

	// The recovered store must still be durable: log a probe batch, kill
	// nothing, reopen, and re-compare — catches recovery that rebuilds
	// state but corrupts the log's continuation point.
	probeSrc := []uint32{plan.Vertices + 1, plan.Vertices + 2}
	probeDst := []uint32{plan.Vertices + 2, plan.Vertices + 1}
	s2.InsertBatch(probeSrc, probeDst)
	s2.Flush()
	s2.Close()
	ApplyLogged(oracle, []wal.Record{{Op: wal.OpInsert, Src: probeSrc, Dst: probeDst}})
	s3, err := serve.OpenDurable(plan.Vertices, plan.Shards, 2, serve.Options{}, serve.DurabilityOptions{Dir: dir})
	if err != nil {
		return rep, fmt.Errorf("check: reopen after probe: %w", err)
	}
	defer s3.Close()
	if err := CompareDurable(s3, oracle); err != nil {
		return rep, fmt.Errorf("post-recovery append lost (crash at %+v): %w", plan.Point, err)
	}
	return rep, nil
}

// driveCrash opens a durable store in dir on fsys (nil: the OS), runs
// plan's seeded workload on it, and closes it. IDs reach 25% past the initial bound so recovery must
// reproduce vertex growth too. A delete batch draws edges the log has
// taken as inserted, so it removes edges that exist, and an insert batch
// puts back a deleted edge in every third place: an edge goes insert →
// delete → re-insert across records and shard logs, whichever op is last
// deciding it. Everything runs from one goroutine, and each checkpoint
// follows a Flush, so the file operations — and with no fault the files
// themselves — are the same on every run of a plan.
func driveCrash(dir string, plan CrashPlan, fsys wal.FS) error {
	s, err := serve.OpenDurable(plan.Vertices, plan.Shards, 2, serve.Options{}, serve.DurabilityOptions{
		Dir:   dir,
		Fsync: plan.Fsync,
		FS:    fsys,
	})
	if err != nil {
		return fmt.Errorf("check: open durable store: %w", err)
	}
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
		logged := s.Stats().WALRecords
		if del {
			s.DeleteBatch(src, dst)
		} else {
			s.InsertBatch(src, dst)
			if s.Stats().WALRecords > logged {
				// The log took it, so its edges exist — all of them unless a
				// crash landed inside it, and after a crash nothing is logged.
				for i := range src {
					inserted = append(inserted, [2]uint32{src[i], dst[i]})
				}
			}
		}
		if plan.CheckpointBatches > 0 && b%plan.CheckpointBatches == 0 {
			// Ignore the error: a checkpoint crash point makes this fail by
			// design, and after a crash every checkpoint fails.
			s.Flush()
			_ = s.Checkpoint()
		}
	}
	s.Flush()
	s.Close()
	return nil
}
