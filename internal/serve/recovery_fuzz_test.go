package serve_test

import (
	"testing"

	"lsgraph/internal/check"
	"lsgraph/internal/refgraph"
	"lsgraph/internal/serve"
	"lsgraph/internal/wal"
)

// runRecoveryProgram drives a durable store through a byte program, closes
// it, and reopens its directory at one, two and four shards, each time
// against the oracle: check.ApplyLogged on a refgraph of every record the
// log wrote (a check.FaultFS that injects nothing reads them off its
// segment writes), in LSN order. The first byte picks the writing store's
// shard count (1–3); then each op is a byte and its operands:
//
//	b%4 == 0, 1: an insert (0) or delete (1) batch of 1+next%8 edges, a byte
//	             per endpoint, over vertices [0, 24) — past the store's
//	             initial 16, so the tail grows the vertex space;
//	b%4 == 2:    a checkpoint, after which the log is the tail;
//	b%4 == 3:    a delete of the batch before last, re-inserting none of it:
//	             a delete of edges that exist.
//
// Every batch is flushed on its own, so each logs its own records. The
// recovered store must hold exactly the oracle's edges, yield each vertex's
// through NeighborBlocks as the engine.Graph contract says
// (engine.CheckBlocks), and pass core.Paged.CheckInvariants.
func runRecoveryProgram(t *testing.T, dir string, prog []byte) {
	shards := 1
	if len(prog) > 0 {
		shards, prog = 1+int(prog[0])%3, prog[1:]
	}
	fs := check.NewFaultFS(dir, check.FaultPoint{})
	dopt := serve.DurabilityOptions{Dir: dir, Fsync: wal.FsyncNone, FS: fs}
	st, err := serve.OpenDurable(16, shards, 2, serve.Options{}, dopt)
	if err != nil {
		t.Fatal(err)
	}
	var batches [][2][]uint32
	for len(prog) > 0 {
		b := prog[0]
		prog = prog[1:]
		switch b % 4 {
		case 0, 1:
			n := 1
			if len(prog) > 0 {
				n, prog = 1+int(prog[0])%8, prog[1:]
			}
			var src, dst []uint32
			for ; n > 0 && len(prog) >= 2; n-- {
				src, dst, prog = append(src, uint32(prog[0])%24), append(dst, uint32(prog[1])%24), prog[2:]
			}
			if len(src) == 0 {
				continue
			}
			if b%4 == 0 {
				st.InsertBatch(src, dst)
			} else {
				st.DeleteBatch(src, dst)
			}
			batches = append(batches, [2][]uint32{src, dst})
		case 2:
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		case 3:
			if len(batches) >= 2 {
				bt := batches[len(batches)-2]
				st.DeleteBatch(bt[0], bt[1])
			}
		}
		st.Flush()
	}
	st.Close()

	// The oracle: every record the log wrote, in LSN order.
	want := refgraph.New(16)
	check.ApplyLogged(want, fs.Acked())

	for _, s := range []int{1, 2, 4} {
		re, err := serve.OpenDurable(16, s, 2, serve.Options{}, serve.DurabilityOptions{Dir: dir, Fsync: wal.FsyncNone})
		if err != nil {
			t.Fatalf("reopen at %d shards: %v", s, err)
		}
		err = check.CompareDurable(re, want)
		if err == nil {
			err = check.Blocks(re, want)
		}
		if err == nil {
			err = serve.GraphOf(re).CheckInvariants()
		}
		re.Close()
		if err != nil {
			t.Fatalf("reopen at %d shards: %v", s, err)
		}
	}
}

// FuzzRecoveryTail is the differential check of recovery's reduce and merge:
// a byte program of insert and delete records with checkpoints where it
// chooses (runRecoveryProgram), reopened at 1, 2 and 4 shards against an
// oracle that applies the accepted records one by one. The seeds under
// testdata/fuzz/FuzzRecoveryTail cover an edge inserted, deleted and
// re-inserted across records and shard logs after a checkpoint, deletes of
// checkpointed edges, a tail that alternates op over the same edges, and
// growth past the checkpoint's vertex bound.
func FuzzRecoveryTail(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			return // longer programs add time, not coverage
		}
		runRecoveryProgram(t, t.TempDir(), prog)
	})
}
