package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// twin feeds one stream of operations to a paged graph — tables over page
// arenas, batches merged into runs — and to a bare Graph of the same shape,
// the paper's engine on its live structures, which is the oracle for
// everything the paged shards do.
type twin struct {
	g, ref *Graph
}

func newTwin(n uint32, cfg Config) twin { return twin{NewPaged(n, cfg), New(n, cfg)} }

// pagedFrom is a paged graph of live's shape and edges, loaded as recovery
// loads a checkpoint: live's CSR copied to pages, in vertex order.
func pagedFrom(live *Graph) *Graph {
	g := NewPaged(live.NumVertices(), live.Config())
	offs, adj := live.Snapshot().CSR()
	if err := g.LoadCSR(0, offs, adj); err != nil {
		panic(err)
	}
	return g
}

func (tw twin) ensure(n uint32) {
	tw.g.EnsureVertices(n)
	tw.ref.EnsureVertices(n)
}

func (tw twin) insert(src, dst []uint32) {
	tw.g.InsertBatch(src, dst)
	tw.ref.InsertBatch(src, dst)
}

func (tw twin) delete(src, dst []uint32) {
	tw.g.DeleteBatch(src, dst)
	tw.ref.DeleteBatch(src, dst)
}

func (tw twin) move(k int, newStart uint32) error {
	v, e, err := tw.g.MoveBoundary(k, newStart)
	rv, re, rerr := tw.ref.MoveBoundary(k, newStart)
	if v != rv || e != re || (err == nil) != (rerr == nil) {
		return fmt.Errorf("MoveBoundary(%d, %d) moved %d vertices / %d edges (%v), oracle %d / %d (%v)", k, newStart, v, e, err, rv, re, rerr)
	}
	return nil
}

// check compares every vertex's adjacency, through each of the Graph's read
// methods, and the shards' counters, and runs the deep walk on both.
func (tw twin) check() error {
	g, ref := tw.g, tw.ref
	if err := g.CheckInvariants(); err != nil {
		return err
	}
	if err := ref.CheckInvariants(); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if g.NumVertices() != ref.NumVertices() || g.NumEdges() != ref.NumEdges() {
		return fmt.Errorf("%d vertices / %d edges, oracle %d / %d", g.NumVertices(), g.NumEdges(), ref.NumVertices(), ref.NumEdges())
	}
	for i := 0; i < g.NumShards(); i++ {
		sh, rsh := g.Shard(i), ref.Shard(i)
		if sh.Base() != rsh.Base() || sh.NumVertices() != rsh.NumVertices() || sh.NumEdges() != rsh.NumEdges() {
			return fmt.Errorf("shard %d: base %d, %d slots, %d edges; oracle %d, %d, %d", i,
				sh.Base(), sh.NumVertices(), sh.NumEdges(), rsh.Base(), rsh.NumVertices(), rsh.NumEdges())
		}
	}
	for v := uint32(0); v < ref.NumVertices(); v++ {
		want := ref.AppendNeighbors(v, nil)
		if got := g.AppendNeighbors(v, nil); !slices.Equal(got, want) || g.Degree(v) != uint32(len(want)) {
			return fmt.Errorf("vertex %d reads %v (degree %d), oracle %v", v, got, g.Degree(v), want)
		}
		var blocks []uint32
		g.NeighborBlocks(v, func(b []uint32) bool { blocks = append(blocks, b...); return true })
		if !slices.Equal(blocks, want) {
			return fmt.Errorf("vertex %d blocks %v, oracle %v", v, blocks, want)
		}
		for _, u := range want {
			if !g.Has(v, u) {
				return fmt.Errorf("Has(%d,%d) false, oracle holds the edge", v, u)
			}
		}
		if u := v*7 + 3; g.Has(v, u) != ref.Has(v, u) {
			return fmt.Errorf("Has(%d,%d) = %v, oracle %v", v, u, g.Has(v, u), ref.Has(v, u))
		}
	}
	return nil
}

// sameAsShard checks a snapshot of shard i against a flatten of the oracle's.
func (tw twin) sameAsShard(t *testing.T, what string, i int, snap *Snapshot) {
	t.Helper()
	sameSnapshot(t, what, snap, tw.ref.Shard(i).SnapshotInto(nil))
}

// TestAdoptedShardMatchesGraph walks a paged graph and the oracle through
// every kind of batch the merge has a case for and compares every adjacency
// after each: duplicates inside a batch, edges already present and deletes of
// absent ones, groups that change nothing, a batch that changes nothing at
// all, growth past NumVertices, a vertex emptied and refilled, a run longer
// than a page, a bulk load, and the partition-stressing shapes at 1, 2 and 4
// workers, in one shard and in three.
func TestAdoptedShardMatchesGraph(t *testing.T) {
	for _, cfg := range []Config{{Workers: 1}, {Workers: 2, Shards: 3}, {Workers: 4}} {
		t.Run(fmt.Sprintf("shards=%d/p=%d", max(cfg.Shards, 1), cfg.Workers), func(t *testing.T) {
			const n = 1 << 15
			tw := newTwin(n, cfg)
			step := func(what string) {
				t.Helper()
				if err := tw.check(); err != nil {
					t.Fatalf("after %s: %v", what, err)
				}
			}
			rng := rand.New(rand.NewSource(5))
			step("an empty graph")

			tw.insert([]uint32{5, 5, 5, 9, 5}, []uint32{7, 3, 7, 1, 3})
			step("a batch with duplicates")
			tw.insert([]uint32{5, 9, 9}, []uint32{3, 1, 2})
			step("a batch of mostly present edges")
			tw.insert([]uint32{5, 9}, []uint32{3, 1})
			step("a batch that changes nothing")
			tw.delete([]uint32{5, 9, 11}, []uint32{4, 8, 1})
			step("a delete of absent edges only")
			tw.delete([]uint32{5, 5, 9, 11}, []uint32{3, 4, 1, 1})
			step("a delete of present and absent edges")

			tw.ensure(n + 100)
			tw.insert([]uint32{n + 50, 5}, []uint32{n + 99, n + 50})
			step("growth past NumVertices")

			var hs, hd []uint32
			for i := uint32(0); i < pageSize+500; i++ {
				hs, hd = append(hs, 77), append(hd, 2*i%(n+100))
			}
			tw.insert(hs, hd)
			step("a run longer than a page")
			tw.insert([]uint32{77, 77}, []uint32{1, 3})
			step("two more neighbors for it")
			tw.delete(hs, hd)
			step("the hub all but emptied")
			tw.delete([]uint32{77, 77}, []uint32{1, 3})
			tw.insert([]uint32{77}, []uint32{12})
			step("a vertex emptied and refilled")

			bs, bd := randomBatch(rng, 200_000, 0, n, n)
			tw.insert(bs, bd)
			step("a bulk load")
			tw.delete(bs[:150_000], bd[:150_000])
			step("a bulk delete")
			for _, shape := range batchShapes()[:8] {
				if shape.nv > n {
					continue
				}
				tw.insert(shape.src, shape.dst)
				step("insert of shape " + shape.name)
				tw.delete(shape.src[:len(shape.src)/3], shape.dst[:len(shape.src)/3])
				step("delete of shape " + shape.name)
			}
			for b := 0; b < 200; b++ {
				src, dst := randomBatch(rng, 1+rng.Intn(600), 0, n, n)
				if b%3 == 2 {
					tw.delete(src, dst)
				} else {
					tw.insert(src, dst)
				}
				if b%20 == 0 {
					step("a stream of small batches")
				}
			}
			step("the stream")
			if b := tw.g.MemoryBreakdown(); b.Total() != b.Scratch {
				t.Fatalf("paged graph holds live structures: %+v", b)
			}
		})
	}
}

// Encoding of a merge program, one op per 4 bytes {op, a, b, c}; op%10:
// 0..2 insert and 3..4 delete a batch over b%8+1 consecutive sources from a,
// each with c%24+1 neighbors (every third key twice), 5 give vertex a a run
// of 64·(b+1) neighbors striding from c (longer than a small shard's page),
// 6 delete everything vertex a holds and insert c%4 neighbors back, 7 grow
// the vertex space by a%16+1 and add an edge from and to its last vertex, 8
// publish every shard (holding the snapshot when a is odd), 9 move boundary
// a%(shards-1) to a place b picks.
const (
	mergeVerts = 96      // sources batches name at first
	mergeSpace = 1 << 12 // neighbor IDs
)

// runMergeProgram interprets prog on a twin of the given shard count,
// comparing every adjacency after every op and every held snapshot against
// what the oracle read when it was published.
func runMergeProgram(prog []byte, shards int) error {
	tw := newTwin(mergeSpace, Config{Shards: shards, Workers: 2})
	type held struct {
		snap *Snapshot
		want *Snapshot
		base uint32
	}
	var holds []held
	latest := make([]*Snapshot, shards)
	for i := 0; len(prog) >= 4; i, prog = i+1, prog[4:] {
		op, a, b, c := prog[0]%10, uint32(prog[1]), uint32(prog[2]), uint32(prog[3])
		n := tw.ref.NumVertices()
		vertex := func(x uint32) uint32 { return x % mergeVerts * (mergeSpace / mergeVerts) } // over every shard
		var src, dst []uint32
		switch {
		case op < 5:
			for s := uint32(0); s <= b%8; s++ {
				for k := uint32(0); k <= c%24; k++ {
					src, dst = append(src, vertex(a+s)), append(dst, (c*31+k*(2*(a%4)+1)+s)%n)
					if k%3 == 0 {
						src, dst = append(src, src[len(src)-1]), append(dst, dst[len(dst)-1])
					}
				}
			}
		case op == 5:
			for k := uint32(0); k < 64*(b+1); k++ {
				src, dst = append(src, vertex(a)), append(dst, (c*97+k*3)%n)
			}
		case op == 6:
			v := vertex(a)
			for _, u := range tw.ref.AppendNeighbors(v, nil) {
				src, dst = append(src, v), append(dst, u)
			}
			tw.delete(src, dst)
			src, dst = nil, nil
			for k := uint32(0); k < c%4; k++ {
				src, dst = append(src, v), append(dst, (b+k*5)%n)
			}
		case op == 7:
			n += a%16 + 1
			tw.ensure(n)
			src, dst = []uint32{n - 1, vertex(b)}, []uint32{c % n, n - 1}
		case op == 8:
			for k := range latest {
				sh := tw.g.Shard(k)
				snap := sh.Publish()
				want := tw.ref.Shard(k).SnapshotInto(nil)
				if err := snapshotsEqual(snap, want); err != nil {
					return fmt.Errorf("op %d: shard %d published: %w", i, k, err)
				}
				if old := latest[k]; old != nil && !slices.ContainsFunc(holds, func(h held) bool { return h.snap == old }) {
					sh.Recycle(old)
				}
				if latest[k] = snap; a%2 == 1 && len(holds) < 8 {
					holds = append(holds, held{snap, want, sh.Base()})
				}
			}
		case shards > 1:
			pm := tw.ref.PartitionMap()
			k := int(a) % (shards - 1)
			lo, hi := pm.Starts[k]+1, n
			if k+2 < shards {
				hi = pm.Starts[k+2]
			}
			if err := tw.move(k, lo+b*16%(hi-lo)); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
		if op < 3 || op > 4 && op < 8 {
			tw.insert(src, dst)
		} else if op < 5 {
			tw.delete(src, dst)
		}
		if err := tw.check(); err != nil {
			return fmt.Errorf("op %d (%d %d %d %d): %w", i, op, a, b, c, err)
		}
	}
	for _, h := range holds {
		if err := snapshotsEqual(h.snap, h.want); err != nil {
			return fmt.Errorf("snapshot held since its publish (base %d): %w", h.base, err)
		}
	}
	return nil
}

func snapshotsEqual(got, want *Snapshot) error {
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		return fmt.Errorf("%d vertices / %d edges, want %d / %d", got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := uint32(0); v < want.NumVertices(); v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
			return fmt.Errorf("vertex %d reads %v, want %v", v, got.Neighbors(v), want.Neighbors(v))
		}
	}
	return nil
}

// FuzzMergeApply drives the merge path of paged shards differentially
// against the bare engine (runMergeProgram); the first byte picks one to
// three shards.
func FuzzMergeApply(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 3, 7, 9, 8, 1, 0, 0, 3, 3, 2, 9, 5, 4, 200, 1, 8, 0, 0, 0, 6, 4, 0, 2})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		if err := runMergeProgram(prog[1:], 1+int(prog[0])%3); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMergePrograms runs the fuzz target's interpreter on long pseudo-random
// programs at one, two and three shards, so the plain test run covers it.
func TestMergePrograms(t *testing.T) {
	for seed := byte(1); seed <= 6; seed++ {
		var prog []byte
		for i := 0; i < 300; i++ {
			x := byte(i)*37 + seed*byte(i>>2)
			prog = append(prog, x%10, x*3+seed, 16+x%64, x*11)
		}
		if err := runMergeProgram(prog, 1+int(seed)%3); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
