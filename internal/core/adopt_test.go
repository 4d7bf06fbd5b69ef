package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lsgraph/internal/engine"
)

// twin feeds one stream of operations to a paged graph — tables over page
// arenas, batches merged into runs — and to a bare Graph of one range, the
// paper's engine on its live structures, which is the oracle for everything
// the paged shards do. The paged graph is read the way a Store reads it,
// through the snapshots its shards publish, and each shard is judged by what
// the oracle holds over the shard's current range: a boundary move by
// content, not by a second move.
type twin struct {
	g   *Paged
	ref *Graph
	// own holds, per shard, the snapshot check published last; check
	// recycles it once it has published the next.
	own []*Snapshot
}

// newTwin is a twin of n vertices: the paged graph in shards ranges with
// cfg's workers, the oracle under cfg.
func newTwin(n uint32, shards int, cfg Config) twin {
	return twinOf(NewPaged(n, shards, cfg.Workers), New(n, cfg))
}

func twinOf(g *Paged, ref *Graph) twin { return twin{g, ref, make([]*Snapshot, g.NumShards())} }

// pagedFrom is a paged graph of live's edges in shards ranges, loaded as
// recovery loads a checkpoint: live's CSR copied to pages, in vertex order.
func pagedFrom(live *Graph, shards int) *Paged {
	g := NewPaged(live.NumVertices(), shards, live.Config().Workers)
	offs, adj := live.Snapshot().CSR()
	if err := g.LoadCSR(0, offs, adj); err != nil {
		panic(err)
	}
	return g
}

// rangeSnapshot is a plain CSR of ref's vertices [base, base+n), neighbors
// keeping their global IDs: what a paged shard over that range publishes.
func rangeSnapshot(ref *Graph, base, n uint32) *Snapshot {
	s := &Snapshot{tab: make([]vref, n)}
	for lv := range s.tab {
		at := len(s.adj)
		// A degree-0 slot stays vref{}, as a flatten leaves it.
		if s.adj = ref.AppendNeighbors(base+uint32(lv), s.adj); len(s.adj) > at {
			s.tab[lv] = vref{uint32(at), uint32(len(s.adj) - at)}
		}
	}
	s.m = uint64(len(s.adj))
	for lo := 0; lo < max(len(s.adj), 1); lo += pageSize {
		s.pages = append(s.pages, s.adj[lo:])
	}
	return s
}

// want is what shard i of the paged graph must publish now: the oracle over
// the shard's base and materialized slots.
func (tw twin) want(i int) *Snapshot {
	sh := tw.g.Shard(i)
	return rangeSnapshot(tw.ref, sh.Base(), sh.NumVertices())
}

func (tw twin) ensure(n uint32) {
	for k := 0; k < tw.g.NumShards(); k++ {
		tw.g.Shard(k).EnsureVertices(n)
	}
	tw.ref.EnsureVertices(n)
}

// batch applies one batch to both: to the paged graph's shards routed as a
// Store's writer routes it (by the shards' ranges as they lie now), to the
// oracle whole.
func (tw twin) batch(src, dst []uint32, del bool) {
	parts := tw.g.Scatter(src, dst, tw.g.Workers())
	for k, p := range parts {
		if sh := tw.g.Shard(k); del {
			sh.DeleteBatch(p.Src, p.Dst)
		} else {
			sh.InsertBatch(p.Src, p.Dst)
		}
	}
	if del {
		tw.ref.DeleteBatch(src, dst)
	} else {
		tw.ref.InsertBatch(src, dst)
	}
}

func (tw twin) insert(src, dst []uint32) { tw.batch(src, dst, false) }

func (tw twin) delete(src, dst []uint32) { tw.batch(src, dst, true) }

// move moves the paged graph's boundary k to newStart; the edges it reports
// moved must be the oracle's over the range that changed owner.
func (tw twin) move(k int, newStart uint32) error {
	old := tw.g.shards[k+1].base
	_, e, err := tw.g.MoveBoundary(k, newStart)
	if err != nil {
		return err
	}
	var want uint64
	for v := min(old, newStart); v < max(old, newStart) && v < tw.ref.NumVertices(); v++ {
		want += uint64(tw.ref.Degree(v))
	}
	if e != want {
		return fmt.Errorf("MoveBoundary(%d, %d) moved %d edges, the oracle holds %d in the range", k, newStart, e, want)
	}
	return nil
}

// check runs the deep walk on both graphs, publishes every paged shard and
// compares what the snapshot reads, vertex by vertex, with the oracle over
// the shard's range, and checks that the shards hold every edge the oracle
// does: none lies in a range no shard materializes.
func (tw twin) check() error {
	g, ref := tw.g, tw.ref
	if err := g.CheckInvariants(); err != nil {
		return err
	}
	if err := ref.CheckInvariants(); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if g.NumVertices() != ref.NumVertices() {
		return fmt.Errorf("%d vertices, oracle %d", g.NumVertices(), ref.NumVertices())
	}
	var m uint64
	for i := range tw.own {
		sh := g.Shard(i)
		snap := sh.Publish()
		if old := tw.own[i]; old != nil {
			sh.Recycle(old)
		}
		tw.own[i] = snap
		if err := snapshotsEqual(snap, tw.want(i)); err != nil {
			return fmt.Errorf("shard %d (base %d) published: %w", i, sh.Base(), err)
		}
		m += snap.NumEdges()
	}
	if m != ref.NumEdges() {
		return fmt.Errorf("shards hold %d edges, oracle %d", m, ref.NumEdges())
	}
	return nil
}

// sameAsShard checks a snapshot of shard i against the oracle over the
// shard's current range.
func (tw twin) sameAsShard(t *testing.T, what string, i int, snap *Snapshot) {
	t.Helper()
	sameSnapshot(t, what, snap, tw.want(i))
}

// TestAdoptedShardMatchesGraph walks a paged graph and the oracle through
// every kind of batch the merge has a case for and compares every adjacency
// after each: duplicates inside a batch, edges already present and deletes of
// absent ones, groups that change nothing, a batch that changes nothing at
// all, growth past NumVertices, a vertex emptied and refilled, a run longer
// than a page, a bulk load, and the partition-stressing shapes at 1, 2 and 4
// workers, in one shard and in three.
func TestAdoptedShardMatchesGraph(t *testing.T) {
	for _, c := range []struct{ shards, workers int }{{1, 1}, {3, 2}, {1, 4}} {
		t.Run(fmt.Sprintf("shards=%d/p=%d", c.shards, c.workers), func(t *testing.T) {
			const n = 1 << 15
			tw := newTwin(n, c.shards, Config{Workers: c.workers})
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
		})
	}
}

// Encoding of a merge program, one op per 4 bytes {op, a, b, c}; op%11:
// 0..2 insert and 3..4 delete a batch over b%8+1 consecutive sources from a,
// each with c%24+1 neighbors (every third key twice), 5 give vertex a a run
// of 64·(b+1) neighbors striding from c (longer than a small shard's page),
// 6 delete everything vertex a holds and insert c%4 neighbors back, 7 grow
// the vertex space by a%16+1 and add an edge from and to its last vertex, 8
// publish every shard (holding the snapshot when a is odd), 9 move boundary
// a%(shards-1) to a place b picks, 10 reload: each shard's CSR from its
// latest publish and a delta drawn from the next a%8+1 words (reloadDelta)
// are loaded into a fresh paged graph, as recovery loads a checkpoint and
// its log tail.
const (
	mergeVerts = 96      // sources batches name at first
	mergeSpace = 1 << 12 // neighbor IDs
)

// runMergeProgram interprets prog on a twin of the given shard count,
// comparing every adjacency after every op and every held snapshot against
// what the oracle read when it was published.
func runMergeProgram(prog []byte, shards int) error {
	tw := newTwin(mergeSpace, shards, Config{Workers: 2})
	type held struct {
		snap *Snapshot
		want *Snapshot
		base uint32
	}
	var holds []held
	latest := make([]*Snapshot, shards)
	for i := 0; len(prog) >= 4; i, prog = i+1, prog[4:] {
		op, a, b, c := prog[0]%11, uint32(prog[1]), uint32(prog[2]), uint32(prog[3])
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
				want := tw.want(k)
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
		case op == 10:
			words := min(int(a%8)+1, len(prog)/4-1)
			d := reloadDelta(tw.ref, prog[4:4+4*words], vertex)
			prog = prog[4*words:]
			g, err := reload(tw, d)
			if err != nil {
				return fmt.Errorf("op %d: reload: %w", i, err)
			}
			tw, latest = twinOf(g, tw.ref), make([]*Snapshot, shards)
		case op == 9 && shards > 1:
			starts := tw.g.starts()
			k := int(a) % (shards - 1)
			lo, hi := starts[k]+1, n
			if k+2 < shards {
				hi = starts[k+2]
			}
			if err := tw.move(k, lo+b*16%(hi-lo)); err != nil && err != ErrNoMove {
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

// reloadDelta draws a net-effect delta from words of 4 bytes {x, y, z, w}
// and applies it to ref: an insert (w%4 < 2) or a delete from vertex(x) of
// one of its present neighbors (w odd, when it has any) or of (y·256+z)%n.
// An edge drawn twice keeps its last op.
func reloadDelta(ref *Graph, words []byte, vertex func(uint32) uint32) Delta {
	n, op := ref.NumVertices(), map[uint64]bool{}
	for ; len(words) >= 4; words = words[4:] {
		v, u := vertex(uint32(words[0])), (uint32(words[1])<<8|uint32(words[2]))%n
		if ns := ref.AppendNeighbors(v, nil); words[3]%2 == 1 && len(ns) > 0 {
			u = ns[int(words[1])%len(ns)]
		}
		op[uint64(v)<<32|uint64(u)] = words[3]%4 >= 2
	}
	var d Delta
	var ins, del [2][]uint32
	for k := range op {
		d.Keys = append(d.Keys, k)
	}
	slices.Sort(d.Keys)
	for _, k := range d.Keys {
		d.Del = append(d.Del, op[k])
		col := &ins
		if op[k] {
			col = &del
		}
		col[0], col[1] = append(col[0], uint32(k>>32)), append(col[1], uint32(k))
	}
	ref.InsertBatch(ins[0], ins[1])
	ref.DeleteBatch(del[0], del[1])
	return d
}

// reload loads each shard's CSR from the snapshot check published last,
// merged with the part of d whose sources lie from the shard's base up to
// the next shard's, into a fresh paged graph of the same size and shard
// count — its boundaries uniform, so a moved boundary makes CSRs straddle
// them.
func reload(tw twin, d Delta) (*Paged, error) {
	g := NewPaged(tw.ref.NumVertices(), len(tw.own), 2)
	from := 0
	for k, snap := range tw.own {
		to := len(d.Keys)
		if k+1 < len(tw.own) {
			to, _ = slices.BinarySearch(d.Keys, uint64(tw.g.Shard(k+1).Base())<<32)
		}
		base, offs, adj := tw.g.Shard(k).Base(), []uint64{0}, []uint32(nil)
		if snap != nil {
			offs, adj = snap.CSR()
		}
		if err := g.LoadCSR(base, offs, adj, Delta{d.Keys[from:to], d.Del[from:to]}); err != nil {
			return nil, err
		}
		from = to
	}
	return g, nil
}

// snapshotsEqual compares two snapshots vertex by vertex, through each of
// their read methods.
func snapshotsEqual(got, want *Snapshot) error {
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		return fmt.Errorf("%d vertices / %d edges, want %d / %d", got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := uint32(0); v < want.NumVertices(); v++ {
		ns := want.Neighbors(v)
		if !slices.Equal(got.Neighbors(v), ns) || got.Degree(v) != uint32(len(ns)) {
			return fmt.Errorf("vertex %d reads %v (degree %d), want %v", v, got.Neighbors(v), got.Degree(v), ns)
		}
		if err := engine.CheckBlocks(func(y func([]uint32) bool) { got.NeighborBlocks(v, y) }, ns); err != nil {
			return fmt.Errorf("vertex %d: %w", v, err)
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
	// A reload whose delta inserts an absent and a present edge and deletes
	// an absent and a present one, across both shards, then a batch on it.
	f.Add([]byte{1, 0, 3, 7, 9, 0, 60, 2, 30, 10, 3, 0, 0, 3, 0, 9, 0, 3, 1, 0, 1, 60, 0, 3, 2, 3, 0, 0, 3, 0, 3, 7, 9})
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
			prog = append(prog, x%11, x*3+seed, 16+x%64, x*11)
		}
		if err := runMergeProgram(prog, 1+int(seed)%3); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
