package core

import (
	"fmt"
	"slices"
	"testing"
	"time"
	"unsafe"

	"lsgraph/internal/gen"
)

// benchGraph builds a loaded graph for the snapshot benchmarks.
func benchGraph(b *testing.B, workers int) *Graph {
	b.Helper()
	g := New(1<<12, Config{Workers: workers})
	es := gen.Symmetrize(gen.NewRMatPaper(12, 9).Edges(60_000))
	src := make([]uint32, len(es))
	dst := make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	g.InsertBatch(src, dst)
	return g
}

// BenchmarkSnapshot is the allocate-every-call baseline: what the Store's
// republish loop would pay without the reuse path.
func BenchmarkSnapshot(b *testing.B) {
	g := benchGraph(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Snapshot()
	}
}

// BenchmarkSnapshotInto is the steady-state republish path: flattening
// into a warm snapshot. Compare allocs/op against BenchmarkSnapshot — the
// offs/adj allocations disappear entirely.
func BenchmarkSnapshotInto(b *testing.B) {
	g := benchGraph(b, 0)
	s := g.Snapshot() // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = g.SnapshotInto(s)
	}
}

// BenchmarkPublish is the Store's steady write path beneath the serving
// layer, on the ruler's store-stream shape (rulerGraph): the G15 graph in
// two shards, 64 batches of 1 000 new edges inserted one by one and then
// deleted again, each shard's ~500-edge part applied — merged into the
// paged shard's runs — and published and the previous snapshot recycled.
// One op is one shard-batch; ns/op covers apply and publish, publish-ns/op
// and publish-p50-ns the publish alone (the table's seal and the cleaner), and the
// other metrics say what the arena did for it: entries the batches' runs
// appended, entries the cleaner copied, and resident arena bytes per edge
// at the end. G17 is the same stream on a graph four times the size: what
// grows there is what follows the shard and not the batch.
func BenchmarkPublish(b *testing.B) {
	for _, scale := range []uint{15, 17} {
		b.Run(fmt.Sprintf("G%d", scale), func(b *testing.B) { benchPublish(b, scale) })
	}
}

// publishStream drives the stream both publish benchmarks measure: batch j's
// part for shard k applied and published, the previous snapshot recycled;
// the first half of a round inserts the batches, the second deletes them in
// reverse. It keeps what the measured loop is asked about.
type publishStream struct {
	g       *Paged
	parts   [][]SubBatch // per batch, per shard
	snaps   []*Snapshot  // per shard, the latest
	applies time.Duration
	publish []time.Duration
}

func newPublishStream(g *Paged, batches [][2][]uint32, keep func(src uint32) bool) *publishStream {
	ps := &publishStream{g: g, snaps: make([]*Snapshot, g.NumShards())}
	for _, bt := range batches {
		var cs, cd []uint32
		for i, v := range bt[0] {
			if keep(v) {
				cs, cd = append(cs, v), append(cd, bt[1][i])
			}
		}
		parts := g.Scatter(cs, cd, g.Workers())
		ps.parts = append(ps.parts, parts)
	}
	return ps
}

func (ps *publishStream) step(i int) {
	S, nb := len(ps.snaps), len(ps.parts)
	k, j := i%S, i/S%(2*nb)
	sh := ps.g.Shard(k)
	t := time.Now()
	if j < nb {
		sh.InsertBatch(ps.parts[j][k].Src, ps.parts[j][k].Dst)
	} else {
		sh.DeleteBatch(ps.parts[2*nb-1-j][k].Src, ps.parts[2*nb-1-j][k].Dst)
	}
	ps.applies += time.Since(t)
	t = time.Now()
	next := sh.Publish()
	ps.publish = append(ps.publish, time.Since(t))
	if ps.snaps[k] != nil {
		sh.Recycle(ps.snaps[k])
	}
	ps.snaps[k] = next
}

// run warms the arena up with ten rounds, so that it is in the state a long
// stream leaves it, then times b.N steps and returns the entries the batches'
// runs took, the entries the cleaner copied and the publishes' total time
// during them.
func (ps *publishStream) run(b *testing.B) (appended, cleaned uint64, publishNs time.Duration) {
	for i := 0; i < 10*2*len(ps.parts)*len(ps.snaps); i++ {
		ps.step(i)
	}
	placed0, cleaned0 := ps.placed()
	ps.applies, ps.publish = 0, ps.publish[:0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.step(i)
	}
	b.StopTimer()
	for _, d := range ps.publish {
		publishNs += d
	}
	placed, cleaned := ps.placed()
	return placed - placed0 - (cleaned - cleaned0), cleaned - cleaned0, publishNs
}

// placed sums the entries the shards' arenas have placed, and of those the
// cleaner's.
func (ps *publishStream) placed() (placed, cleaned uint64) {
	for k := range ps.snaps {
		st := ps.g.Shard(k).Published()
		placed, cleaned = placed+st.Placed, cleaned+st.Cleaned
	}
	return placed, cleaned
}

func benchPublish(b *testing.B, scale uint) {
	src, dst, batches := rulerGraph(scale, 9, 64, 1000)
	g := pagedFrom(NewFromEdges(1<<scale, src, dst, Config{Workers: 2}), 2)
	ps := newPublishStream(g, batches, func(uint32) bool { return true })
	appended, cleaned, publishNs := ps.run(b)
	var arena, edges uint64
	for k := range ps.snaps {
		st := g.Shard(k).Published()
		arena, edges = arena+st.InUse+st.Free+st.Retired, edges+g.Shard(k).NumEdges()
	}
	slices.Sort(ps.publish)
	b.ReportMetric(float64(publishNs)/float64(b.N), "publish-ns/op")
	b.ReportMetric(float64(ps.publish[len(ps.publish)/2]), "publish-p50-ns")
	b.ReportMetric(float64(appended)/float64(b.N), "appended-entries/op")
	b.ReportMetric(float64(cleaned)/float64(b.N), "cleaned-entries/op")
	b.ReportMetric(float64(arena)/float64(edges), "arena-B/edge")
}

// BenchmarkPublishByClass is ROADMAP item 2's step one: what each degree
// class holds live and published, and what one streamed edge costs in apply
// and in publish when its source vertex is of that class. It splits the
// ruler's 1 000-edge batches by the class their source vertex has in the
// base graph (inline: no overflow; array; RIA; HITree) and streams each
// class's share alone through two shards the way BenchmarkPublish does. One
// op is one shard-batch of that class's edges.
func BenchmarkPublishByClass(b *testing.B) {
	const scale = 15
	src, dst, batches := rulerGraph(scale, 9, 64, 1000)
	class := func(g *Graph, v uint32) int {
		if vb := g.vb(v); vb.ov == nil {
			return 0
		} else {
			return 1 + int(vb.kind())
		}
	}
	for c, name := range []string{"inline", "array", "RIA", "HITree"} {
		b.Run(name, func(b *testing.B) {
			bare := NewFromEdges(1<<scale, src, dst, Config{Workers: 2})
			// What the class holds: its vertices' 64-byte blocks and overflow
			// structures in the bare engine, four bytes an entry published.
			var verts, entries, live uint64
			for v := uint32(0); v < 1<<scale; v++ {
				vb := bare.vb(v)
				if vb.degree() == 0 || class(bare, v) != c {
					continue
				}
				verts, entries, live = verts+1, entries+uint64(vb.degree()), live+uint64(unsafe.Sizeof(vertex{}))
				switch n := vb.ovLen(); {
				case vb.ov == nil:
				case vb.kind() == kindArr:
					live += 4 * uint64(arrCap(int(n)))
				case vb.kind() == kindRIA:
					live += vb.ria().Memory()
				default:
					live += vb.tree().Memory()
				}
			}
			ps := newPublishStream(pagedFrom(bare, 2), batches, func(v uint32) bool { return class(bare, v) == c })
			edges := 0
			for _, parts := range ps.parts {
				for _, p := range parts {
					edges += len(p.Src)
				}
			}
			ops := float64(len(ps.parts) * len(ps.snaps))
			var appended, cleaned uint64
			var publishNs time.Duration
			if edges > 0 {
				appended, cleaned, publishNs = ps.run(b)
			}
			// After the timed loop: ResetTimer drops reported metrics.
			b.ReportMetric(float64(verts), "vertices")
			b.ReportMetric(100*float64(entries)/float64(len(src)), "%edges")
			if edges == 0 {
				return
			}
			b.ReportMetric(float64(live)/float64(entries), "live-B/edge")
			b.ReportMetric(float64(edges)/ops, "edges/op")
			perEdge := float64(b.N) * float64(edges) / ops
			b.ReportMetric(float64(ps.applies)/perEdge, "apply-ns/edge")
			b.ReportMetric(float64(publishNs)/perEdge, "publish-ns/edge")
			b.ReportMetric(float64(appended)/perEdge, "appended-entries/edge")
			b.ReportMetric(float64(cleaned)/perEdge, "cleaned-entries/edge")
		})
	}
}
