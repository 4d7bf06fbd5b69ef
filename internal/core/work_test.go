package core

import (
	"fmt"
	"testing"
)

// workCeilings are the write path's work per changed edge on
// TestWorkPerBatch's stream, by scale: table entries copied, run entries
// placed and entries the cleaner copied forward. Each is the count this
// stream produced when it was set, rounded up in its third digit. A change
// that adds work fails the test; one that removes work lowers the ceiling.
var workCeilings = map[uint]struct{ copied, placed, cleaned float64 }{
	13: {copied: 7.94, placed: 53.7, cleaned: 28.6},
	15: {copied: 31.8, placed: 41.2, cleaned: 10.9},
}

// TestWorkPerBatch counts what the write path does for a fixed, seeded
// stream: the G13 and G15 rMat graphs in two paged shards, 16 batches of
// 1 000 new edges inserted one by one and then deleted again in reverse,
// each shard's part applied and published and the previous snapshot
// recycled, as a Store's writer does. Counts, unlike timings, do not drift
// with the host, so each is held to a committed ceiling.
func TestWorkPerBatch(t *testing.T) {
	for _, scale := range []uint{13, 15} {
		t.Run(fmt.Sprintf("G%d", scale), func(t *testing.T) {
			src, dst, batches := rulerGraph(scale, 9, 16, 1000)
			g := pagedFrom(NewFromEdges(1<<scale, src, dst, Config{Workers: 2}), 2)
			ps := newPublishStream(g, batches, func(uint32) bool { return true })
			work := func() (copied, placed, cleaned uint64) {
				for k := range ps.snaps {
					st := g.Shard(k).Published()
					copied, placed, cleaned = copied+st.TableCopied, placed+st.Placed, cleaned+st.Cleaned
				}
				return copied, placed, cleaned
			}
			copied0, placed0, cleaned0 := work()
			var changed uint64
			for i := 0; i < 2*len(batches)*len(ps.snaps); i++ {
				sh := g.Shard(i % len(ps.snaps))
				m := sh.NumEdges()
				ps.step(i)
				changed += max(m, sh.NumEdges()) - min(m, sh.NumEdges())
			}
			if changed == 0 {
				t.Fatal("the stream changed no edge")
			}
			copied, placed, cleaned := work()
			per := func(n uint64) float64 { return float64(n) / float64(changed) }
			got := []float64{per(copied - copied0), per(placed - placed0), per(cleaned - cleaned0)}
			c := workCeilings[scale]
			t.Logf("%d changed edges; per changed edge: %.6g table entries copied, %.6g entries placed, %.6g cleaned",
				changed, got[0], got[1], got[2])
			for i, ceil := range []float64{c.copied, c.placed, c.cleaned} {
				if got[i] > ceil {
					t.Errorf("%s per changed edge = %.6g, over its ceiling %.3g",
						[]string{"table entries copied", "entries placed", "entries cleaned"}[i], got[i], ceil)
				}
			}
		})
	}
}
