package serve

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lsgraph/internal/core"
	"lsgraph/internal/obs"
	"lsgraph/internal/wal"
)

// scrape is one Prometheus export of the Default registry's lsgraph_store_*
// and lsgraph_wal_* series: each name's sum over its series, and its values
// by shard label.
type scrape struct {
	sum     map[string]uint64
	byShard map[string]map[int]uint64
}

var shardLabel = regexp.MustCompile(`shard="(\d+)"`)

func scrapeStoreSeries(t *testing.T) scrape {
	t.Helper()
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sc := scrape{sum: map[string]uint64{}, byShard: map[string]map[int]uint64{}}
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "lsgraph_store_") && !strings.HasPrefix(line, "lsgraph_wal_") {
			continue
		}
		series, val, _ := strings.Cut(line, " ")
		name, _, _ := strings.Cut(series, "{")
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("series %q: %v", line, err)
		}
		v := uint64(f)
		sc.sum[name] += v
		if m := shardLabel.FindStringSubmatch(series); m != nil {
			i, _ := strconv.Atoi(m[1])
			if sc.byShard[name] == nil {
				sc.byShard[name] = map[int]uint64{}
			}
			sc.byShard[name][i] += v
		}
	}
	return sc
}

// arenaOf sums the resident arena pages of st's shards. The writer is
// idle after a Flush, so reading its shards is safe.
func arenaOf(st *Store) uint64 {
	var n uint64
	for i := range st.shards {
		ps := st.shards[i].shard.Published()
		n += ps.InUse + ps.Free + ps.Retired
	}
	return n
}

// randomEdges returns m edges with sources and destinations below n.
func randomEdges(rng *rand.Rand, n uint32, m int) (src, dst []uint32) {
	for i := 0; i < m; i++ {
		src = append(src, uint32(rng.Intn(int(n))))
		dst = append(dst, uint32(rng.Intn(int(n))))
	}
	return src, dst
}

// TestStoreSeriesAcrossStores: the store and WAL series are sums over every
// open Store — per shard index for a shard series — whether or not metric
// collection is on. A closed Store's share leaves the gauges and stays in the
// counters, so no *_total series goes down.
func TestStoreSeriesAcrossStores(t *testing.T) {
	for _, on := range []bool{false, true} {
		t.Run(fmt.Sprintf("collection=%v", on), func(t *testing.T) {
			prev := obs.Enabled()
			obs.SetEnabled(on)
			defer obs.SetEnabled(prev)
			rng := rand.New(rand.NewSource(35))

			// Two graphs: the second one's small flush must add to the arena
			// series, not replace the first one's share.
			base := scrapeStoreSeries(t)
			a := New(core.NewPaged(1<<12, 2, 2), Options{})
			a.InsertBatch(randomEdges(rng, 1<<12, 50000))
			a.Flush()
			b := New(core.NewPaged(64, 2, 2), Options{})
			b.InsertBatch([]uint32{1}, []uint32{2})
			b.Flush()
			both := scrapeStoreSeries(t)
			arenaA, arenaB := arenaOf(a), arenaOf(b)
			if got := both.sum["lsgraph_store_arena_bytes"] - base.sum["lsgraph_store_arena_bytes"]; got != arenaA+arenaB {
				t.Errorf("arena series grew by %d with both stores open, want %d + %d", got, arenaA, arenaB)
			}
			// a's batch touched both of its shards, b's one.
			if got := both.sum["lsgraph_store_shard_batches_applied_total"] - base.sum["lsgraph_store_shard_batches_applied_total"]; got != 3 {
				t.Errorf("applied series grew by %d, want 3", got)
			}

			a.Close()
			closed := scrapeStoreSeries(t)
			for name, v := range both.sum {
				if strings.HasSuffix(name, "_total") && closed.sum[name] < v {
					t.Errorf("%s went down from %d to %d when a store closed", name, v, closed.sum[name])
				}
			}
			if got := closed.sum["lsgraph_store_arena_bytes"] - base.sum["lsgraph_store_arena_bytes"]; got != arenaB {
				t.Errorf("arena series is %d over its base after the first store closed, want the second's %d", got, arenaB)
			}
			b.Close()

			// Sixteen shards: sixteen routed series, each the shard's own count.
			before := scrapeStoreSeries(t)
			c := New(core.NewPaged(1<<10, 16, 2), Options{})
			src, dst := randomEdges(rng, 1<<10, 4000)
			for v := uint32(0); v < 1<<10; v++ {
				src, dst = append(src, v), append(dst, v^1)
			}
			c.InsertBatch(src, dst)
			c.Flush()
			after := scrapeStoreSeries(t)
			routed := c.Partition().Routed
			got := after.byShard["lsgraph_store_shard_edges_routed_total"]
			if len(got) < 16 {
				t.Errorf("routed series exports %d shard indexes for a 16-shard store", len(got))
			}
			for i, want := range routed {
				if d := got[i] - before.byShard["lsgraph_store_shard_edges_routed_total"][i]; d != want {
					t.Errorf(`routed series shard="%d" grew by %d, want %d`, i, d, want)
				}
			}
			c.Close()

			// A durable store: the WAL series are its log's and its checkpoints'
			// counts, and a reopen adds what its recovery replayed.
			before = scrapeStoreSeries(t)
			dir := t.TempDir()
			dopt := DurabilityOptions{Dir: dir, Fsync: wal.FsyncNone, SegmentBytes: 4 << 10}
			d, err := OpenDurable(256, 2, 2, Options{}, dopt)
			if err != nil {
				t.Fatal(err)
			}
			// Segments go once two checkpoints cover them; the last round's
			// records stay for the reopen to replay.
			for round := 0; round < 4; round++ {
				for i := 0; i < 8; i++ {
					d.InsertBatch(randomEdges(rng, 256, 100))
				}
				d.Flush()
				if round < 3 {
					if err := d.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			st := d.Stats()
			after = scrapeStoreSeries(t)
			for name, want := range map[string]uint64{
				"lsgraph_wal_records_total":       st.WALRecords,
				"lsgraph_wal_bytes_total":         st.WALBytes,
				"lsgraph_wal_fsyncs_total":        st.WALFsyncs,
				"lsgraph_wal_checkpoints_total":   st.Checkpoints,
				"lsgraph_wal_segments_gced_total": st.SegmentsGCed,
			} {
				if got := after.sum[name] - before.sum[name]; got != want || want == 0 {
					t.Errorf("%s grew by %d, want the store's %d (> 0)", name, got, want)
				}
			}
			d.Close()
			before = scrapeStoreSeries(t)
			re, err := OpenDurable(256, 2, 2, Options{}, dopt)
			if err != nil {
				t.Fatal(err)
			}
			after = scrapeStoreSeries(t)
			replayed := re.Recovery().ReplayedRecords
			if got := after.sum["lsgraph_wal_replay_records_total"] - before.sum["lsgraph_wal_replay_records_total"]; got != replayed || replayed == 0 {
				t.Errorf("replay series grew by %d, want the reopen's %d (> 0)", got, replayed)
			}
			re.Close()
		})
	}
}
