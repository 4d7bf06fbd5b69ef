package lsgraph

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// storeEdges flattens a store view into a sorted edge list.
func storeEdges(s *Store) []Edge {
	v := s.View()
	defer v.Release()
	var out []Edge
	for u := uint32(0); u < v.NumVertices(); u++ {
		v.ForEachNeighbor(u, func(w uint32) { out = append(out, Edge{u, w}) })
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

func TestOpenStoreDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(64, WithShards(2), WithDurability(dir, DurabilityOptions{}))
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if !st.Durable() {
		t.Fatal("store not durable")
	}
	st.InsertEdges([]Edge{{1, 2}, {2, 1}, {1, 3}, {3, 1}, {40, 50}})
	st.DeleteEdges([]Edge{{1, 3}})
	st.Flush()
	want := storeEdges(st)
	st.Close()

	re, err := OpenStore(64, WithShards(2), WithDurability(dir, DurabilityOptions{}))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if rst := re.Recovery(); rst.ReplayedRecords == 0 {
		t.Fatalf("nothing replayed: %+v", rst)
	}
	got := storeEdges(re)
	if len(got) != len(want) {
		t.Fatalf("recovered %d edges, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("edge[%d]=%v, want %v", i, got[i], want[i])
		}
	}
}

func TestOpenStoreCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(16, WithDurability(dir, DurabilityOptions{Fsync: "always"}))
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	st.InsertEdges([]Edge{{0, 1}, {1, 0}})
	st.Flush()
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st.Close()

	re, err := OpenStore(16, WithDurability(dir, DurabilityOptions{}))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	rst := re.Recovery()
	if !rst.CheckpointLoaded {
		t.Fatalf("checkpoint not loaded: %+v", rst)
	}
	if re.NumEdges() != 2 || re.Degree(0) != 1 {
		t.Fatalf("recovered m=%d deg(0)=%d", re.NumEdges(), re.Degree(0))
	}
}

func TestOpenStoreBadFsyncPolicy(t *testing.T) {
	_, err := OpenStore(8, WithDurability(t.TempDir(), DurabilityOptions{Fsync: "sometimes"}))
	if err == nil {
		t.Fatal("bad fsync policy accepted")
	}
}

func TestOpenStoreWithoutDurability(t *testing.T) {
	st, err := OpenStore(8)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer st.Close()
	if st.Durable() {
		t.Fatal("plain store claims durability")
	}
	if err := st.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on non-durable store succeeded")
	}
	if rst := st.Recovery(); rst.ReplayedRecords != 0 || rst.CheckpointLoaded {
		t.Fatalf("non-durable recovery stats: %+v", rst)
	}
}

func TestNewStorePanicsOnDurabilityError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewStore did not panic on a bad durability option")
		}
	}()
	NewStore(8, WithDurability(t.TempDir(), DurabilityOptions{Fsync: "bogus"}))
}

// TestOpenStoreRefusesUnloadableCheckpoints damages every retained
// checkpoint of a checkpointed store. The log those checkpoints covered is
// gone or going, so opening on the WAL tail alone would serve a fraction
// of the graph as if it were all of it: OpenStore must fail instead.
func TestOpenStoreRefusesUnloadableCheckpoints(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(16, WithDurability(dir, DurabilityOptions{}))
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	for round := uint32(0); round < 2; round++ {
		st.InsertEdges([]Edge{{round, 5}, {5, round}})
		st.Flush()
		if err := st.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	st.InsertEdges([]Edge{{7, 8}})
	st.Flush()
	st.Close()

	manifests, _ := filepath.Glob(filepath.Join(dir, "checkpoint", "ckpt-*", "MANIFEST.json"))
	if len(manifests) != 2 {
		t.Fatalf("retained manifests %v, want two", manifests)
	}
	for _, m := range manifests {
		if err := os.WriteFile(m, []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := OpenStore(16, WithDurability(dir, DurabilityOptions{}))
	if err == nil {
		n := re.NumEdges()
		re.Close()
		t.Fatalf("opened on %d of 5 edges with no loadable checkpoint", n)
	}
	if !strings.Contains(err.Error(), "ckpt-") {
		t.Fatalf("error %q does not name the checkpoint that failed", err)
	}
}
