package hitree

import (
	"encoding/binary"
	"testing"
)

// FuzzTreeOps drives a HITree (with small thresholds so every node kind is
// reachable) against a map model; same record format as ria.FuzzOps.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0})
	long := make([]byte, 0, 1200)
	for i := 0; i < 240; i++ {
		long = append(long, byte(i%3), byte(i*13), byte(i%7), 0, 0)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Config{Alpha: 1.1, M: 48, LeafArrayMax: 8, RebuildFactor: 2}
		tr := New(cfg)
		model := map[uint32]bool{}
		for len(data) >= 5 {
			op := data[0]
			u := binary.LittleEndian.Uint32(data[1:5])
			if u == ^uint32(0) {
				u--
			}
			data = data[5:]
			if op%2 == 0 {
				if tr.Insert(u) == model[u] {
					t.Fatalf("insert(%d) inconsistent", u)
				}
				model[u] = true
			} else {
				if tr.Delete(u) != model[u] {
					t.Fatalf("delete(%d) inconsistent", u)
				}
				delete(model, u)
			}
			if tr.Len() != len(model) {
				t.Fatalf("len %d model %d", tr.Len(), len(model))
			}
		}
		requireBlocks(t, tr, model)
		for u := range model {
			if !tr.Has(u) {
				t.Fatalf("Has(%d) false for a live element", u)
			}
		}
	})
}
