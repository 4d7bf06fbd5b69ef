package ria

import (
	"encoding/binary"
	"testing"
)

// FuzzOps drives an RIA with an arbitrary byte-encoded op sequence and
// checks it against a map model. Each 5-byte record is 1 op byte (even =
// insert, odd = delete) + 4 key bytes.
func FuzzOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 1, 1, 0, 0, 0})
	f.Add([]byte{0, 5, 0, 0, 0, 0, 5, 0, 0, 0, 1, 5, 0, 0, 0})
	seed := make([]byte, 0, 500)
	for i := 0; i < 100; i++ {
		seed = append(seed, byte(i%3), byte(i*37), byte(i), 0, 0)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := New(1.2)
		model := map[uint32]bool{}
		for len(data) >= 5 {
			op := data[0]
			u := binary.LittleEndian.Uint32(data[1:5])
			if u == ^uint32(0) {
				u-- // the maximum value is reserved
			}
			data = data[5:]
			if op%2 == 0 {
				if r.Insert(u) == model[u] {
					t.Fatalf("insert(%d) inconsistent with model", u)
				}
				model[u] = true
			} else {
				if r.Delete(u) != model[u] {
					t.Fatalf("delete(%d) inconsistent with model", u)
				}
				delete(model, u)
			}
		}
		requireBlocks(t, r, model)
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
