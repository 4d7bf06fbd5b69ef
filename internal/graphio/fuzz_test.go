package graphio

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList must never panic and, on success, yield edges that
// round-trip through WriteEdgeList.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n2 3\n")
	f.Add("# c\n% c\n\n10 20\n")
	f.Add("a b\n")
	f.Add("1\n")
	f.Fuzz(func(t *testing.T, in string) {
		es, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, es); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back) != len(es) {
			t.Fatalf("round trip %d != %d", len(back), len(es))
		}
		for i := range es {
			if back[i] != es[i] {
				t.Fatalf("round trip mismatch at %d", i)
			}
		}
	})
}

// FuzzReadCSR must reject arbitrary corruption without panicking.
func FuzzReadCSR(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x31, 0x47, 0x53, 0x4c, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(unsortedCSR(f, [2]byte{3, 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCSR(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must be self-consistent, every run sorted.
		if c.Offs[len(c.Offs)-1] != uint64(len(c.Adj)) {
			t.Fatal("accepted inconsistent CSR")
		}
		for v := uint32(0); v < c.N; v++ {
			run := c.Neighbors(v)
			for i := 1; i < len(run); i++ {
				if run[i] <= run[i-1] {
					t.Fatalf("accepted vertex %d's run %v", v, run)
				}
			}
		}
	})
}
