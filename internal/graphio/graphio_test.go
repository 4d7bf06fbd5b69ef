package graphio

import (
	"bytes"
	"strings"
	"testing"

	"lsgraph/internal/gen"
	"lsgraph/internal/refgraph"
)

func TestReadEdgeList(t *testing.T) {
	in := `# comment
% matrix-market style comment
0 1
2 3

5 0
`
	es, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []gen.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}, {Src: 5, Dst: 0}}
	if len(es) != len(want) {
		t.Fatalf("got %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("got %v want %v", es, want)
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{"1\n", "a b\n", "1 x\n", "4294967296 0\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	es := gen.NewRMatPaper(8, 3).Edges(500)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, es); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(es) {
		t.Fatalf("round trip length %d want %d", len(got), len(es))
	}
	for i := range es {
		if got[i] != es[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestCSRRoundTrip(t *testing.T) {
	g := refgraph.New(100)
	for _, e := range gen.NewRMatPaper(6, 7).Edges(2000) {
		g.Insert(e.Src%100, e.Dst%100)
	}
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	c, err := ReadCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 100 || c.NumEdges() != g.NumEdges() {
		t.Fatalf("header mismatch: n=%d m=%d", c.N, c.NumEdges())
	}
	for v := uint32(0); v < 100; v++ {
		want := g.Neighbors(v)
		got := c.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("vertex %d degree mismatch", v)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vertex %d neighbor mismatch", v)
			}
		}
	}
	// Edges() must reconstruct the same edge set.
	es := c.Edges()
	if uint64(len(es)) != g.NumEdges() {
		t.Fatalf("Edges() length %d", len(es))
	}
}

func TestReadCSRRejectsCorruption(t *testing.T) {
	g := refgraph.New(10)
	g.Insert(1, 2)
	g.Insert(3, 4)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, err := ReadCSR(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted bad magic")
	}
	// Truncated adjacency.
	if _, err := ReadCSR(bytes.NewReader(good[:len(good)-2])); err == nil {
		t.Fatal("accepted truncated file")
	}
	// Out-of-range neighbor: patch the last adjacency entry.
	bad = append([]byte(nil), good...)
	bad[len(bad)-1] = 0xff
	bad[len(bad)-2] = 0xff
	bad[len(bad)-3] = 0xff
	bad[len(bad)-4] = 0xff
	if _, err := ReadCSR(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted out-of-range neighbor")
	}
	// Empty input.
	if _, err := ReadCSR(bytes.NewReader(nil)); err == nil {
		t.Fatal("accepted empty input")
	}
	// A run out of order, and one with a repeat: vertex 1's neighbors
	// {2, 3} patched to (3, 2) and to (2, 2).
	for name, run := range map[string][2]byte{"unsorted": {3, 2}, "repeated": {2, 2}} {
		bad = unsortedCSR(t, run)
		if _, err := ReadCSR(bytes.NewReader(bad)); err == nil {
			t.Errorf("accepted the %s neighbor run", name)
		}
	}
}

// unsortedCSR returns the WriteCSR bytes of a 10-vertex graph whose one
// run, vertex 1's {2, 3}, is overwritten by run, and which are otherwise
// well-formed.
func unsortedCSR(t testing.TB, run [2]byte) []byte {
	g := refgraph.New(10)
	g.Insert(1, 2)
	g.Insert(1, 3)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)-8], b[len(b)-4] = run[0], run[1] // little-endian uint32 entries
	return b
}
