package gen

import (
	"sort"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestUint32nRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		if v := r.Uint32n(17); v >= 17 {
			t.Fatalf("Uint32n(17) = %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRMatBounds(t *testing.T) {
	g := NewRMatPaper(10, 3)
	es := g.Edges(5000)
	if len(es) != 5000 {
		t.Fatalf("want 5000 edges, got %d", len(es))
	}
	for _, e := range es {
		if e.Src >= 1024 || e.Dst >= 1024 {
			t.Fatalf("edge out of bounds: %v", e)
		}
		if e.Src == e.Dst {
			t.Fatalf("self loop: %v", e)
		}
	}
}

func TestRMatSkew(t *testing.T) {
	// With a=0.5 the degree distribution must be skewed: the max out-degree
	// should far exceed the average.
	g := NewRMatPaper(12, 5)
	es := g.Edges(40000)
	deg := make(map[uint32]int)
	for _, e := range es {
		deg[e.Src]++
	}
	max := 0
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	avg := float64(len(es)) / float64(len(deg))
	if float64(max) < 5*avg {
		t.Fatalf("rMat not skewed: max=%d avg=%.1f", max, avg)
	}
}

func TestRMatDeterministic(t *testing.T) {
	a := NewRMatPaper(10, 9).Edges(100)
	b := NewRMatPaper(10, 9).Edges(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("rMat not deterministic")
		}
	}
}

func TestGraph500Params(t *testing.T) {
	g := NewGraph500(10, 1)
	if g.A != 0.57 || g.B != 0.19 || g.C != 0.19 {
		t.Fatalf("wrong graph500 params: %+v", g)
	}
	if len(g.Edges(100)) != 100 {
		t.Fatal("graph500 generator failed to produce edges")
	}
}

func TestUniform(t *testing.T) {
	es := Uniform(100, 1000, 4)
	if len(es) != 1000 {
		t.Fatalf("want 1000, got %d", len(es))
	}
	for _, e := range es {
		if e.Src >= 100 || e.Dst >= 100 || e.Src == e.Dst {
			t.Fatalf("bad uniform edge %v", e)
		}
	}
}

func TestSymmetrize(t *testing.T) {
	es := []Edge{{1, 2}, {2, 1}, {3, 4}, {1, 2}}
	sym := Symmetrize(es)
	want := []Edge{{1, 2}, {2, 1}, {3, 4}, {4, 3}}
	if len(sym) != len(want) {
		t.Fatalf("got %v want %v", sym, want)
	}
	for i := range want {
		if sym[i] != want[i] {
			t.Fatalf("got %v want %v", sym, want)
		}
	}
}

func TestKeyRoundTrip(t *testing.T) {
	e := Edge{Src: 123456, Dst: 654321}
	if FromKey(e.Key()) != e {
		t.Fatal("key round trip failed")
	}
	// Key order must equal (src, dst) lexicographic order.
	a := Edge{1, 1<<31 + 5}
	b := Edge{2, 0}
	if a.Key() >= b.Key() {
		t.Fatal("key order broken")
	}
}

func TestMaxVertex(t *testing.T) {
	if MaxVertex(nil) != 0 {
		t.Fatal("empty MaxVertex")
	}
	if got := MaxVertex([]Edge{{5, 2}, {1, 9}}); got != 10 {
		t.Fatalf("MaxVertex = %d, want 10", got)
	}
}

func TestTemporalStream(t *testing.T) {
	ts := NewTemporalStream(1000, 1.1, 11)
	es := ts.Edges(20000)
	if len(es) != 20000 {
		t.Fatalf("want 20000 edges, got %d", len(es))
	}
	deg := make(map[uint32]int)
	for _, e := range es {
		if e.Src >= 1000 || e.Dst >= 1000 || e.Src == e.Dst {
			t.Fatalf("bad stream edge %v", e)
		}
		deg[e.Src]++
	}
	// Hub skew: top vertex should have far more than average activity.
	counts := make([]int, 0, len(deg))
	for _, d := range deg {
		counts = append(counts, d)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	avg := float64(len(es)) / float64(len(deg))
	if float64(counts[0]) < 5*avg {
		t.Fatalf("stream not hub-skewed: top=%d avg=%.1f", counts[0], avg)
	}
	// Early edges should reference a smaller vertex window than late edges.
	earlyMax, lateMax := uint32(0), uint32(0)
	for _, e := range es[:1000] {
		if e.Src > earlyMax {
			earlyMax = e.Src
		}
	}
	for _, e := range es[len(es)-1000:] {
		if e.Src > lateMax {
			lateMax = e.Src
		}
	}
	if earlyMax >= lateMax {
		t.Fatalf("vertex window did not grow: early=%d late=%d", earlyMax, lateMax)
	}
}
