package hitree

import (
	"math/rand"
	"testing"
)

// liaCfg builds LIAs directly for white-box tests.
func liaCfg() Config {
	c := Config{Alpha: 1.2, M: 64, LeafArrayMax: 16, RebuildFactor: 1e9}
	c.sanitize()
	return c
}

func seqKeys(n int, stride uint32) []uint32 {
	ns := make([]uint32, n)
	for i := range ns {
		ns[i] = uint32(i) * stride
	}
	return ns
}

func TestTypeBitsRoundTrip(t *testing.T) {
	cfg := liaCfg()
	l := newLIA(seqKeys(200, 5), &cfg)
	// Exhaustively set and read back every type value in a few slots.
	for _, pos := range []int{0, 1, 31, 32, 63, len(l.data) - 1} {
		for _, ty := range []int{tU, tE, tB, tC} {
			l.setType(pos, ty)
			if got := l.typeOf(pos); got != ty {
				t.Fatalf("typeOf(%d)=%d want %d", pos, got, ty)
			}
		}
		// Setting one slot must not disturb its neighbors.
		if pos+1 < len(l.data) {
			before := l.typeOf(pos + 1)
			l.setType(pos, tE)
			if l.typeOf(pos+1) != before {
				t.Fatal("setType bled into neighbor slot")
			}
		}
	}
}

func TestFitModelExactLinear(t *testing.T) {
	// Perfectly linear keys must predict near-perfect ranks.
	ns := seqKeys(1000, 7)
	slope, intercept := fitModel(ns, 1000)
	for i, k := range ns {
		p := slope*float64(k) + intercept
		if d := p - float64(i); d > 2 || d < -2 {
			t.Fatalf("prediction off by %f at rank %d", d, i)
		}
	}
}

func TestFitModelDegenerate(t *testing.T) {
	slope, _ := fitModel([]uint32{5, 5, 5}, 10) // would not occur (distinct), but must not NaN
	if slope != 0 {
		t.Fatalf("degenerate slope %f", slope)
	}
}

func TestPredictClamped(t *testing.T) {
	cfg := liaCfg()
	l := newLIA(seqKeys(200, 1000), &cfg)
	if p := l.predict(0); p < 0 || p >= len(l.data) {
		t.Fatalf("predict(0)=%d out of range", p)
	}
	if p := l.predict(1 << 31); p < 0 || p >= len(l.data) {
		t.Fatalf("predict(big)=%d out of range", p)
	}
}

func TestBulkLoadEntryTypesConsistent(t *testing.T) {
	cfg := liaCfg()
	l := newLIA(seqKeys(500, 3), &cfg)
	// Every block must be homogeneous: C blocks have a child, B blocks
	// start with a B run, E/U blocks contain only E and U.
	for blk := 0; blk < len(l.children); blk++ {
		base := blk * BlockSize
		hasC, hasB, hasE := false, false, false
		for i := 0; i < BlockSize; i++ {
			switch l.typeOf(base + i) {
			case tC:
				hasC = true
			case tB:
				hasB = true
			case tE:
				hasE = true
			}
		}
		if hasC && (l.children[blk] == nil || hasB || hasE) {
			t.Fatalf("block %d: C mixed with other types or nil child", blk)
		}
		if !hasC && l.children[blk] != nil {
			t.Fatalf("block %d: child without C types", blk)
		}
		if hasB && hasE {
			t.Fatalf("block %d mixes B and E", blk)
		}
	}
}

func TestBRunStaysPackedAtBlockStart(t *testing.T) {
	cfg := liaCfg()
	// Clustered keys predict into few blocks, forcing B runs.
	var ns []uint32
	for i := 0; i < 100; i++ {
		ns = append(ns, uint32(i))
	}
	l := newLIA(ns, &cfg)
	for blk := 0; blk < len(l.children); blk++ {
		base := blk * BlockSize
		if l.typeOf(base) != tB {
			continue
		}
		// Once a non-B slot appears, no B may follow within the block.
		seenEnd := false
		for i := 0; i < BlockSize; i++ {
			ty := l.typeOf(base + i)
			if ty == tB && seenEnd {
				t.Fatalf("block %d: B after gap", blk)
			}
			if ty != tB {
				seenEnd = true
				if ty != tU {
					t.Fatalf("block %d: unexpected type %d after B run", blk, ty)
				}
			}
		}
	}
}

func TestMergedAdjacentChildrenShared(t *testing.T) {
	cfg := liaCfg()
	// A few giant clusters force runs of consecutive overflow blocks.
	var ns []uint32
	for c := 0; c < 3; c++ {
		base := uint32(c) * 1_000_000_000
		for i := 0; i < 300; i++ {
			ns = append(ns, base+uint32(i))
		}
	}
	l := newLIA(ns, &cfg)
	shared := false
	for blk := 1; blk < len(l.children); blk++ {
		if l.children[blk] != nil && l.children[blk] == l.children[blk-1] {
			shared = true
		}
	}
	if !shared {
		t.Skip("model spread clusters; no adjacent child run at this size")
	}
	// Traversal must still visit each element exactly once and in order.
	got := l.appendTo(nil)
	if len(got) != len(ns) {
		t.Fatalf("traverse visited %d of %d", len(got), len(ns))
	}
	for i := range ns {
		if got[i] != ns[i] {
			t.Fatalf("order mismatch at %d", i)
		}
	}
}

func TestLIAInsertConflictPaths(t *testing.T) {
	cfg := liaCfg()
	rng := rand.New(rand.NewSource(5))
	l := newLIA(seqKeys(100, 1000), &cfg)
	model := map[uint32]bool{}
	for _, k := range seqKeys(100, 1000) {
		model[k] = true
	}
	var root node = l
	// Dense inserts around existing keys force E-conflict, B-run growth,
	// and child creation in the same blocks.
	for i := 0; i < 5000; i++ {
		u := uint32(rng.Intn(100 * 1000))
		var isNew bool
		root, isNew = root.insert(u, &cfg)
		if isNew == model[u] {
			t.Fatalf("insert(%d) isNew=%v model=%v", u, isNew, model[u])
		}
		model[u] = true
	}
	got := root.appendTo(nil)
	if len(got) != len(model) {
		t.Fatalf("size %d want %d", len(got), len(model))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("unsorted after conflict inserts at %d", i)
		}
	}
	for _, u := range got {
		if !root.has(u) {
			t.Fatalf("has(%d) false after insert", u)
		}
	}
}

func TestLIADeleteFromEveryBlockKind(t *testing.T) {
	cfg := liaCfg()
	rng := rand.New(rand.NewSource(6))
	// Build with clusters (children + B runs) and spread keys (E slots).
	var ns []uint32
	seen := map[uint32]bool{}
	for i := 0; i < 400; i++ {
		ns = append(ns, uint32(i)) // cluster
		seen[uint32(i)] = true
	}
	for i := 0; i < 400; i++ {
		k := uint32(1000 + i*5000)
		ns = append(ns, k)
		seen[k] = true
	}
	l := newLIA(ns, &cfg)
	var root node = l
	keys := make([]uint32, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		var ok bool
		root, ok = root.delete(k)
		if !ok {
			t.Fatalf("delete(%d) failed", k)
		}
		if root.has(k) {
			t.Fatalf("%d present after delete", k)
		}
	}
	if root.size() != 0 {
		t.Fatalf("residue %d", root.size())
	}
}

func TestRebuildTriggersAtFactor(t *testing.T) {
	cfg := Config{Alpha: 1.2, M: 64, LeafArrayMax: 16, RebuildFactor: 2}
	cfg.sanitize()
	l := newLIA(seqKeys(100, 100), &cfg)
	var root node = l
	for i := 0; i < 200; i++ {
		root, _ = root.insert(uint32(i*100+7), &cfg)
	}
	if root.(*lia) == l {
		t.Fatal("expected a rebuild to replace the root LIA")
	}
	if root.size() != 300 {
		t.Fatalf("size after rebuild %d want 300", root.size())
	}
}

func TestBNodeAblation(t *testing.T) {
	cfg := Config{Alpha: 1.2, M: 64, LeafArrayMax: 16, DisableModel: true}
	cfg.sanitize()
	tr := BulkLoad(seqKeys(1000, 3), cfg)
	if _, ok := tr.root.(*bnode); !ok {
		t.Fatalf("DisableModel root is %T, want *bnode", tr.root)
	}
	model := map[uint32]bool{}
	for _, k := range seqKeys(1000, 3) {
		model[k] = true
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		u := uint32(rng.Intn(5000))
		if tr.Insert(u) == model[u] {
			t.Fatalf("bnode insert(%d) inconsistent", u)
		}
		model[u] = true
	}
	got := tr.AppendTo(nil)
	if len(got) != len(model) {
		t.Fatalf("bnode size %d want %d", len(got), len(model))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("bnode traversal unsorted")
		}
	}
	if tr.IndexMemory() == 0 {
		t.Fatal("bnode index memory zero")
	}
}
