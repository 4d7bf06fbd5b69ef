package pma

import "testing"

func TestRangeMin(t *testing.T) {
	p := BulkLoad([]uint32{10, 20, 30, 40})
	if v, ok := p.RangeMin(15, 35); !ok || v != 20 {
		t.Fatalf("RangeMin(15,35)=%d,%v", v, ok)
	}
	if v, ok := p.RangeMin(10, 11); !ok || v != 10 {
		t.Fatalf("RangeMin(10,11)=%d,%v", v, ok)
	}
	if _, ok := p.RangeMin(21, 29); ok {
		t.Fatal("RangeMin on empty range succeeded")
	}
	if _, ok := p.RangeMin(50, 100); ok {
		t.Fatal("RangeMin past end succeeded")
	}
}

func TestCountRange(t *testing.T) {
	p := BulkLoad([]uint32{1, 3, 5, 7, 9})
	for _, tc := range []struct{ from, to, want uint32 }{
		{0, 10, 5}, {3, 8, 3}, {4, 5, 0}, {9, 10, 1}, {10, 20, 0},
	} {
		if got := p.CountRange(tc.from, tc.to); got != int(tc.want) {
			t.Fatalf("CountRange(%d,%d)=%d want %d", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestIterateFrom(t *testing.T) {
	p := BulkLoad([]uint32{2, 4, 6})
	var got []uint32
	var positions []int
	p.IterateFrom(0, func(pos int, k uint32) bool {
		got = append(got, k)
		positions = append(positions, pos)
		return true
	})
	if len(got) != 3 || got[0] != 2 || got[2] != 6 {
		t.Fatalf("IterateFrom got %v", got)
	}
	// Restart from the second element's recorded position.
	var tail []uint32
	p.IterateFrom(positions[1], func(pos int, k uint32) bool {
		tail = append(tail, k)
		return true
	})
	if len(tail) != 2 || tail[0] != 4 {
		t.Fatalf("restart got %v", tail)
	}
	// Early termination.
	n := 0
	p.IterateFrom(0, func(pos int, k uint32) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestReadRange(t *testing.T) {
	p := BulkLoad([]uint32{2, 4, 6, 8, 10, 12})
	var dst [4]uint32
	// A full buffer: resume from next to get the rest below the bound.
	n, next := p.ReadRange(0, 11, dst[:])
	if n != 4 || dst != [4]uint32{2, 4, 6, 8} {
		t.Fatalf("first read: n=%d dst=%v", n, dst)
	}
	n, _ = p.ReadRange(next, 11, dst[:])
	if n != 1 || dst[0] != 10 {
		t.Fatalf("resumed read: n=%d dst=%v, want the single key 10", n, dst)
	}
	// Nothing below the bound, and a start past the end.
	if n, _ := p.ReadRange(0, 2, dst[:]); n != 0 {
		t.Fatalf("read below the minimum copied %d keys", n)
	}
	if n, _ := p.ReadRange(p.Capacity(), 100, dst[:]); n != 0 {
		t.Fatalf("read from past the end copied %d keys", n)
	}
}

func TestGrowthDoublesCapacity(t *testing.T) {
	p := New[uint32]()
	start := p.Capacity()
	for i := uint32(0); i < 4096; i++ {
		p.Insert(i)
	}
	if p.Capacity() <= start {
		t.Fatal("capacity never grew")
	}
	if p.Stats.Grows == 0 {
		t.Fatal("grow counter did not advance")
	}
	// Capacity stays a power of two.
	if p.Capacity()&(p.Capacity()-1) != 0 {
		t.Fatalf("capacity %d not a power of two", p.Capacity())
	}
}

func TestDeleteThenReinsertSameKey(t *testing.T) {
	p := New[uint32]()
	for i := uint32(0); i < 100; i++ {
		p.Insert(i)
	}
	for i := uint32(0); i < 100; i += 2 {
		p.Delete(i)
	}
	for i := uint32(0); i < 100; i += 2 {
		if !p.Insert(i) {
			t.Fatalf("reinsert %d failed", i)
		}
	}
	if p.Len() != 100 {
		t.Fatalf("len %d", p.Len())
	}
}
