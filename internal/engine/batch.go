package engine

import (
	"slices"
	"sync/atomic"

	"lsgraph/internal/parallel"
)

// The three baselines apply a batch the same way — pack, sort, dedup, then
// one worker per source vertex's run of keys — and differ only in what a
// worker does with a run. The shared steps are stated here once, so the
// systems the paper compares run the same driver over the same runtime and
// a measured gap is a gap between data structures. (core has its own
// pack, sort and grouping over its scratch arena, and merges with
// MergeGroup and SubtractGroup into it.)

// SortedKeys packs the batch's edges into src<<32|dst keys, ascending, each
// distinct edge once.
func SortedKeys(src, dst []uint32, workers int) []uint64 {
	ks := make([]uint64, len(src))
	for i := range src {
		ks[i] = uint64(src[i])<<32 | uint64(dst[i])
	}
	parallel.SortUint64(ks, workers)
	return slices.Compact(ks)
}

// ForEachSourceGroup calls apply once for every source vertex in ks
// (SortedKeys' output) with that vertex's run of keys, from up to workers
// goroutines, no two of them on the same vertex. It returns the sum of what
// the calls returned: the batch's net change in edge count.
func ForEachSourceGroup(ks []uint64, workers int, apply func(v uint32, group []uint64) int64) int64 {
	type group struct{ lo, hi int }
	var groups []group
	for i := 0; i < len(ks); {
		v := uint32(ks[i] >> 32)
		j := i
		for j < len(ks) && uint32(ks[j]>>32) == v {
			j++
		}
		groups = append(groups, group{lo: i, hi: j})
		i = j
	}
	var delta atomic.Int64
	parallel.ForBlockedW(len(groups), workers, func(_, gi int) {
		gr := groups[gi]
		delta.Add(apply(uint32(ks[gr.lo]>>32), ks[gr.lo:gr.hi]))
	})
	return delta.Load()
}

// MergeGroup appends to dst the sorted union of old (ascending, distinct)
// and the destinations of group, one source's run of SortedKeys' output,
// and returns it. When dst lacks the room it is first copied into a new
// array with exactly enough; a nil dst allocates the union's own.
func MergeGroup(dst, old []uint32, group []uint64) []uint32 {
	merged := reserve(dst, len(old)+len(group))
	i, j := 0, 0
	for i < len(old) && j < len(group) {
		a, b := old[i], uint32(group[j])
		switch {
		case a < b:
			merged = append(merged, a)
			i++
		case a > b:
			merged = append(merged, b)
			j++
		default:
			merged = append(merged, a)
			i++
			j++
		}
	}
	merged = append(merged, old[i:]...)
	for ; j < len(group); j++ {
		merged = append(merged, uint32(group[j]))
	}
	return merged
}

// SubtractGroup appends to dst old (ascending, distinct) without the
// destinations of group, one source's run of SortedKeys' output, and
// returns it, growing dst as MergeGroup does.
func SubtractGroup(dst, old []uint32, group []uint64) []uint32 {
	kept := reserve(dst, len(old))
	j := 0
	for _, a := range old {
		for j < len(group) && uint32(group[j]) < a {
			j++
		}
		if j < len(group) && uint32(group[j]) == a {
			j++
			continue
		}
		kept = append(kept, a)
	}
	return kept
}

// reserve returns dst with room for n more elements, copied into an array
// of exactly that size when it has less.
func reserve(dst []uint32, n int) []uint32 {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]uint32, 0, len(dst)+n), dst...)
}
