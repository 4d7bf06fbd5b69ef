// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§2 motivation and §6). Each experiment
// is a function that runs the workload at a configurable scale and writes a
// text table with the same rows/series the paper reports.
//
// The real datasets of Table 1 (LiveJournal, Orkut, Twitter, Friendster)
// are not redistributable at laptop scale; the harness substitutes
// deterministic rMat stand-ins that preserve each graph's relative vertex
// count and average degree (see DESIGN.md, "Substitutions"). Absolute
// numbers therefore differ from the paper; the comparisons (who wins, by
// roughly what factor, and where trends bend) are the reproduction target.
package bench

import (
	"cmp"
	"fmt"
	"slices"

	"lsgraph/internal/gen"
)

// Dataset is a synthetic stand-in for one of the paper's graphs.
type Dataset struct {
	// Name matches the paper's abbreviation with a -sim suffix.
	Name string
	// N is the number of vertex slots.
	N uint32
	// Edges is the symmetrized directed edge list, each edge once, in
	// ascending (src, dst) order (gen.Symmetrize's output).
	Edges []gen.Edge
}

// AvgDegree returns directed edges per vertex, Table 1's Avg.Deg analogue.
func (d *Dataset) AvgDegree() float64 {
	return float64(len(d.Edges)) / float64(d.N)
}

// Scale sizes every experiment. Base is the rMat scale of the LJ stand-in;
// other graphs keep Table 1's relative vertex counts and average degrees.
type Scale struct {
	// Base is the rMat scale (log2 vertices) of the smallest graphs.
	Base uint
	// BatchSizes is the update batch-size sweep (Figure 12's x-axis).
	BatchSizes []int
	// Trials is the number of repetitions averaged per measurement.
	Trials int
	// Workers is the parallelism for updates and analytics (0 = all cores).
	Workers int
}

// QuickScale keeps the full suite within a couple of minutes, for
// `go test -bench` and smoke runs.
func QuickScale() Scale {
	return Scale{Base: 10, BatchSizes: []int{1_000, 10_000, 100_000}, Trials: 1}
}

// DefaultScale is the cmd/lsbench default: big enough for the trends of
// every figure to be visible, small enough for a laptop.
func DefaultScale() Scale {
	return Scale{Base: 13, BatchSizes: []int{1_000, 10_000, 100_000, 1_000_000}, Trials: 3}
}

// datasetSpec pins each stand-in's size relative to Base, preserving
// Table 1's ratios: OR has ~0.6x LJ's vertices but 4x its degree; TW and FR
// are an order of magnitude larger.
type datasetSpec struct {
	name       string
	scaleDelta int     // rmat scale relative to Base
	avgDeg     float64 // Table 1 Avg.Deg
	seed       uint64
}

var specs = []datasetSpec{
	{name: "LJ-sim", scaleDelta: 0, avgDeg: 17.7, seed: 1001},
	{name: "OR-sim", scaleDelta: -1, avgDeg: 76.2, seed: 1002},
	{name: "RM-sim", scaleDelta: 0, avgDeg: 130.9, seed: 1003},
	{name: "TW-sim", scaleDelta: 2, avgDeg: 39.1, seed: 1004},
	{name: "FR-sim", scaleDelta: 2, avgDeg: 28.9, seed: 1005},
}

// MakeDataset builds the named stand-in at the given scale. Names are the
// Table 1 abbreviations with a -sim suffix.
func MakeDataset(name string, s Scale) (*Dataset, error) {
	for _, sp := range specs {
		if sp.name != name {
			continue
		}
		sc := int(s.Base) + sp.scaleDelta
		if sc < 6 {
			sc = 6
		}
		n := uint32(1) << uint(sc)
		raw := int(float64(n) * sp.avgDeg / 2)
		es := gen.NewRMatPaper(uint(sc), sp.seed).Edges(raw)
		sym := gen.Symmetrize(es)
		return &Dataset{Name: sp.name, N: n, Edges: sym}, nil
	}
	return nil, fmt.Errorf("bench: unknown dataset %q", name)
}

// AllDatasets builds every Table 1 stand-in.
func AllDatasets(s Scale) []*Dataset {
	out := make([]*Dataset, 0, len(specs))
	for _, sp := range specs {
		d, err := MakeDataset(sp.name, s)
		if err != nil {
			panic(err) // specs and MakeDataset are in the same file
		}
		out = append(out, d)
	}
	return out
}

// SmallDatasets builds only the two smallest stand-ins (LJ, OR), the set
// used by the Go benchmark wrappers to keep -bench runs fast.
func SmallDatasets(s Scale) []*Dataset {
	lj, _ := MakeDataset("LJ-sim", s)
	or, _ := MakeDataset("OR-sim", s)
	return []*Dataset{lj, or}
}

// UpdateBatch draws a deterministic batch of b update edges from the
// paper's rMat distribution over the dataset's vertex space, the same
// procedure §6.2 uses (batches come from the RM generator's parameters).
func (d *Dataset) UpdateBatch(b int, trial int) (src, dst []uint32) {
	scale := uint(0)
	for 1<<scale < d.N {
		scale++
	}
	g := gen.NewRMatPaper(scale, 7_000_000+uint64(trial)*131+uint64(len(d.Name)))
	return Split(g.Edges(b))
}

// Split converts an edge slice into the columnar form engines ingest.
func Split(es []gen.Edge) (src, dst []uint32) {
	src = make([]uint32, len(es))
	dst = make([]uint32, len(es))
	for i, e := range es {
		src[i], dst[i] = e.Src, e.Dst
	}
	return src, dst
}

// present returns the edges of a batch that the loaded dataset holds: the
// ones deleting the batch takes from the loaded graph, so the ones that
// restore it when inserted again.
func (d *Dataset) present(src, dst []uint32) (ps, pd []uint32) {
	for i := range src {
		k := gen.Edge{Src: src[i], Dst: dst[i]}.Key()
		if _, ok := slices.BinarySearchFunc(d.Edges, k, func(e gen.Edge, k uint64) int {
			return cmp.Compare(e.Key(), k)
		}); ok {
			ps, pd = append(ps, src[i]), append(pd, dst[i])
		}
	}
	return ps, pd
}
