package bench

import (
	"io"

	"lsgraph/internal/algo"
)

// KCoreExtra is an extension experiment beyond the paper's evaluation:
// k-core decomposition time on all four engines. Like triangle counting it
// is traversal-bound, so it exercises the same locality differences as
// Table 2 on a second mining kernel.
func KCoreExtra(s Scale, w io.Writer) {
	t := NewTable("Extension: k-core decomposition time (s), all systems",
		"Traversal-bound mining kernel beyond the paper's kernel set.",
		"graph", "degeneracy", "LSGraph", "Terrace", "Aspen", "PaC-tree")
	for _, d := range SmallDatasets(s) {
		row := []interface{}{d.Name}
		var degen uint32
		times := make([]interface{}, 0, len(EngineNames))
		for _, e := range loadedAll(d, s.Workers) {
			var core []uint32
			dt := timeIt(s.Trials, func() { core = algo.KCore(e, s.Workers) })
			if degen == 0 {
				degen = algo.MaxCore(core)
			}
			times = append(times, dt)
		}
		row = append(row, degen)
		row = append(row, times...)
		t.Row(row...)
	}
	t.WriteTo(w)
}
