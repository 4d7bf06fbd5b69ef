package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table accumulates aligned rows for one experiment's report.
type Table struct {
	Title string
	Note  string
	rows  [][]string
}

// NewTable returns a report table with the given title and column headers.
func NewTable(title, note string, headers ...string) *Table {
	t := &Table{Title: title, Note: note}
	t.rows = append(t.rows, headers)
	return t
}

// Row appends a formatted row; values are rendered with %v, float64 with 4
// significant digits, time.Duration in seconds.
func (t *Table) Row(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case time.Duration:
			row[i] = fmt.Sprintf("%.4gs", x.Seconds())
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, 0)
	for _, r := range t.rows {
		for i, c := range r {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&sb, "%s\n", t.Note)
	}
	for ri, r := range t.rows {
		for i, c := range r {
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, c)
		}
		sb.WriteByte('\n')
		if ri == 0 {
			for i := range r {
				fmt.Fprint(&sb, strings.Repeat("-", widths[i]), "  ")
			}
			sb.WriteByte('\n')
		}
	}
	sb.WriteByte('\n')
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// timeIt runs f trials times and returns the mean duration.
func timeIt(trials int, f func()) time.Duration {
	if trials < 1 {
		trials = 1
	}
	var total time.Duration
	for i := 0; i < trials; i++ {
		t0 := time.Now()
		f()
		total += time.Since(t0)
	}
	return total / time.Duration(trials)
}

// throughput formats edges/second.
func throughput(edges int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(edges) / d.Seconds()
}

// experiments is every experiment Run accepts, in report order.
var experiments = []struct {
	name string
	run  func(Scale, io.Writer)
}{
	{"fig3", Fig3}, {"fig4", Fig4}, {"fig12", Fig12}, {"deletions", Deletions},
	{"smallbatch", SmallBatch}, {"ablation", Ablation}, {"fig13", Fig13},
	{"table2", Table2}, {"table3", Table3}, {"fig14", Fig14}, {"fig15", Fig15},
	{"fig16", Fig16}, {"fig17", Fig17}, {"streaming", Streaming},
	{"graph500", Graph500}, {"kcore", KCoreExtra}, {"rebalance", Rebalance},
	{"trace", TraceDemo},
}

// Experiments names the experiments Run accepts, in report order.
var Experiments = func() []string {
	names := make([]string, len(experiments))
	for i, x := range experiments {
		names[i] = x.name
	}
	return names
}()

// Run executes one named experiment at the given scale, writing its report
// to w.
func Run(name string, s Scale, w io.Writer) error {
	for _, x := range experiments {
		if x.name == name {
			x.run(s, w)
			return nil
		}
	}
	return fmt.Errorf("bench: unknown experiment %q (known: %s)",
		name, strings.Join(Experiments, ", "))
}
