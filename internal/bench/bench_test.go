package bench

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"lsgraph/internal/core"
	"lsgraph/internal/engine"
)

// tinyScale keeps every experiment under a second for unit testing.
func tinyScale() Scale {
	return Scale{Base: 8, BatchSizes: []int{100, 1000}, Trials: 1, Workers: 2}
}

func TestMakeDataset(t *testing.T) {
	s := tinyScale()
	d, err := MakeDataset("LJ-sim", s)
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 256 || len(d.Edges) == 0 {
		t.Fatalf("dataset shape: n=%d m=%d", d.N, len(d.Edges))
	}
	if d.AvgDegree() < 5 {
		t.Fatalf("avg degree too low: %f", d.AvgDegree())
	}
	if _, err := MakeDataset("nope", s); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
	if len(AllDatasets(s)) != 5 || len(SmallDatasets(s)) != 2 {
		t.Fatal("dataset registry counts")
	}
}

func TestUpdateBatchDeterministicPerTrial(t *testing.T) {
	s := tinyScale()
	d, _ := MakeDataset("LJ-sim", s)
	s1, d1 := d.UpdateBatch(50, 0)
	s2, d2 := d.UpdateBatch(50, 0)
	s3, _ := d.UpdateBatch(50, 1)
	for i := range s1 {
		if s1[i] != s2[i] || d1[i] != d2[i] {
			t.Fatal("same trial produced different batches")
		}
	}
	same := true
	for i := range s1 {
		if s1[i] != s3[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different trials produced identical batches")
	}
}

func TestEngineRegistry(t *testing.T) {
	for _, name := range EngineNames {
		e := NewEngine(name, 16, 1)
		if e.Name() != name {
			t.Fatalf("engine %q reports name %q", name, e.Name())
		}
	}
	d, _ := MakeDataset("LJ-sim", tinyScale())
	for i, e := range loadedAll(d, 1) {
		if e.Name() != EngineNames[i] || e.NumEdges() == 0 {
			t.Fatalf("loadedAll[%d] is %q with %d edges, want %q loaded", i, e.Name(), e.NumEdges(), EngineNames[i])
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("T", "note", "a", "b")
	tb.Row("x", 1.23456)
	var buf bytes.Buffer
	tb.WriteTo(&buf)
	out := buf.String()
	for _, want := range []string{"== T ==", "note", "a", "1.235"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

// TestRunUnknownExperiment: an unknown name writes nothing and returns an
// error naming every experiment, in Experiments order.
func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	err := Run("nope", tinyScale(), &buf)
	if err == nil || !strings.Contains(err.Error(), strings.Join(Experiments, ", ")) || buf.Len() != 0 {
		t.Fatalf("Run(\"nope\") wrote %q and returned %v; want an error naming %v", buf.String(), err, Experiments)
	}
}

// reportProblems lists what is malformed in a report: no table at all, a
// table with no data row under its header rule, a NaN or ±Inf cell.
func reportProblems(out string) []string {
	var bad []string
	lines := strings.Split(out, "\n")
	tables := 0
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "== ") {
			continue
		}
		tables++
		title := lines[i]
		for i++; i < len(lines) && strings.Trim(lines[i], "- ") != ""; i++ {
		}
		rows := 0
		for i++; i < len(lines) && lines[i] != ""; i++ {
			rows++
			if strings.Contains(lines[i], "NaN") || strings.Contains(lines[i], "Inf") {
				bad = append(bad, title+": non-finite cell in row "+lines[i])
			}
		}
		if rows == 0 {
			bad = append(bad, title+": header with no data row")
		}
	}
	if tables == 0 {
		bad = append(bad, "no table")
	}
	return bad
}

func TestReportProblems(t *testing.T) {
	for name, fill := range map[string]func(*Table){
		"no rows": func(*Table) {},
		"NaN":     func(tb *Table) { tb.Row("x", math.NaN()) },
		"Inf":     func(tb *Table) { tb.Row("x", math.Inf(1)) },
	} {
		tb := NewTable("T", "note", "a", "b")
		fill(tb)
		var buf bytes.Buffer
		tb.WriteTo(&buf)
		if len(reportProblems(buf.String())) != 1 {
			t.Errorf("%s: want one problem, got %q in\n%s", name, reportProblems(buf.String()), buf.String())
		}
	}
	if bad := reportProblems("phase coverage: OK\n"); len(bad) != 1 {
		t.Errorf("table-less report: %q", bad)
	}
}

// TestEveryExperimentSmokes runs each experiment at tiny scale and asserts
// its report is well formed (reportProblems). The trace experiment must also
// record every lifecycle phase: this is the flight recorder's end-to-end
// coverage gate.
func TestEveryExperimentSmokes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow in -short mode")
	}
	s := tinyScale()
	for _, name := range Experiments {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(name, s, &buf); err != nil {
				t.Fatal(err)
			}
			for _, p := range reportProblems(buf.String()) {
				t.Error(p)
			}
			if name == "trace" && !strings.Contains(buf.String(), "phase coverage: OK") {
				t.Errorf("lifecycle phase coverage incomplete:\n%s", buf.String())
			}
		})
	}
}

// TestInsertTimeRestoresGraph pins the procedure every update figure
// shares: after insertTime's trials each engine holds exactly the graph it
// was loaded with.
func TestInsertTimeRestoresGraph(t *testing.T) {
	s := tinyScale()
	d, _ := MakeDataset("LJ-sim", s)
	want := Loaded("LSGraph", d, s.Workers)
	engines := append(loadedAll(d, s.Workers), loadedCore(d, core.Config{Overflow: core.KindPMA, Workers: s.Workers}))
	for _, e := range engines {
		insertTime(e, d, 100, 3)
		if e.NumEdges() != want.NumEdges() {
			t.Errorf("%s: %d edges after insertTime, loaded %d", e.Name(), e.NumEdges(), want.NumEdges())
		}
		for v := uint32(0); v < d.N; v++ {
			if got, w := engine.Neighbors(e, v), engine.Neighbors(want, v); !slices.Equal(got, w) {
				t.Errorf("%s: vertex %d has neighbors %v after insertTime, loaded %v", e.Name(), v, got, w)
				break
			}
		}
	}
}
