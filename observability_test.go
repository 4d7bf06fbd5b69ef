package lsgraph_test

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"lsgraph"
	_ "lsgraph/internal/httpserve" // registers the front end's series
)

// TestObservabilityEndToEnd drives the public metrics API through a real
// update/analytics cycle and checks that each instrumented layer reported.
func TestObservabilityEndToEnd(t *testing.T) {
	prev := lsgraph.MetricsEnabled()
	lsgraph.EnableMetrics(true)
	defer lsgraph.EnableMetrics(prev)

	g := lsgraph.New(1 << 10)
	var es []lsgraph.Edge
	for v := uint32(1); v < 600; v++ {
		es = append(es, lsgraph.Edge{Src: 0, Dst: v}, lsgraph.Edge{Src: v, Dst: 0})
	}
	// Small batches keep vertex 0's per-batch group under the bulk-rebuild
	// threshold, so its overflow grows through the per-edge path and
	// crosses the array->RIA promotion.
	for lo := 0; lo < len(es); lo += 8 {
		hi := lo + 8
		if hi > len(es) {
			hi = len(es)
		}
		g.InsertEdges(es[lo:hi])
	}
	lsgraph.BFS(g, 0)
	g.DeleteEdges(es[:100])

	var buf bytes.Buffer
	if err := lsgraph.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lsgraph_batches_total{op="insert"}`,
		`lsgraph_batches_total{op="delete"}`,
		`lsgraph_phase_nanos_count{phase="apply"}`,
		`lsgraph_overflow_promotions_total{from="array",to="ria"}`,
		`lsgraph_batch_groups_total{path="per-edge"}`,
		`lsgraph_phase_nanos_count{phase="kernel",kernel="bfs"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %s", want)
		}
	}

	b, err := lsgraph.MetricsSnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	// Vertex 0's degree crosses the array threshold, so the engine must
	// have promoted its overflow, and its groups went through the per-edge
	// path that inserts into the RIA.
	if v, ok := snap[`lsgraph_overflow_promotions_total{from="array",to="ria"}`].(float64); !ok || v < 1 {
		t.Errorf("expected at least one array->ria promotion, snapshot has %v", v)
	}
	if v, ok := snap[`lsgraph_batch_groups_total{path="per-edge"}`].(float64); !ok || v < 1 {
		t.Errorf("expected per-edge groups, snapshot has %v", v)
	}
	if v, ok := snap[`lsgraph_edges_changed_total{op="insert"}`].(float64); !ok || v < float64(len(es)) {
		t.Errorf("edges inserted metric %v, want >= %d", v, len(es))
	}
}

// TestOperationsListsEverySeries: OPERATIONS.md's metrics catalog names
// every series the registry exports, and nothing else, so a series added,
// renamed or removed without its row fails here.
func TestOperationsListsEverySeries(t *testing.T) {
	doc, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, catalog, ok := strings.Cut(string(doc), "\n## Metrics catalog\n")
	if !ok {
		t.Fatal(`OPERATIONS.md has no "## Metrics catalog" section`)
	}
	catalog, _, _ = strings.Cut(catalog, "\n## ")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(lsgraph_[a-z0-9_]+)`").FindAllStringSubmatch(catalog, -1) {
		documented[m[1]] = true
	}

	var buf bytes.Buffer
	if err := lsgraph.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(buf.String(), -1) {
		exported[m[1]] = true
	}

	var undocumented, stale []string
	for name := range exported {
		if !documented[name] {
			undocumented = append(undocumented, name)
		}
	}
	for name := range documented {
		if !exported[name] {
			stale = append(stale, name)
		}
	}
	slices.Sort(undocumented)
	slices.Sort(stale)
	if len(undocumented) > 0 {
		t.Errorf("exported but missing from OPERATIONS.md's metrics catalog: %v", undocumented)
	}
	if len(stale) > 0 {
		t.Errorf("in OPERATIONS.md's metrics catalog but not exported: %v", stale)
	}
}

// TestReadmeLayoutMatchesTree: README's "Repository layout" block lists
// every directory under internal/ and cmd/ that holds Go files, and every
// such directory and root Go file it names exists, so a package added,
// renamed or removed without its row fails here.
func TestReadmeLayoutMatchesTree(t *testing.T) {
	doc, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(doc), "\n## Repository layout\n")
	if !ok {
		t.Fatal(`README.md has no "## Repository layout" section`)
	}
	block, _, _ = strings.Cut(block, "\n## ")
	_, block, _ = strings.Cut(block, "```\n")
	block, _, _ = strings.Cut(block, "```")

	named := regexp.MustCompile(`\b(?:internal|cmd)(?:/[a-z0-9]+)+(?:\.go)?`).FindAllString(block, -1)
	// Root Go files lead a line, comma-separated; a file named further
	// along a line belongs to the package the line describes.
	for _, files := range regexp.MustCompile(`(?m)^[a-z_]+\.go(?:, [a-z_]+\.go)*`).FindAllString(block, -1) {
		named = append(named, strings.Split(files, ", ")...)
	}
	listed := map[string]bool{}
	for _, name := range named {
		listed[name] = true
		if _, err := os.Stat(name); err != nil {
			t.Errorf("README's layout names %s, which does not exist", name)
		}
	}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || filepath.Ext(path) != ".go" {
				return err
			}
			if dir := filepath.ToSlash(filepath.Dir(path)); !listed[dir] {
				t.Errorf("%s holds Go files but has no row in README's layout", dir)
				listed[dir] = true // report it once
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
