package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// labelEscaper escapes a raw string for use as a Prometheus label value:
// the exposition format requires backslash, double quote, and newline to be
// escaped inside quoted label values.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// EscapeLabelValue returns v escaped for use inside a quoted Prometheus
// label value (backslash, double quote, and newline).
func EscapeLabelValue(v string) string { return labelEscaper.Replace(v) }

// Label renders one name="value" pair with the value escaped, for building
// the labels argument of NewCounter / NewGauge / NewHistogram from dynamic
// strings safely.
func Label(name, value string) string {
	return name + `="` + EscapeLabelValue(value) + `"`
}

// helpEscaper escapes HELP text per the exposition format (backslash and
// newline; quotes are legal there).
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// WritePrometheus writes the registry in the Prometheus text exposition
// format (one HELP/TYPE header per metric name, then every series).
// Counters registered without a _total suffix are exported with one, per
// the format convention.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	prevName := ""
	lines := make([]string, 0, 8)
	for _, m := range r.sorted() {
		d := m.meta()
		if name := d.exportName(); name != prevName {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, helpEscaper.Replace(d.help))
			fmt.Fprintf(&b, "# TYPE %s %s\n", name, d.typ)
			prevName = name
		}
		lines = m.promLines(lines[:0])
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot returns every metric's current value keyed by its series name
// ("name" or `name{labels}`), ready for JSON encoding: counters and gauges
// map to numbers, histograms to {count, sum, unit, buckets} objects,
// per-worker counters to {total, workers} objects, and a NewFunc series
// with an index label to an object keyed by index (e.g. {"shard0": …}).
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	for _, m := range r.sorted() {
		out[m.meta().series("")] = m.snapshotValue()
	}
	return out
}

// SnapshotJSON returns the Default registry's Snapshot as indented JSON.
func SnapshotJSON() ([]byte, error) {
	return json.MarshalIndent(Default.Snapshot(), "", "  ")
}
