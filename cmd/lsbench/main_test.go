package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"lsgraph/internal/bench"
)

// TestScaleFromFlags pins how the command line becomes a bench.Scale: a
// preset supplies every field, and a flag the caller set overrides its
// field under either preset (-quick used to discard -scale and -trials).
func TestScaleFromFlags(t *testing.T) {
	quick, def := bench.QuickScale(), bench.DefaultScale()
	for _, tc := range []struct {
		args []string
		want bench.Scale
		bad  bool
	}{
		{args: nil, want: def},
		{args: []string{"-quick"}, want: quick},
		{args: []string{"-quick", "-trials", "5"},
			want: bench.Scale{Base: quick.Base, BatchSizes: quick.BatchSizes, Trials: 5}},
		{args: []string{"-quick", "-scale", "12", "-workers", "2"},
			want: bench.Scale{Base: 12, BatchSizes: quick.BatchSizes, Trials: quick.Trials, Workers: 2}},
		{args: []string{"-trials", "7", "-batches", "10, 200"},
			want: bench.Scale{Base: def.Base, BatchSizes: []int{10, 200}, Trials: 7}},
		{args: []string{"-batches", "10,x"}, bad: true},
	} {
		fs := flag.NewFlagSet("lsbench", flag.ContinueOnError)
		o := newFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		got, err := o.scaleFromFlags(fs)
		if (err != nil) != tc.bad || !tc.bad && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v: scale %+v, err %v; want %+v, error %v", tc.args, got, err, tc.want, tc.bad)
		}
	}
}

// TestExperimentsCheckedFirst: -exp names every experiment it selects, and
// one unknown name refuses the whole list before anything runs, naming
// every known experiment.
func TestExperimentsCheckedFirst(t *testing.T) {
	for _, tc := range []struct {
		exp  string
		want []string
	}{
		{exp: "all", want: bench.Experiments},
		{exp: "fig12, table3", want: []string{"fig12", "table3"}},
		{exp: "fig12,tabel3"},
		{exp: ""},
	} {
		o := &options{exp: tc.exp}
		got, err := o.experiments()
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), strings.Join(bench.Experiments, ", ")) {
				t.Errorf("-exp %q: names %v, error %v; want an error naming every experiment", tc.exp, got, err)
			}
		} else if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("-exp %q: names %v, error %v; want %v", tc.exp, got, err, tc.want)
		}
	}
}
