package main

import (
	"flag"
	"reflect"
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
