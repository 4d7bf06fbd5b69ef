package main

import "testing"

// The comparator must see a planted 15 % regression through a 10 % bound and
// let a 3 % wobble pass, in both directions of "better".
func TestCompare(t *testing.T) {
	base := []float64{99, 100, 101, 100.5, 99.5, 100, 100.2, 99.8, 100.1, 99.9}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name   string
		factor float64
		better string
		ok     bool
	}{
		{"latency 15% slower", 1.15, "lower", false},
		{"latency 3% slower", 1.03, "lower", true},
		{"latency 15% faster", 0.85, "lower", false}, // the same code cannot get faster either
		{"throughput 15% lower", 0.85, "higher", false},
		{"throughput 3% lower", 0.97, "higher", true},
	}
	for _, c := range cases {
		v := compare(base, scaled(c.factor), c.better, 0.10, false)
		if v.ok != c.ok {
			t.Errorf("%s: ok=%v, want %v (worse %+.3f)", c.name, v.ok, c.ok, v.worse)
		}
		if slower := c.factor > 1; (c.better == "lower") == slower != (v.worse > 0) {
			t.Errorf("%s: worse=%+.3f has the wrong sign", c.name, v.worse)
		}
	}

	wide := []float64{80, 90, 100, 110, 120, 85, 95, 105, 115, 100}
	if v := compare(wide, wide, "lower", 0.10, false); v.ok {
		t.Errorf("a set with a %.0f%% quartile spread agreed with itself within 10%%", 100*v.spreadA)
	}
	if v := compare(wide, wide, "lower", 0.10, true); !v.ok {
		t.Error("a spread-exempt metric was rejected for its spread")
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), which is what
// the driver computes.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}
