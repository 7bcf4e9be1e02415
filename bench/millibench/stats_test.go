package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so every helper must sort
	}
	return xs
}

// TestTailPercentile pins the rule: the highest nearest-rank percentile that
// at least ten samples exceed, falling back to the median rank when there
// are too few samples for one.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n         int
		value, pc float64
	}{
		{1000, 990, 99},
		{100, 90, 90},
		{80, 70, 87.5},
		{20, 10, 50},
		{11, 6, 100 * 6.0 / 11},
		{1, 1, 100},
	} {
		v, pc := tailPercentile(seq(c.n))
		if v != c.value || math.Abs(pc-c.pc) > 1e-9 {
			t.Errorf("n=%d: tail = %g at p%g, want %g at p%g", c.n, v, pc, c.value, c.pc)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if c.n > 20 && beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, tailBeyond)
		}
	}
	if v, pc := tailPercentile(nil); v != 0 || pc != 0 {
		t.Errorf("empty: %g at p%g", v, pc)
	}
}

// TestQuartilesMatchPython checks against statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(4), 1.25, 3.75},
		{[]float64{1, 100}, -23.75, 124.75}, // extrapolates, as Python does
		{[]float64{3, 1, 2}, 1, 3},
		{seq(11), 3, 9},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median(1..4) = %g", m)
	}
	if m := median(seq(5)); m != 3 {
		t.Errorf("median(1..5) = %g", m)
	}
	if s := spread(seq(10)); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want 1", s)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		next   []float64
		better string
		want   string
	}{
		{scaled(1.05), "lower", "ok"},
		{scaled(1.20), "lower", "REGRESSED"},
		{scaled(1.20), "higher", "ok"},
		{scaled(0.80), "higher", "REGRESSED"},
		{[]float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, "lower", "unresolved"},
	} {
		if _, _, v := verdict(steady, c.next, c.better, 0.1); v != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.next, c.better, v, c.want)
		}
	}
}
