package stats

import (
	"math"
	"testing"
)

func TestGeomean(t *testing.T) {
	if Geomean(nil) != 0 {
		t.Error("empty geomean")
	}
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean = %v", g)
	}
	defer func() {
		if recover() == nil {
			t.Error("non-positive value accepted")
		}
	}()
	Geomean([]float64{1, 0})
}

func TestMeanMedian(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty inputs")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean")
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Error("odd median")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("even median")
	}
}

// TestPercentileNearestRank: the k-th smallest value with k = ceil(q*n).
func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: Percentile must sort
		}
		return xs
	}
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2, 3}, 0.50, 2}, // not the minimum
		{[]float64{3, 1, 2}, 1.0, 3},
		{seq(150), 0.99, 149}, // the 149th of 150, not the 148th
		{seq(150), 0.50, 75},
		{seq(100), 0.99, 99},
		{seq(4), 0.01, 1}, // rank rounds up to at least 1
	}
	for _, c := range cases {
		if got := Percentile(c.xs, c.q); got != c.want {
			t.Errorf("Percentile(%d values, %g) = %g, want %g", len(c.xs), c.q, got, c.want)
		}
	}
}

func TestMonotoneUp(t *testing.T) {
	if !MonotoneUp([]float64{1, 2, 3}, 0) {
		t.Error("strictly increasing rejected")
	}
	if !MonotoneUp([]float64{1, 0.96, 3}, 0.05) {
		t.Error("within-tolerance dip rejected")
	}
	if MonotoneUp([]float64{1, 0.5}, 0.05) {
		t.Error("large dip accepted")
	}
	if !MonotoneUp(nil, 0) || !MonotoneUp([]float64{5}, 0) {
		t.Error("trivial cases")
	}
}
