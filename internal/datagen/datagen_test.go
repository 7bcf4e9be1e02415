package datagen

import (
	"testing"

	"repro/internal/isa"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced zero stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestFloat32Range(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 1000; i++ {
		v := r.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32() = %v", v)
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(3)
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.7) {
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if rate < 0.67 || rate > 0.73 {
		t.Errorf("Bernoulli(0.7) rate = %.3f", rate)
	}
}

func TestRatings(t *testing.T) {
	r := NewRNG(4)
	rs := Ratings(r, 5000, 256)
	if len(rs) != 5000 {
		t.Fatalf("len = %d", len(rs))
	}
	lo, hi := 0, 0
	for _, v := range rs {
		if v >= 256 {
			t.Fatalf("rating %d out of range", v)
		}
		if v < 64 {
			lo++
		} else if v >= 128 {
			hi++
		}
	}
	if lo == 0 || hi == 0 {
		t.Error("distribution not bimodal")
	}
	if hi < lo {
		t.Error("popular band should dominate")
	}
}

func TestLabeledPoints(t *testing.T) {
	r := NewRNG(5)
	const n, dims, k = 3000, 8, 8
	ws := LabeledPoints(r, n, dims, k, 2, 0.7)
	if len(ws) != n*(dims+1) {
		t.Fatalf("len = %d", len(ws))
	}
	zeros := 0
	for i := 0; i < n; i++ {
		rec := ws[i*(dims+1):]
		if rec[0] > 1 {
			t.Fatalf("label %d out of range", rec[0])
		}
		if rec[0] == 0 {
			zeros++
		}
		for d := 1; d <= dims; d++ {
			if rec[d] >= k {
				t.Fatalf("coord %d out of range", rec[d])
			}
		}
	}
	rate := float64(zeros) / n
	if rate < 0.65 || rate > 0.75 {
		t.Errorf("class-0 rate = %.3f, want ~0.7 (paper's 70/30 split)", rate)
	}
}

func TestFloatPointsNearCenters(t *testing.T) {
	r := NewRNG(6)
	const n, dims, k = 2000, 8, 4
	centers := Centers(r, k, dims)
	ws := FloatPoints(r, n, dims, centers, 0.5)
	if len(ws) != n*dims {
		t.Fatalf("len = %d", len(ws))
	}
	// Every point must be within spread of some center in every dim.
	for i := 0; i < n; i++ {
		ok := false
		for c := 0; c < k; c++ {
			all := true
			for d := 0; d < dims; d++ {
				v := isa.F32(ws[i*dims+d])
				diff := v - centers[c][d]
				if diff < -0.51 || diff > 0.51 {
					all = false
					break
				}
			}
			if all {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("point %d not near any center", i)
		}
	}
}

func TestLabeledFloatPoints(t *testing.T) {
	r := NewRNG(7)
	const n, dims = 1000, 16
	ws := LabeledFloatPoints(r, n, dims, 2, 0.7, 0.5)
	if len(ws) != n*(dims+1) {
		t.Fatalf("len = %d", len(ws))
	}
	for i := 0; i < n; i++ {
		if ws[i*(dims+1)] > 1 {
			t.Fatalf("label out of range")
		}
	}
}
