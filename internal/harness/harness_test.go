package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// testScale keeps harness tests fast; the cmd/milliexp tool runs at >= 1.
const testScale = 0.04

func TestRunAllArchitecturesVerified(t *testing.T) {
	// Run itself verifies every result against the golden reference; this
	// test just exercises each architecture id once.
	p := arch.Default()
	b := workloads.CountBench()
	for _, a := range append(Architectures(), ArchMulticore) {
		if _, _, err := Run(a, b, p, 64, Options{}); err != nil {
			t.Errorf("%s: %v", a, err)
		}
	}
	if _, _, err := Run("bogus", b, p, 8, Options{}); err == nil {
		t.Error("unknown architecture accepted")
	}
}

func TestFig3Orderings(t *testing.T) {
	f, err := Fig3(context.Background(), arch.Default(), testScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	byBench := map[string]map[string]float64{}
	for _, r := range f.Rows {
		byBench[r.Bench] = r.Values
	}
	// Headline: Millipede beats GPGPU-with-prefetch overall, decisively on
	// the branchy, bandwidth-contested benchmarks.
	if g := f.Geomean[ArchMillipede]; g < 1.10 {
		t.Errorf("Millipede geomean speedup over GPGPU = %.3f, want > 1.10", g)
	}
	for _, b := range []string{"count", "sample"} {
		v := byBench[b]
		if v[ArchMillipede] < 1.4 {
			t.Errorf("%s: Millipede %.2fx GPGPU, want > 1.4", b, v[ArchMillipede])
		}
		if v[ArchMillipede] <= v[ArchSSMC] {
			t.Errorf("%s: Millipede (%.2f) not above SSMC (%.2f)", b, v[ArchMillipede], v[ArchSSMC])
		}
		// Row-orientedness without flow control sits between SSMC and
		// full Millipede (Section VI-A).
		if v[ArchMillipedeNoFC] <= v[ArchSSMC]*0.98 || v[ArchMillipedeNoFC] > v[ArchMillipede] {
			t.Errorf("%s: no-flow-control %.2f not between SSMC %.2f and Millipede %.2f",
				b, v[ArchMillipedeNoFC], v[ArchSSMC], v[ArchMillipede])
		}
	}
	// VWS-row shows Millipede's generality on VWS (Section VI-A); at test
	// scale the effect is asserted on count, the most bandwidth-bound
	// benchmark.
	if v := byBench["count"]; v[ArchVWSRow] <= v[ArchVWS] {
		t.Errorf("count: VWS-row %.2f not above VWS %.2f", v[ArchVWSRow], v[ArchVWS])
	}
	// Millipede never loses badly anywhere.
	for _, r := range f.Rows {
		if r.Values[ArchMillipede] < 0.95 {
			t.Errorf("%s: Millipede %.2f below GPGPU", r.Bench, r.Values[ArchMillipede])
		}
	}
}

func TestFig4Energy(t *testing.T) {
	f, parts, err := Fig4(context.Background(), arch.Default(), testScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g := f.Geomean[ArchMillipede]; g >= 1.0 {
		t.Errorf("Millipede geomean energy vs GPGPU = %.3f, want < 1", g)
	}
	if f.Geomean[ArchMillipede] > f.Geomean[ArchSSMC] {
		t.Errorf("Millipede energy (%.3f) above SSMC (%.3f)",
			f.Geomean[ArchMillipede], f.Geomean[ArchSSMC])
	}
	// Breakdown shares must be positive and sum to the total.
	for i, r := range f.Rows {
		p := parts.Rows[i]
		for _, a := range f.Series {
			sum := p.Values[a+":core"] + p.Values[a+":dram"] + p.Values[a+":leak"]
			if diff := sum - r.Values[a]; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s/%s: breakdown sums to %.4f, total %.4f", r.Bench, a, sum, r.Values[a])
			}
		}
	}
}

func TestFig5NodeComparison(t *testing.T) {
	f, err := Fig5(context.Background(), arch.Default(), testScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.Rows {
		if r.Values["speedup"] < 3 {
			t.Errorf("%s: node speedup %.1f implausibly low", r.Bench, r.Values["speedup"])
		}
		if r.Values["energy-improvement"] < 3 {
			t.Errorf("%s: energy improvement %.1f implausibly low", r.Bench, r.Values["energy-improvement"])
		}
	}
	// The paper reports ~125x average energy-delay improvement; require at
	// least two orders of magnitude.
	var eds []float64
	for _, r := range f.Rows {
		eds = append(eds, r.Values["speedup"]*r.Values["energy-improvement"])
	}
	if g := stats.Geomean(eds); g < 100 {
		t.Errorf("energy-delay improvement geomean %.0f, want >= 100", g)
	}
}

func TestFig6ScalingTrend(t *testing.T) {
	f, err := Fig6(context.Background(), arch.Default(), testScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Millipede gains from doubling corelets + bandwidth.
	if f.Geomean["millipede-64"] <= f.Geomean["millipede-32"] {
		t.Errorf("millipede-64 (%.2f) not above millipede-32 (%.2f)",
			f.Geomean["millipede-64"], f.Geomean["millipede-32"])
	}
	// Millipede's advantage over SSMC grows with system size — more cores
	// stray more (Fig. 6) — while its advantage over GPGPU holds.
	ssmc32 := f.Geomean["millipede-32"] / f.Geomean["ssmc-32"]
	ssmc64 := f.Geomean["millipede-64"] / f.Geomean["ssmc-64"]
	if ssmc64 <= ssmc32 {
		t.Errorf("Millipede/SSMC advantage did not grow with size: %.3f -> %.3f", ssmc32, ssmc64)
	}
	adv32 := f.Geomean["millipede-32"] / f.Geomean["gpgpu-32"]
	adv64 := f.Geomean["millipede-64"] / f.Geomean["gpgpu-64"]
	if adv64 < adv32*0.9 {
		t.Errorf("Millipede/GPGPU advantage collapsed with size: %.3f -> %.3f", adv32, adv64)
	}
}

func TestFig7BufferSensitivity(t *testing.T) {
	f, err := Fig7(context.Background(), arch.Default(), testScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	series := []string{"2-buffers", "4-buffers", "8-buffers", "16-buffers", "32-buffers"}
	for _, r := range f.Rows {
		var xs []float64
		for _, s := range series {
			xs = append(xs, r.Values[s])
		}
		if !stats.MonotoneUp(xs, 0.05) {
			t.Errorf("%s: speedup not monotone in buffer count: %v", r.Bench, xs)
		}
		// Performance levels off: 32 buffers gain little over 16.
		if r.Values["32-buffers"] > r.Values["16-buffers"]*1.25 {
			t.Errorf("%s: no leveling off between 16 and 32 buffers (%v)", r.Bench, xs)
		}
	}
}

func TestTableIVCharacteristics(t *testing.T) {
	// Straying (and hence SSMC's row-miss rate) needs run length to
	// develop; use a larger scale than the other tests.
	f, err := TableIV(context.Background(), arch.Default(), 0.12, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := map[string]map[string]float64{}
	for _, r := range f.Rows {
		v[r.Bench] = r.Values
	}
	// Instructions per word rise toward the compute-heavy learners.
	if !(v["pca"]["insts/word"] > v["kmeans"]["insts/word"] &&
		v["gda"]["insts/word"] > v["kmeans"]["insts/word"] &&
		v["kmeans"]["insts/word"] > v["count"]["insts/word"]) {
		t.Errorf("insts/word ordering broken: %v", v)
	}
	// Branch frequency falls toward the right (Table IV's trend).
	if !(v["count"]["branches/inst"] > v["classify"]["branches/inst"] &&
		v["classify"]["branches/inst"] > v["gda"]["branches/inst"]*0.9) {
		t.Errorf("branch frequency ordering broken")
	}
	// SSMC strays hardest on the bursty, branch-skewed benchmarks.
	if v["count"]["ssmc-row-miss"] < 0.15 || v["sample"]["ssmc-row-miss"] < 0.15 {
		t.Errorf("SSMC row miss rates too low: count %.3f sample %.3f",
			v["count"]["ssmc-row-miss"], v["sample"]["ssmc-row-miss"])
	}
	for _, r := range f.Rows {
		mhz := r.Values["rate-clock-MHz"]
		if mhz < 175 || mhz > 700.5 {
			t.Errorf("%s: rate-matched clock %.0f MHz outside [175, 700]", r.Bench, mhz)
		}
	}
}

func TestTableRenderers(t *testing.T) {
	s := TableIII(arch.Default())
	if len(s) == 0 {
		t.Error("empty Table III")
	}
	if s2 := TableII(); len(s2) == 0 {
		t.Error("empty Table II")
	}
	f := &Figure{Name: "x", Series: []string{"a"}, Rows: []Row{{Bench: "b", Values: map[string]float64{"a": 1}}}}
	f.geomeans()
	if out := f.Render(); len(out) == 0 {
		t.Error("empty render")
	}
}

func TestBarrierAblation(t *testing.T) {
	f, err := BarrierAblation(context.Background(), arch.Default(), 0.12, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := f.Rows[0].Values
	// Record-granularity barriers prevent evictions but serialize: slower
	// than hardware flow control.
	if v["barrier-every-1"] >= 1.0 {
		t.Errorf("per-record barriers (%.2f) not slower than flow control", v["barrier-every-1"])
	}
	// Coarse (Map-task-granularity) barriers are too infrequent: close to
	// no-flow-control (the paper's "performs similarly" claim).
	r := v["barrier-every-512"] / v["no-flow-control"]
	if r < 0.8 || r > 1.3 {
		t.Errorf("coarse barriers (%.2f) not similar to no-flow-control (%.2f)",
			v["barrier-every-512"], v["no-flow-control"])
	}
}

func TestCharacteristicsStudy(t *testing.T) {
	f, err := CharacteristicsStudy(context.Background(), arch.Default(), 0.02, 0)
	if err != nil {
		t.Fatal(err)
	}
	var count, join map[string]float64
	for _, r := range f.Rows {
		if r.Bench == "count" {
			count = r.Values
		} else {
			join = r.Values
		}
	}
	// Compact workloads read each input byte about once; the non-compact
	// join re-streams its table per record, amplifying DRAM traffic by
	// orders of magnitude and collapsing input throughput (Sec. III-D).
	if count["dram-amplification"] > 1.3 {
		t.Errorf("count amplification %.2f, want ~1", count["dram-amplification"])
	}
	if join["dram-amplification"] < 20 {
		t.Errorf("join amplification %.1f, want >> 1", join["dram-amplification"])
	}
	if join["input-words/us"] > count["input-words/us"]/20 {
		t.Errorf("join throughput %.1f not collapsed vs count %.1f",
			join["input-words/us"], count["input-words/us"])
	}
}

func TestWarpWidthSweep(t *testing.T) {
	f, err := WarpWidthSweep(context.Background(), arch.Default(), testScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's VWS picks 4-wide for BMLAs: narrow warps must win on the
	// branchy benchmarks.
	for _, r := range f.Rows {
		if r.Bench != "count" && r.Bench != "sample" {
			continue
		}
		if r.Values["4-wide"] < r.Values["32-wide"] {
			t.Errorf("%s: 4-wide (%.2f) lost to 32-wide", r.Bench, r.Values["4-wide"])
		}
	}
}

func TestResidencyStudy(t *testing.T) {
	f, err := ResidencyStudy(context.Background(), arch.Default(), 16, testScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResidencyStudy(context.Background(), arch.Default(), 0, testScale, 0); err == nil {
		t.Error("zero bandwidth accepted")
	}
	for _, r := range f.Rows {
		if r.Values["copyin-us"] <= 0 || r.Values["kernel-us"] <= 0 {
			t.Errorf("%s: empty study row", r.Bench)
		}
		// The bandwidth-hungry count benchmark must need several reuses to
		// amortize its copy-in — residency matters (Sec. IV-E).
		if r.Bench == "count" && r.Values["reuses-for-10pct"] < 2 {
			t.Errorf("count amortizes instantly (%.1f reuses); study degenerate", r.Values["reuses-for-10pct"])
		}
	}
}

func TestKMeansIterationConverges(t *testing.T) {
	p := arch.Default()
	cents := workloads.KMeansCentroids()
	for c := range cents {
		for d := range cents[c] {
			cents[c][d] += 2.0
		}
	}
	var shifts []float64
	for it := 0; it < 3; it++ {
		next, res, err := KMeansIteration(p, cents, 48)
		if err != nil {
			t.Fatal(err)
		}
		if res.Time <= 0 {
			t.Fatal("empty result")
		}
		shift, err := CentroidShift(cents, next)
		if err != nil {
			t.Fatal(err)
		}
		shifts = append(shifts, shift)
		cents = next
	}
	if !(shifts[0] > shifts[1] && shifts[1] >= shifts[2]) {
		t.Errorf("k-means not converging: shifts %v", shifts)
	}
	if shifts[2] > 0.01 {
		t.Errorf("k-means did not settle: %v", shifts)
	}
}

func TestCentroidShift(t *testing.T) {
	a := [][]float32{{0, 0}, {1, 1}}
	b := [][]float32{{3, 4}, {1, 1}}
	if got, err := CentroidShift(a, b); err != nil || got != 2.5 {
		t.Errorf("shift = %v, %v; want 2.5", got, err)
	}
	for name, tc := range map[string]struct {
		a, b [][]float32
		want string
	}{
		"nil":     {a, nil, "2 and 0 centroids"},
		"wrong K": {a, b[:1], "2 and 1 centroids"},
		"ragged":  {a, [][]float32{{3, 4}, {1}}, "centroid 1 has 2 dims in one set and 1"},
		"empty":   {nil, nil, "0 and 0 centroids"},
	} {
		if got, err := CentroidShift(tc.a, tc.b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: shift = %v, error %v; want one containing %q", name, got, err, tc.want)
		}
	}
}
