package millipede

import (
	"strings"
	"testing"

	"repro/internal/workloads"
)

func TestPublicAPISmoke(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Corelets != 32 || cfg.Threads() != 128 {
		t.Fatalf("default config geometry: %d corelets", cfg.Corelets)
	}
	if err := DefaultEnergy().Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(Benchmarks()); got != 8 {
		t.Fatalf("benchmarks = %d, want 8", got)
	}
	if got := len(Architectures()); got < 6 {
		t.Fatalf("architectures = %d", got)
	}
}

func TestPublicRunBenchmark(t *testing.T) {
	cfg := DefaultConfig()
	res, err := RunBenchmark(ArchMillipede, "variance", cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.Energy.TotalPJ() <= 0 || res.Insts == 0 {
		t.Errorf("empty result: %+v", res)
	}
	if _, err := RunBenchmark(ArchMillipede, "nope", cfg, 8); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := RunBenchmark("nope", "variance", cfg, 8); err == nil {
		t.Error("unknown architecture accepted")
	}
}

func TestPublicRunReduced(t *testing.T) {
	cfg := DefaultConfig()
	_, out, err := RunReduced(ArchMillipede, "count", cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	// Dual-band histogram: 32 bins; the final word is the low-band sum.
	for _, v := range out[:32] {
		total += uint64(v)
	}
	if total != 64*uint64(cfg.Threads()) {
		t.Errorf("histogram total %d, want %d", total, 64*cfg.Threads())
	}
}

func TestPublicAssemble(t *testing.T) {
	p, err := Assemble("t", "csrr r1, tid\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 2 {
		t.Errorf("insts = %d", len(p.Insts))
	}
	if _, err := Assemble("t", "not a kernel"); err == nil {
		t.Error("bad source accepted")
	}
}

func TestPublicTables(t *testing.T) {
	for _, name := range []string{"table2", "table3"} {
		res, err := RunExperiment(name, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.Text == "" {
			t.Errorf("%s rendered empty", name)
		}
	}
}

func TestPublicRunNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Corelets = 8
	cfg.Contexts = 2
	cfg.PrefetchEntries = 8
	r, err := RunNode("count", cfg, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	if r.Time <= 0 || len(r.ProcessorTimes) != 2 || len(r.Output) == 0 {
		t.Errorf("node result: %+v", r)
	}
}

// TestPublicBadInputsReturnErrors: a record count below one or a malformed
// centroid set reaching the public API comes back as an error naming the
// problem; none of them panics (RunNode's would kill the process from a
// worker goroutine).
func TestPublicBadInputsReturnErrors(t *testing.T) {
	cfg := DefaultConfig()
	small := cfg
	small.Corelets, small.Contexts, small.PrefetchEntries = 8, 2, 8
	cents := workloads.KMeansCentroids()
	ragged := workloads.KMeansCentroids()
	ragged[1] = ragged[1][:1]
	run := func(a string, records int) func() error {
		return func() error { _, err := RunBenchmark(a, "count", cfg, records); return err }
	}
	runNode := func(records int) func() error {
		return func() error { _, err := RunNode("count", small, 2, records); return err }
	}
	reduced := func(a string) func() error {
		return func() error { _, _, err := RunReduced(a, "count", cfg, -5); return err }
	}
	kmeans := func(c [][]float32, records int) func() error {
		return func() error { _, _, err := KMeansIteration(cfg, c, records); return err }
	}
	for name, tc := range map[string]struct {
		call func() error
		want string
	}{
		"RunBenchmark millipede":      {run(ArchMillipede, -5), "record count -5"},
		"RunBenchmark gpgpu":          {run(ArchGPGPU, -5), "record count -5"},
		"RunBenchmark millipede zero": {run(ArchMillipede, 0), "record count 0"},
		"RunBenchmark gpgpu zero":     {run(ArchGPGPU, 0), "record count 0"},
		"RunBenchmark multicore zero": {run(ArchMulticore, 0), "record count 0"},
		"RunReduced millipede":        {reduced(ArchMillipede), "record count -5"},
		"RunReduced gpgpu":            {reduced(ArchGPGPU), "record count -5"},
		"RunReduced multicore":        {reduced(ArchMulticore), "record count -5"},
		"RunNode":                     {runNode(-5), "record count -5"},
		"RunNode zero":                {runNode(0), "record count 0"},
		"RateTrace":                   {func() error { _, _, err := RateTrace("count", small, -5); return err }, "record count -5"},
		"KMeansIteration records":     {kmeans(cents, -5), "record count -5"},
		"KMeansIteration nil":         {kmeans(nil, 16), "centroids"},
		"KMeansIteration wrong K":     {kmeans(cents[1:], 16), "centroids"},
		"KMeansIteration ragged":      {kmeans(ragged, 16), "centroid 1"},
		"CentroidShift nil":           {func() error { _, err := CentroidShift(cents, nil); return err }, "centroids"},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if err := tc.call(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestPublicRateTrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Corelets = 8
	cfg.Contexts = 2
	cfg.ChannelHz = 150e6 // memory-bound so the controller moves
	trace, res, err := RateTrace("count", cfg, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Error("no DFS trajectory on a memory-bound machine")
	}
	if res.FinalHz >= cfg.ComputeHz {
		t.Errorf("final clock %.0f not below nominal", res.FinalHz)
	}
	// The trace comes from the same verified run path as RunBenchmark, so
	// the measurement is complete, not just time and energy.
	if res.Cycles == 0 || len(res.Metrics.Samples) == 0 {
		t.Errorf("incomplete rate-trace result: %d cycles, %d metric samples", res.Cycles, len(res.Metrics.Samples))
	}
}

func TestBenchmarksCachedCopy(t *testing.T) {
	a := Benchmarks()
	b := Benchmarks()
	if len(a) == 0 || len(b) != len(a) {
		t.Fatalf("benchmark lists: %v vs %v", a, b)
	}
	a[0] = "mutated"
	if c := Benchmarks(); c[0] == "mutated" {
		t.Error("Benchmarks returns an aliased slice; callers can corrupt the cache")
	}
}

func TestExperimentRegistryPublic(t *testing.T) {
	infos := Experiments()
	names := map[string]bool{}
	for _, e := range infos {
		names[e.Name] = true
	}
	for _, want := range []string{"fig3", "fig4", "fig5", "fig6", "fig7", "table2", "table3",
		"table4", "ablation", "characteristics", "warpwidth", "channels", "residency", "node", "timeline"} {
		if !names[want] {
			t.Errorf("experiment %q missing from registry", want)
		}
	}
	if _, err := RunExperiment("no-such-experiment", DefaultConfig()); err == nil {
		t.Error("unknown experiment name accepted")
	}
	res, err := RunExperiment("table3", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Text == "" || res.Render() == "" {
		t.Error("table3 experiment rendered empty")
	}
}

func TestRunOptionsPublic(t *testing.T) {
	cfg := DefaultConfig()
	// Observability options must not perturb measurements.
	base, err := RunBenchmark(ArchMillipedeRM, "count", cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	l := NewTraceLog(1024)
	traced, err := RunBenchmark(ArchMillipedeRM, "count", cfg, 64,
		WithTraceSink(l), WithTimeline(64))
	if err != nil {
		t.Fatal(err)
	}
	if traced.Time != base.Time || traced.Insts != base.Insts {
		t.Errorf("options changed the simulation: %d/%d vs %d/%d",
			traced.Time, traced.Insts, base.Time, base.Insts)
	}
	if traced.Timeline == nil || traced.Timeline.Len() == 0 {
		t.Error("WithTimeline attached no sampler")
	}
	if base.Timeline != nil {
		t.Error("timeline present without the option")
	}
	if len(traced.Metrics.Samples) == 0 || len(base.Metrics.Samples) == 0 {
		t.Error("metrics snapshot missing")
	}
	// A different seed is a different workload instance.
	seeded, err := RunBenchmark(ArchMillipede, "count", cfg, 64, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Insts == 0 {
		t.Error("seeded run empty")
	}
}

func TestPublicBarrierAblationAndCharacteristics(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	cfg := DefaultConfig()
	for name, rows := range map[string]int{"ablation": 1, "characteristics": 2} {
		res, err := RunExperiment(name, cfg, WithScale(0.03))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Figures) != 1 || len(res.Figures[0].Rows) != rows {
			t.Errorf("%s: %d figures, want one with %d rows", name, len(res.Figures), rows)
		}
	}
}
