package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/workloads"
)

// TestMetricsDeterminism is the observability-layer determinism gate: two
// identical runs must produce byte-identical metric snapshots for every
// kernel on each of the three main architecture families. Any nondeterminism
// introduced by the metrics layer (map iteration, timing perturbation from
// probes) shows up here immediately.
func TestMetricsDeterminism(t *testing.T) {
	p := arch.Default()
	for _, a := range []string{ArchMillipede, ArchSSMC, ArchGPGPU} {
		for _, b := range workloads.All() {
			r1, _, err := Run(a, b, p, 32, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", a, b.Name(), err)
			}
			r2, _, err := Run(a, b, p, 32, Options{})
			if err != nil {
				t.Fatalf("%s/%s rerun: %v", a, b.Name(), err)
			}
			t1, t2 := r1.Metrics.Render(), r2.Metrics.Render()
			if t1 != t2 {
				t.Errorf("%s/%s: metric snapshots differ between identical runs\n--- run 1\n%s--- run 2\n%s",
					a, b.Name(), t1, t2)
			}
			j1, err := r1.Metrics.JSON()
			if err != nil {
				t.Fatalf("%s/%s: %v", a, b.Name(), err)
			}
			j2, _ := r2.Metrics.JSON()
			if string(j1) != string(j2) {
				t.Errorf("%s/%s: JSON snapshots differ between identical runs", a, b.Name())
			}
		}
	}
}

// TestMetricsPresence checks each architecture family registers the metric
// namespaces its components own, and that the run-level summary rows the
// harness injects are always present.
func TestMetricsPresence(t *testing.T) {
	p := arch.Default()
	b := workloads.CountBench()
	cases := []struct {
		arch string
		want []string
	}{
		{ArchMillipede, []string{"core.cycles", "corelet.instructions", "prefetch.prefetches", "mem.issued", "dram.requests"}},
		{ArchMillipedeRM, []string{"dfs.clock_hz", "dfs.steps_down"}},
		{ArchSSMC, []string{"cache.hits", "corelet.instructions", "dram.row_misses"}},
		{ArchGPGPU, []string{"simt.warp_insts", "cache.hits", "mem.stall_cycles"}},
		{ArchMulticore, []string{"l1.hits", "l2.hits", "corelet.instructions"}},
	}
	for _, c := range cases {
		res, _, err := Run(c.arch, b, p, 64, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.arch, err)
		}
		for _, name := range append([]string{"run.cycles", "run.insts", "run.time_ps", "energy.total_pj"}, c.want...) {
			if _, ok := res.Metrics.Get(name); !ok {
				t.Errorf("%s: metric %q missing from snapshot:\n%s", c.arch, name, res.Metrics.Render())
			}
		}
		if res.Metrics.Value("run.insts") != float64(res.Insts) {
			t.Errorf("%s: run.insts %v != result insts %d", c.arch, res.Metrics.Value("run.insts"), res.Insts)
		}
		if res.Metrics.Value("core.cycles") == 0 {
			t.Errorf("%s: core.cycles is zero", c.arch)
		}
	}
}

// TestRunWithTimeline verifies the cycle-domain sampler: strictly increasing
// aligned sample cycles and one value per registered probe.
func TestRunWithTimeline(t *testing.T) {
	p := arch.Default()
	b := workloads.CountBench()
	res, _, err := Run(ArchMillipedeRM, b, p, 256, Options{TimelineEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	if tl == nil || tl.Len() == 0 {
		t.Fatal("timeline missing or empty")
	}
	names := tl.Names()
	for _, want := range []string{"prefetch-occupancy", "row-hit-rate", "queue-depth", "clock-mhz"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("timeline probe %q missing (have %v)", want, names)
		}
	}
	pts := tl.Points()
	for i, pt := range pts {
		if len(pt.Values) != len(names) {
			t.Fatalf("point %d has %d values for %d probes", i, len(pt.Values), len(names))
		}
		if pt.Cycle%tl.Every() != 0 {
			t.Errorf("point %d at cycle %d not aligned to %d", i, pt.Cycle, tl.Every())
		}
		if i > 0 && pt.Cycle <= pts[i-1].Cycle {
			t.Errorf("timeline cycles not strictly increasing at point %d", i)
		}
	}
	// Without the option, no sampler is attached and the hot loop stays bare.
	plain, _, err := Run(ArchMillipedeRM, b, p, 256, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Timeline != nil {
		t.Error("timeline attached without TimelineEvery option")
	}
	// Observability must not perturb the simulation.
	if plain.Time != res.Time || plain.Insts != res.Insts {
		t.Errorf("timeline sampling changed the run: time %d vs %d, insts %d vs %d",
			res.Time, plain.Time, res.Insts, plain.Insts)
	}
}

// TestTimelineStudyRenders exercises the registered timeline experiment
// end to end at a tiny scale.
func TestTimelineStudyRenders(t *testing.T) {
	fig, err := TimelineStudy(context.Background(), arch.Default(), 0.02, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) == 0 {
		t.Fatal("timeline figure has no rows")
	}
	out := fig.Render()
	for _, want := range []string{"prefetch-occupancy", "clock-mhz", "@"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered timeline missing %q:\n%s", want, out)
		}
	}
}

// TestRunExperimentRegistry checks registry lookups and that every
// registered experiment is listed with a description.
func TestRunExperimentRegistry(t *testing.T) {
	infos := Experiments()
	if len(infos) < 14 {
		t.Fatalf("only %d experiments registered", len(infos))
	}
	seen := map[string]bool{}
	for _, e := range infos {
		if e.Name == "" || e.Description == "" {
			t.Errorf("experiment %+v missing name or description", e)
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
	}
	for _, want := range []string{"fig3", "fig4", "table2", "table3", "table4", "timeline", "node", "residency"} {
		if !seen[want] {
			t.Errorf("experiment %q not registered", want)
		}
	}
	if _, err := RunExperiment(context.Background(), "nope", arch.Default(), ExpOptions{}); err == nil {
		t.Error("unknown experiment accepted")
	}
	res, err := RunExperiment(context.Background(), "table2", arch.Default(), ExpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "ISA") && res.Render() == "" {
		t.Errorf("table2 rendered empty")
	}
}
