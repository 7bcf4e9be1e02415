package main

import (
	"io"
	"path/filepath"
	"slices"
	"testing"
)

// tinySize shrinks every pass to a fraction of a second.
var tinySize = size{
	mimdScale: 0.02, simtScale: 0.02,
	stackScale: 0.02, multicoreScale: 0.005,
	keys: 10, requests: 100, jobScale: 0.002,
}

// TestSmoke runs every workload of BENCHMARK.json at tiny size, untraced and
// traced, and checks that each run is correct and prints exactly the
// metrics BENCHMARK.json names for its mode, with their units.
func TestSmoke(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, millibench runs %v", names, workloadNames)
	}
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		units[true][m.Name] = m.Unit
	}

	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: 1, trace: traced, outDir: t.TempDir(), sz: tinySize}
			measureFn := measure
			if traced {
				measureFn = measureTraced
			}
			rep, err := measureFn(o, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed: %v", w, traced, rep.Correct, rep.Failed, rep.Attempted, rep.problems)
			}
			for name, unit := range units[traced] {
				m, ok := rep.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not printed", w, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: %s in %q, BENCHMARK.json says %q", w, traced, name, m.Unit, unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %g, want > 0", w, name, m.Value)
				}
			}
			if len(rep.Metrics) != len(units[traced]) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", w, traced, len(rep.Metrics), len(units[traced]))
			}
			if !traced {
				continue
			}
			if a := rep.Metrics["sim.cycle_allocs"].Value; a != 0 {
				t.Errorf("%s: %g cycle-loop allocations", w, a)
			}
			if w == "serve" {
				if n := rep.Metrics["server.sims_run"].Value; int(n) != tinySize.keys {
					t.Errorf("serve: %g simulations for %d distinct keys", n, tinySize.keys)
				}
			} else if rep.Metrics["run.cycles"].Value == 0 || rep.Metrics["sim.run.wall_frac"].Value == 0 {
				t.Errorf("%s: no simulated cycles or cycle-loop time recorded", w)
			}
		}
	}
}
