package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/workloads"
)

// TestCommittedBaselineDecodes checks that the committed baseline, which
// also carries the retired throughput fields, decodes to one complete entry
// per gate architecture x benchmark at the gate's scale.
func TestCommittedBaselineDecodes(t *testing.T) {
	base, err := readBaseline(filepath.Join("..", "..", "BENCH_4.json"))
	if err != nil {
		t.Fatal(err)
	}
	if base.Scale != gateScale {
		t.Errorf("scale %g, want %g", base.Scale, gateScale)
	}
	have := map[string]bool{}
	for _, e := range base.Entries {
		have[e.Arch+"/"+e.Bench] = true
		if e.Records <= 0 || e.SimCycles == 0 || e.SimPicos <= 0 || e.Insts == 0 {
			t.Errorf("%s/%s: incomplete entry %+v", e.Arch, e.Bench, e)
		}
	}
	for _, a := range gateArchs {
		for _, b := range workloads.All() {
			if !have[a+"/"+b.Name()] {
				t.Errorf("%s/%s: missing", a, b.Name())
			}
		}
	}
	if n := len(gateArchs) * len(workloads.All()); len(base.Entries) != n {
		t.Errorf("%d entries, want %d", len(base.Entries), n)
	}
}

func TestDiffNamesEveryMismatch(t *testing.T) {
	base := &baseline{Scale: gateScale, Entries: []entry{
		{Arch: "gpgpu", Bench: "count", Records: 8, SimCycles: 100, SimPicos: 1000, Insts: 50},
		{Arch: "gpgpu", Bench: "pca", Records: 8, SimCycles: 200, SimPicos: 2000, Insts: 60},
	}}
	if d := diff(base, base); len(d) != 0 {
		t.Fatalf("a baseline differs from itself: %v", d)
	}
	cur := &baseline{Scale: gateScale, Entries: []entry{
		{Arch: "gpgpu", Bench: "count", Records: 8, SimCycles: 101, SimPicos: 1000, Insts: 51},
		{Arch: "vws", Bench: "count", Records: 8, SimCycles: 100, SimPicos: 1000, Insts: 50},
	}}
	want := []string{
		"gpgpu/count: sim_cycles 101 != baseline 100",
		"gpgpu/count: insts 51 != baseline 50",
		"vws/count: missing from baseline",
		"gpgpu/pca: missing from new run",
	}
	if got := diff(base, cur); !reflect.DeepEqual(got, want) {
		t.Errorf("diff = %q, want %q", got, want)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	want := &baseline{Scale: gateScale, Entries: []entry{
		{Arch: "ssmc", Bench: "gda", Records: 64, SimCycles: 1 << 40, SimPicos: 1 << 50, Insts: 7},
	}}
	if err := want.write(path); err != nil {
		t.Fatal(err)
	}
	got, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read back %+v, want %+v", got, want)
	}
}
