package workloads_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// sharedPrograms returns the program of every BMLA benchmark and of the
// barrier ablation's count variant.
func sharedPrograms() []*isa.Program {
	var ps []*isa.Program
	for _, b := range workloads.All() {
		ps = append(ps, b.K.Prog)
	}
	return append(ps, workloads.CountBarrierBench(1).K.Prog)
}

// TestAllSharesPrograms: the kernels are assembled once, so two All() calls
// return benchmarks sharing every program, and the barrier variants share
// one program whatever their interval.
func TestAllSharesPrograms(t *testing.T) {
	a, b := workloads.All(), workloads.All()
	for i := range a {
		if a[i].K.Prog != b[i].K.Prog {
			t.Errorf("%s: two All() calls assembled two programs", a[i].Name())
		}
	}
	if workloads.CountBarrierBench(1).K.Prog != workloads.CountBarrierBench(512).K.Prog {
		t.Error("count-barrier: two intervals assembled two programs")
	}
}

// TestSharedProgramsUnchangedByRuns: experiments that run every kernel on
// every model, several runs at once on harness.runJobs's workers, leave each
// shared program encoding to the bytes it encoded to before. Under -race
// (make check) a run that wrote to a shared program while another read it
// would also fail.
func TestSharedProgramsUnchangedByRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	progs := sharedPrograms()
	var before [][]byte
	for _, p := range progs {
		before = append(before, isa.EncodeProgram(p))
	}
	for _, name := range []string{"fig3", "fig5", "ablation"} {
		if _, err := harness.RunExperiment(context.Background(), name, arch.Default(),
			harness.ExpOptions{Scale: 0.002, Seed: 5}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for i, p := range sharedPrograms() {
		if p != progs[i] {
			t.Errorf("%s: the runs left a different program in the memo", p.Name)
		}
		if !bytes.Equal(isa.EncodeProgram(p), before[i]) {
			t.Errorf("%s: the runs changed the shared program", p.Name)
		}
	}
}
