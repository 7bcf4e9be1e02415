package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/workloads"
)

func nodeParams() arch.Params {
	p := arch.Default()
	p.Corelets = 8
	p.Contexts = 2
	p.PrefetchEntries = 8
	return p
}

func TestNodeRunsAndReduces(t *testing.T) {
	p := nodeParams()
	b := workloads.CountBench()
	const procs, records = 4, 64
	r, err := RunNode(context.Background(), p, b, procs, records, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ProcessorTimes) != procs {
		t.Fatalf("processor times = %d", len(r.ProcessorTimes))
	}
	for _, pt := range r.ProcessorTimes {
		if pt <= 0 || pt > r.Time {
			t.Errorf("processor time %d outside makespan %d", pt, r.Time)
		}
	}
	// All records must be accounted for in the node-level histogram.
	var total uint64
	for _, v := range r.Output[:32] {
		total += uint64(v)
	}
	want := uint64(procs * p.Threads() * records)
	if total != want {
		t.Errorf("node histogram total %d, want %d", total, want)
	}
	if r.Energy.TotalPJ() <= 0 || r.Insts == 0 {
		t.Error("empty node accounting")
	}
}

func TestNodeImbalanceMeasured(t *testing.T) {
	p := nodeParams()
	b := workloads.SampleBench() // bursty, data-dependent work
	r, err := RunNode(context.Background(), p, b, 4, 256, 11)
	if err != nil {
		t.Fatal(err)
	}
	imb := r.Imbalance()
	if imb < 0 || imb >= 1 {
		t.Errorf("imbalance = %v", imb)
	}
	// Different shards must not be perfectly identical in runtime.
	if imb == 0 {
		t.Error("no cross-processor load imbalance on a bursty workload")
	}
}

func TestNodeDeterministic(t *testing.T) {
	p := nodeParams()
	b := workloads.VarianceBench()
	r1, err := RunNode(context.Background(), p, b, 2, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunNode(context.Background(), p, b, 2, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time {
		t.Errorf("node runtime not deterministic: %d vs %d", r1.Time, r2.Time)
	}
	for i := range r1.Output {
		if r1.Output[i] != r2.Output[i] {
			t.Fatal("node output not deterministic")
		}
	}
}

func TestNodeRejectsBadConfig(t *testing.T) {
	if _, err := RunNode(context.Background(), nodeParams(), workloads.CountBench(), 0, 8, 1); err == nil {
		t.Error("zero processors accepted")
	}
}

// pinnedNodeHash is the SHA-256 of RunNode's makespan, per-processor times,
// energy, instruction count and reduced output for every kernel on 4
// processors of 8x2 corelets at 64 records per thread, and for the node
// experiment's run (8 processors of the default geometry, count, 1024
// records per thread, seed Seed).
const pinnedNodeHash = "d0d125a43530edff78d60c3f5520aafdbfc09c8479ab38af615d3947ec19c3c7"

// TestRunNodePinned pins RunNode's full result, so a processor's result
// must land in its own slot and the node Reduce must fold every processor's
// states in processor order (the float kernels' outputs depend on it).
func TestRunNodePinned(t *testing.T) {
	h := sha256.New()
	add := func(name string, p arch.Params, b *workloads.Benchmark, procs, records int, seed uint64) {
		r, err := RunNode(context.Background(), p, b, procs, records, seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(h, "%s time=%d procs=%v\nenergy=%+v insts=%d\nout=%v\n",
			name, r.Time, r.ProcessorTimes, r.Energy, r.Insts, r.Output)
	}
	for _, b := range workloads.All() {
		add(b.Name(), nodeParams(), b, 4, 64, 7)
	}
	add("node-experiment", arch.Default(), workloads.CountBench(), 8, 1024, Seed)
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedNodeHash {
		t.Errorf("RunNode results changed: hash %s, want %s", got, pinnedNodeHash)
	}
}
