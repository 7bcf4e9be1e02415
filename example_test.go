package millipede_test

import (
	"fmt"

	millipede "repro"
)

// The smallest end-to-end use: run one BMLA benchmark on the Millipede
// processor and inspect the verified measurement.
func ExampleRunBenchmark() {
	cfg := millipede.DefaultConfig()
	res, err := millipede.RunBenchmark(millipede.ArchMillipede, "variance", cfg, 64)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Bench, res.Time > 0, res.Insts > 0)
	// Output: variance true true
}

// Compare two architectures on the same verified workload.
func ExampleRunBenchmark_comparison() {
	cfg := millipede.DefaultConfig()
	a, _ := millipede.RunBenchmark(millipede.ArchGPGPU, "count", cfg, 128)
	b, _ := millipede.RunBenchmark(millipede.ArchMillipede, "count", cfg, 128)
	fmt.Println("millipede at least as fast:", b.Time <= a.Time)
	// Output: millipede at least as fast: true
}

// RunReduced returns the benchmark's actual application output after the
// host-side final Reduce: for count, a histogram covering every record.
func ExampleRunReduced() {
	cfg := millipede.DefaultConfig()
	_, out, err := millipede.RunReduced(millipede.ArchMillipede, "count", cfg, 32)
	if err != nil {
		panic(err)
	}
	var total uint32
	for _, v := range out[:32] {
		total += v
	}
	fmt.Println(total == uint32(32*cfg.Threads()))
	// Output: true
}

// Assemble compiles a kernel in the repository's assembly dialect; the
// program reports its encoded footprint against the 4 KB broadcast budget.
func ExampleAssemble() {
	prog, err := millipede.Assemble("demo", `
		csrr r1, tid
		slli r2, r1, 2
		sw   r1, 0(r2)
		halt
	`)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(prog.Insts), "instructions")
	// Output: 4 instructions
}

// The experiment registry is the uniform way to reproduce any table or
// figure of the paper's evaluation: look the experiment up by name, run it
// at a chosen scale, and render the result.
func ExampleRunExperiment() {
	cfg := millipede.DefaultConfig()
	res, err := millipede.RunExperiment("timeline", cfg, millipede.WithScale(0.02))
	if err != nil {
		panic(err)
	}
	found := false
	for _, e := range millipede.Experiments() {
		if e.Name == "timeline" {
			found = true
		}
	}
	fmt.Println(found, len(res.Figures) == 1, len(res.Render()) > 0)
	// Output: true true true
}

// Run options layer observability onto a run without touching Config: here
// a bounded trace sink captures the event stream for Chrome-trace export.
func ExampleWithTraceSink() {
	cfg := millipede.DefaultConfig()
	l := millipede.NewTraceLog(4096)
	_, err := millipede.RunBenchmark(millipede.ArchMillipede, "count", cfg, 64,
		millipede.WithTraceSink(l), millipede.WithTraceCorelet(0))
	if err != nil {
		panic(err)
	}
	data, err := l.ChromeJSON(1e12 / cfg.ComputeHz)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(l.Events()) > 0, len(data) > 0)
	// Output: true true
}

// Reproduce a paper figure at reduced scale: Figure 7's speedup over
// prefetch buffer counts, one row per benchmark.
func ExampleRunExperiment_figure() {
	cfg := millipede.DefaultConfig()
	res, err := millipede.RunExperiment("fig7", cfg, millipede.WithScale(0.02))
	if err != nil {
		panic(err)
	}
	fig := res.Figures[0]
	fmt.Println(len(fig.Rows) == 8, len(fig.Series) == 5)
	// Output: true true
}
