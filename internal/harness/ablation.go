package harness

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/kernels"
	"repro/internal/layout"
	"repro/internal/workloads"
)

// BarrierAblation reproduces the paper's Section IV-C / VI-A discussion of
// software barriers as an alternative to hardware flow control, on the
// count benchmark (the most bandwidth-contested one):
//
//   - millipede:            hardware flow control (the paper's design)
//   - no-flow-control:      neither barriers nor flow control
//   - barrier-every-1:      a software barrier after every record — prevents
//     premature evictions but pushes MIMD toward SIMD-like lockstep
//   - barrier-every-512:    Map-task-granularity barriers (128 rows, far
//     beyond the 16-entry buffer) — "too infrequent to be effective",
//     behaving like no-flow-control
//
// Values are performance normalized to Millipede (higher is better).
func BarrierAblation(ctx context.Context, p arch.Params, scale float64, seed uint64) (*Figure, error) {
	if seed == 0 {
		seed = Seed
	}
	b := workloads.CountBench()
	records := RecordsFor(b, scale)
	f := &Figure{
		Name:   "Barrier ablation (count): performance normalized to Millipede's hardware flow control",
		Series: []string{"millipede", "no-flow-control", "barrier-every-1", "barrier-every-512"},
	}
	// One run per series, in series order; the four are independent, so
	// they share the worker pool and each writes only its own slot.
	run := func(a string) (int64, error) {
		r, _, err := Run(a, b, p, records, Options{Seed: seed})
		return int64(r.Time), err
	}
	times := make([]int64, len(f.Series))
	err := runJobs(ctx, len(times), func(i int) (err error) {
		switch i {
		case 0:
			times[i], err = run(ArchMillipede)
		case 1:
			times[i], err = run(ArchMillipedeNoFC)
		case 2:
			times[i], err = runBarrierVariant(p, b, 1, records, seed)
		case 3:
			times[i], err = runBarrierVariant(p, b, 512, records, seed)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	row := Row{Bench: "count", Values: map[string]float64{}}
	for i, s := range f.Series {
		row.Values[s] = float64(times[0]) / float64(times[i])
	}
	f.Rows = append(f.Rows, row)
	return f, nil
}

// runBarrierVariant runs count-with-barriers on a no-flow-control Millipede
// processor and verifies the result against count's golden reference (the
// barrier must not change results).
func runBarrierVariant(p arch.Params, b *workloads.Benchmark, interval, records int, seed uint64) (int64, error) {
	q := p
	q.FlowControl = false
	k := kernels.CountBarrier(interval)
	lay := layout.Layout{
		RowBytes: q.DRAM.RowBytes, Corelets: q.Corelets, Contexts: q.Contexts,
		Interleave: layout.Slab,
	}
	if err := lay.Validate(); err != nil {
		return 0, err
	}
	sl, err := kernels.LocalState(k, q.LocalBytes, q.Contexts)
	if err != nil {
		return 0, err
	}
	args := kernels.ArgsAndConsts(k, lay.Walk(), sl, records)
	pr, err := core.NewProcessor(q, energy.Default(), core.Launch{
		Prog: k.Prog, Interleave: layout.Slab,
		Sources: b.Sources(q.Threads(), records, seed), Args: args,
	})
	if err != nil {
		return 0, err
	}
	r, err := pr.Run(0)
	if err != nil {
		return 0, err
	}
	got := workloads.ExtractStates(b, sl, lay, pr.ReadState)
	if err := b.Verify(got, q.Threads(), records, seed); err != nil {
		return 0, fmt.Errorf("harness: barrier variant changed results: %w", err)
	}
	return int64(r.Time), nil
}

// WarpWidthSweep examines Variable Warp Sizing's design space: the paper
// reports VWS "always chooses 4-wide warps" for BMLAs because their
// 70-/30+ data-dependent branches leave under 25% probability that even 4
// threads agree. The sweep runs the VWS organization at warp widths 4, 8,
// 16, and 32 (32 = one slice, the plain GPGPU front-end) on the branchy
// benchmarks and reports performance normalized to width 32.
func WarpWidthSweep(ctx context.Context, p arch.Params, scale float64, seed uint64) (*Figure, error) {
	widths := []int{4, 8, 16, 32}
	f := &Figure{Name: "VWS warp-width sweep: performance normalized to 32-wide (plain GPGPU front-end)"}
	for _, w := range widths {
		f.Series = append(f.Series, fmt.Sprintf("%d-wide", w))
	}
	benches := []*workloads.Benchmark{
		workloads.CountBench(), workloads.SampleBench(), workloads.NBayesBench(), workloads.ClassifyBench(),
	}
	// Run i is benchmark i/len(widths) at width widths[i%len(widths)].
	times := make([]float64, len(benches)*len(widths))
	err := runJobs(ctx, len(times), func(i int) error {
		b := benches[i/len(widths)]
		q := p
		q.VWSWarpWidth = widths[i%len(widths)]
		r, _, err := Run(ArchVWS, b, q, RecordsFor(b, scale), Options{Seed: seed})
		times[i] = float64(r.Time)
		return err
	})
	if err != nil {
		return nil, err
	}
	for bi, b := range benches {
		t := times[bi*len(widths) : (bi+1)*len(widths)]
		row := Row{Bench: b.Name(), Values: map[string]float64{}}
		for wi, w := range widths {
			row.Values[fmt.Sprintf("%d-wide", w)] = t[len(t)-1] / t[wi] // the last width is 32
		}
		f.Rows = append(f.Rows, row)
	}
	f.geomeans()
	return f, nil
}

// ResidencyStudy quantifies Section IV-E's argument: if the host had to
// copy the input into die-stacked memory for every run, BMLAs would become
// host-channel-bound and die-stacking bandwidth would be irrelevant for
// *any* PNM architecture. The study compares one Millipede kernel execution
// against the modeled copy-in over a host channel (PCIe-class bandwidth)
// and reports the break-even reuse count — how many (chained) MapReductions
// must touch resident data before the copy-in amortizes to under 10% —
// the Spark-like residency the paper assumes.
func ResidencyStudy(ctx context.Context, p arch.Params, hostBandwidthGBs float64, scale float64, seed uint64) (*Figure, error) {
	if hostBandwidthGBs <= 0 {
		return nil, fmt.Errorf("harness: bad host bandwidth %g", hostBandwidthGBs)
	}
	f := &Figure{
		Name:   fmt.Sprintf("Residency study (Sec. IV-E): one-time copy-in over a %.0f GB/s host channel", hostBandwidthGBs),
		Series: []string{"kernel-us", "copyin-us", "copyin/kernel", "reuses-for-10pct"},
	}
	benches := []*workloads.Benchmark{workloads.CountBench(), workloads.NBayesBench(), workloads.GDABench()}
	res := make([]RunResult, len(benches))
	err := runJobs(ctx, len(res), func(i int) (err error) {
		res[i], _, err = Run(ArchMillipede, benches[i], p, RecordsFor(benches[i], scale), Options{Seed: seed})
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, r := range res {
		kernelUS := float64(r.Time) / 1e6
		copyUS := float64(r.Words) * 4 / (hostBandwidthGBs * 1e9) * 1e6
		reuses := copyUS / (0.1 * kernelUS)
		if reuses < 1 {
			reuses = 1
		}
		f.Rows = append(f.Rows, Row{Bench: benches[i].Name(), Values: map[string]float64{
			"kernel-us":        kernelUS,
			"copyin-us":        copyUS,
			"copyin/kernel":    copyUS / kernelUS,
			"reuses-for-10pct": reuses,
		}})
	}
	return f, nil
}
