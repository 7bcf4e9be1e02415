package harness

import (
	"context"
	"fmt"

	"repro/internal/arch"
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
	b := workloads.CountBench()
	records := RecordsFor(b, scale)
	f := &Figure{
		Name:   "Barrier ablation (count): performance normalized to Millipede's hardware flow control",
		Series: []string{"millipede", "no-flow-control", "barrier-every-1", "barrier-every-512"},
	}
	// One run per series, in series order. The barrier programs verify
	// against count's golden reference: a barrier must not change results.
	res, err := runSpecs(ctx, []spec{
		{ArchMillipede, b, p, records, seed},
		{ArchMillipedeNoFC, b, p, records, seed},
		{ArchMillipedeNoFC, workloads.CountBarrierBench(1), p, records, seed},
		{ArchMillipedeNoFC, workloads.CountBarrierBench(512), p, records, seed},
	})
	if err != nil {
		return nil, err
	}
	row := Row{Bench: "count", Values: map[string]float64{}}
	for i, s := range f.Series {
		row.Values[s] = float64(res[0].Time) / float64(res[i].Time)
	}
	f.Rows = append(f.Rows, row)
	return f, nil
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
	// The last width, 32, is the base.
	err := f.sweep(ctx, ArchVWS, benches, p, scale, seed, len(widths)-1, func(q *arch.Params, i int) {
		q.VWSWarpWidth = widths[i]
	})
	if err != nil {
		return nil, err
	}
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
	specs := make([]spec, len(benches))
	for i, b := range benches {
		specs[i] = spec{ArchMillipede, b, p, RecordsFor(b, scale), seed}
	}
	res, err := runSpecs(ctx, specs)
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
