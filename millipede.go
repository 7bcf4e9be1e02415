// Package millipede is the public API of this repository: a Go
// reproduction of "Millipede: Die-Stacked Memory Optimizations for Big Data
// Machine Learning Analytics" (Nitin, Thottethodi, Vijaykumar; IPDPS 2018).
//
// The package wraps a cycle-level processing-near-memory simulation stack —
// die-stacked DRAM with an FR-FCFS controller, MIMD corelets, Millipede's
// row-oriented flow-controlled prefetch buffer, GPGPU/VWS SIMT models, a
// conventional multicore, the eight BMLA benchmarks of the paper's Table
// II, and the harness that regenerates every table and figure of the
// paper's evaluation.
//
// Quick start:
//
//	cfg := millipede.DefaultConfig()
//	res, err := millipede.RunBenchmark(millipede.ArchMillipede, "kmeans", cfg, 512)
//	fmt.Println(res.Time, res.Energy.TotalJ())
//
// Reproduce any of the paper's tables and figures through the experiment
// registry:
//
//	for _, e := range millipede.Experiments() {
//		fmt.Println(e.Name, "—", e.Description)
//	}
//	res, err := millipede.RunExperiment("fig3", cfg, millipede.WithScale(0.25))
//	fmt.Print(res.Render())
//
// # Configuration vs run options
//
// The API splits "what hardware" from "how to run it". Config (a struct)
// describes the simulated machine — Table III's geometry, clocks, and
// memory parameters — and is passed by value so a caller can adjust fields.
// RunOption functional options describe per-run concerns that leave the
// hardware untouched: input scale (WithScale), dataset seed (WithSeed),
// event tracing (WithTraceSink), and cycle-domain timeline sampling
// (WithTimeline). Options compose, and each entry point accepts only the
// options that are meaningful for it (the rest are ignored).
//
// Every RunBenchmark result is verified against a host-side golden
// MapReduce reference before it is returned; a timing number can never come
// from a functionally wrong simulation. Observability — the Result.Metrics
// snapshot, timelines, and traces — reads counters the models maintain
// anyway, so enabling it never changes simulated timing.
package millipede

import (
	"context"
	"sync"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Config is the Table III hardware configuration shared by all PNM
// architecture models. Obtain one from DefaultConfig and adjust fields.
type Config = arch.Params

// DefaultConfig returns the paper's Table III configuration: 32 corelets x
// 4 contexts at 700 MHz, 16-entry prefetch buffer, 4 KB local memories,
// one 128-bit 1.2 GHz die-stacked DRAM channel with 2 KB rows.
func DefaultConfig() Config { return arch.Default() }

// EnergyParams are the per-event energy constants of the GPUWattch-analog
// model.
type EnergyParams = energy.Params

// DefaultEnergy returns the calibrated energy constants (6 pJ/bit
// die-stacked streaming, 70 pJ/bit off-chip).
func DefaultEnergy() EnergyParams { return energy.Default() }

// Architecture identifiers accepted by RunBenchmark.
const (
	ArchMillipede     = harness.ArchMillipede     // row-oriented, flow-controlled prefetch
	ArchMillipedeNoFC = harness.ArchMillipedeNoFC // ablation: no flow control
	ArchMillipedeRM   = harness.ArchMillipedeRM   // with compute-memory rate matching
	ArchSSMC          = harness.ArchSSMC          // plain sea-of-simple-cores + block prefetch
	ArchGPGPU         = harness.ArchGPGPU         // 32-wide SIMT SM + block prefetch
	ArchVWS           = harness.ArchVWS           // variable warp sizing (4-wide)
	ArchVWSRow        = harness.ArchVWSRow        // VWS + Millipede's row prefetch
	ArchMulticore     = harness.ArchMulticore     // conventional 8-core Xeon-like system
)

// Architectures lists the PNM architecture identifiers.
func Architectures() []string { return harness.Architectures() }

// benchNames caches the benchmark name list: the set is fixed at compile
// time, so there is no reason to re-walk workloads.All() on every call.
var benchNames struct {
	once  sync.Once
	names []string
}

// Benchmarks lists the eight BMLA benchmark names in the paper's Table IV
// order. The returned slice is a fresh copy each call.
func Benchmarks() []string {
	benchNames.once.Do(func() {
		for _, b := range workloads.All() {
			benchNames.names = append(benchNames.names, b.Name())
		}
	})
	return append([]string(nil), benchNames.names...)
}

// Result is one verified {architecture x benchmark} measurement. Its
// Metrics field is the uniform registry snapshot of every component
// counter; Timeline carries the cycle-sampled series when WithTimeline was
// used.
type Result = harness.RunResult

// Figure is a reproduced table or figure.
type Figure = harness.Figure

// MetricsSnapshot is the sorted, named sample set every Result carries.
type MetricsSnapshot = metrics.Snapshot

// Timeline is a cycle-domain gauge sampler's output (see WithTimeline).
type Timeline = metrics.Timeline

// TraceLog is a bounded in-memory event log for WithTraceSink; render it
// with Render or export it with ChromeJSON.
type TraceLog = trace.Log

// NewTraceLog returns a trace log retaining at most max events.
func NewTraceLog(max int) *TraceLog { return trace.NewLog(max) }

// RunOption is a per-run functional option. Options configure how one run
// or experiment executes (input scale, seed, observability sinks) without
// touching the Config hardware description.
type RunOption func(*runConfig)

type runConfig struct {
	scale         float64
	seed          uint64
	trace         *trace.Log
	traceCorelet  int
	timelineEvery uint64
	hostBW        float64
}

func applyOptions(opts []RunOption) runConfig {
	var rc runConfig
	for _, o := range opts {
		o(&rc)
	}
	return rc
}

// WithScale multiplies every benchmark's default input size in experiments
// (RunExperiment); 1.0 is paper scale. Ignored by fixed-record entry points.
func WithScale(scale float64) RunOption { return func(rc *runConfig) { rc.scale = scale } }

// WithSeed overrides the dataset seed (default: the canonical experiment
// seed). The golden-reference verification uses the same seed, so any seed
// still yields a verified run.
func WithSeed(seed uint64) RunOption { return func(rc *runConfig) { rc.seed = seed } }

// WithTraceSink records the event stream of one corelet plus the prefetch
// buffer, memory fabric, and DFS controller into l (millipede-family
// architectures only). Combine with WithTraceCorelet to pick the corelet.
func WithTraceSink(l *TraceLog) RunOption { return func(rc *runConfig) { rc.trace = l } }

// WithTraceCorelet selects which corelet WithTraceSink follows (default 0).
func WithTraceCorelet(id int) RunOption { return func(rc *runConfig) { rc.traceCorelet = id } }

// WithTimeline samples observability gauges (prefetch occupancy, row hit
// rate, queue depth, compute clock) every everyNCycles compute cycles into
// Result.Timeline (millipede-family architectures only).
func WithTimeline(everyNCycles uint64) RunOption {
	return func(rc *runConfig) { rc.timelineEvery = everyNCycles }
}

// WithHostBandwidth sets the host-link bandwidth in GB/s assumed by the
// residency experiment (default 16).
func WithHostBandwidth(gbs float64) RunOption { return func(rc *runConfig) { rc.hostBW = gbs } }

func (rc runConfig) harnessOptions() harness.Options {
	return harness.Options{
		Seed:          rc.seed,
		Trace:         rc.trace,
		TraceCorelet:  rc.traceCorelet,
		TimelineEvery: rc.timelineEvery,
	}
}

// RunBenchmark executes the named BMLA benchmark on the named architecture
// with recordsPerThread records per hardware thread, verifies the simulated
// live state against the golden MapReduce reference, and returns timing,
// energy, and characterization metrics. Options: WithSeed, WithTraceSink,
// WithTraceCorelet, WithTimeline.
func RunBenchmark(archName, bench string, cfg Config, recordsPerThread int, opts ...RunOption) (Result, error) {
	res, _, err := RunReduced(archName, bench, cfg, recordsPerThread, opts...)
	return res, err
}

// ExperimentInfo names and describes one registered experiment.
type ExperimentInfo = harness.ExperimentInfo

// ExperimentResult is the uniform output of RunExperiment: zero or more
// figures plus optional free text; Render prints it as milliexp does.
type ExperimentResult = harness.ExperimentResult

// Experiments lists every registered experiment — the paper's tables and
// figures plus this repository's studies — in presentation order.
func Experiments() []ExperimentInfo { return harness.Experiments() }

// RunExperiment runs the named experiment (see Experiments for the list).
// Options: WithScale, WithHostBandwidth (residency), WithTimeline
// (timeline).
func RunExperiment(name string, cfg Config, opts ...RunOption) (ExperimentResult, error) {
	return RunExperimentContext(context.Background(), name, cfg, opts...)
}

// RunExperimentContext is RunExperiment with explicit cancellation: when ctx
// is cancelled (or its deadline passes) the experiment's sweep stops claiming
// further simulations and returns ctx.Err() instead of running to
// completion. In-flight cycle loops still finish — cancellation is checked
// between runs, never inside the deterministic hot path.
func RunExperimentContext(ctx context.Context, name string, cfg Config, opts ...RunOption) (ExperimentResult, error) {
	rc := applyOptions(opts)
	return harness.RunExperiment(ctx, name, cfg, harness.ExpOptions{
		Scale:            rc.scale,
		HostBandwidthGBs: rc.hostBW,
		TimelineEvery:    rc.timelineEvery,
	})
}

// oneFigure dispatches a single-figure experiment through the registry —
// the pre-registry figure functions below are one-line wrappers over it.
func oneFigure(name string, cfg Config, scale float64) (*Figure, error) {
	res, err := RunExperiment(name, cfg, WithScale(scale))
	if err != nil {
		return nil, err
	}
	return res.Figures[0], nil
}

// Figure3 reproduces the paper's Figure 3 (performance normalized to
// GPGPU). scale multiplies each benchmark's default input size; 1.0 is the
// paper-scale run used by cmd/milliexp, smaller values are proportionally
// faster.
func Figure3(cfg Config, scale float64) (*Figure, error) { return oneFigure("fig3", cfg, scale) }

// Figure4 reproduces Figure 4 (energy normalized to GPGPU); the second
// figure carries the core/DRAM/leakage breakdown.
func Figure4(cfg Config, scale float64) (*Figure, *Figure, error) {
	res, err := RunExperiment("fig4", cfg, WithScale(scale))
	if err != nil {
		return nil, nil, err
	}
	return res.Figures[0], res.Figures[1], nil
}

// Figure5 reproduces Figure 5 (Millipede node vs conventional multicore).
func Figure5(cfg Config, scale float64) (*Figure, error) { return oneFigure("fig5", cfg, scale) }

// Figure6 reproduces Figure 6 (speedup vs system size).
func Figure6(cfg Config, scale float64) (*Figure, error) { return oneFigure("fig6", cfg, scale) }

// Figure7 reproduces Figure 7 (speedup vs prefetch buffer count).
func Figure7(cfg Config, scale float64) (*Figure, error) { return oneFigure("fig7", cfg, scale) }

// ChannelSweep measures Millipede across 1/2/4 die-stack memory channels on
// every benchmark, normalized to the single-channel configuration.
func ChannelSweep(cfg Config, scale float64) (*Figure, error) {
	return oneFigure("channels", cfg, scale)
}

// TableIV reproduces Table IV (benchmark characteristics).
func TableIV(cfg Config, scale float64) (*Figure, error) { return oneFigure("table4", cfg, scale) }

// TableIII renders the hardware configuration.
func TableIII(cfg Config) string {
	res, err := RunExperiment("table3", cfg)
	if err != nil {
		return "" // unreachable: table3 renders without simulating
	}
	return res.Text
}

// TableII renders the application-behavior summary.
func TableII() string {
	res, err := RunExperiment("table2", cfg0())
	if err != nil {
		return "" // unreachable: table2 renders without simulating
	}
	return res.Text
}

// cfg0 is the config passed to experiments that ignore it.
func cfg0() Config { return DefaultConfig() }

// Program is an assembled kernel.
type Program = isa.Program

// Assemble translates kernel assembly source (see internal/asm for the
// dialect) into a program runnable on any of the architecture models.
func Assemble(name, src string) (*Program, error) { return asm.Assemble(name, src) }

// RunReduced is RunBenchmark plus the host-side final Reduce over the
// verified per-thread live states — the benchmark's actual output (e.g.,
// kmeans' per-centroid counts and coordinate sums). The meaning of each
// output word is benchmark-specific; see internal/workloads.
func RunReduced(archName, bench string, cfg Config, recordsPerThread int, opts ...RunOption) (Result, []uint32, error) {
	b, err := workloads.ByName(bench)
	if err != nil {
		return Result{}, nil, err
	}
	return harness.Run(archName, b, cfg, recordsPerThread, applyOptions(opts).harnessOptions())
}

// BarrierAblation reproduces the paper's Section IV-C software-barrier
// discussion on the count benchmark: hardware flow control vs no flow
// control vs software barriers at record and Map-task granularity.
func BarrierAblation(cfg Config, scale float64) (*Figure, error) {
	return oneFigure("ablation", cfg, scale)
}

// CharacteristicsStudy quantifies the paper's first contribution (Sections
// III-C/III-D): the compact, row-dense count benchmark versus the
// non-compact join anti-benchmark on the same Millipede processor. Note the
// scale here is applied as given; the registry's "characteristics"
// experiment divides its scale by 4 first (milliexp's historical default).
func CharacteristicsStudy(cfg Config, scale float64) (*Figure, error) {
	return harness.CharacteristicsStudy(context.Background(), cfg, scale, 0)
}

// WarpWidthSweep examines the VWS design space: performance at warp widths
// 4..32 on the branchy benchmarks, the paper's "VWS always chooses 4-wide
// warps" observation.
func WarpWidthSweep(cfg Config, scale float64) (*Figure, error) {
	return oneFigure("warpwidth", cfg, scale)
}

// ResidencyStudy quantifies Section IV-E: the cost of per-run host copy-in
// versus kernel time, and the data-reuse count after which residency makes
// it negligible.
func ResidencyStudy(cfg Config, hostBandwidthGBs, scale float64) (*Figure, error) {
	res, err := RunExperiment("residency", cfg, WithScale(scale), WithHostBandwidth(hostBandwidthGBs))
	if err != nil {
		return nil, err
	}
	return res.Figures[0], nil
}

// KMeansIteration runs one k-means MapReduction on Millipede with the given
// centroids and returns the updated centroids — chain it for full iterative
// k-means over the resident dataset.
func KMeansIteration(cfg Config, centroids [][]float32, recordsPerThread int) ([][]float32, Result, error) {
	return harness.KMeansIteration(cfg, centroids, recordsPerThread)
}

// CentroidShift is the mean Euclidean distance between two centroid sets;
// sets of different shapes are an error.
func CentroidShift(a, b [][]float32) (float64, error) { return harness.CentroidShift(a, b) }

// NodeResult is a full multi-processor Millipede node run.
type NodeResult = harness.NodeResult

// RunNode simulates a full Millipede node: `processors` Millipede
// processors (each with its own die-stacked channel) execute independent
// shards concurrently, and the host performs the per-node Reduce. The
// result's Time is the measured makespan including cross-processor load
// imbalance. Options: WithSeed.
func RunNode(bench string, cfg Config, processors, recordsPerThread int, opts ...RunOption) (NodeResult, error) {
	b, err := workloads.ByName(bench)
	if err != nil {
		return NodeResult{}, err
	}
	seed := applyOptions(opts).seed
	if seed == 0 {
		seed = harness.Seed
	}
	return harness.RunNode(context.Background(), cfg, b, processors, recordsPerThread, seed)
}

// DFSSample is one rate-matching controller decision (compute cycle and
// the frequency chosen).
type DFSSample = core.DFSSample

// RateTrace runs a benchmark on rate-matched Millipede (ArchMillipedeRM,
// which turns flow control on) and returns the DFS clock trajectory
// (frequency changes only) with the verified measurement.
func RateTrace(bench string, cfg Config, recordsPerThread int) ([]DFSSample, Result, error) {
	res, err := RunBenchmark(ArchMillipedeRM, bench, cfg, recordsPerThread)
	return res.DFS, res, err
}
