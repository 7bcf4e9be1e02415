// Package harness runs the paper's evaluation (Section VI): one function
// per table and figure, each returning structured rows that cmd/milliexp
// renders and bench_test.go regenerates under `go test -bench`.
//
// Every run is verified against the golden MapReduce reference before its
// timing or energy numbers are accepted, so a performance result can never
// come from a functionally wrong execution.
package harness

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/multicore"
	"repro/internal/sim"
	"repro/internal/simt"
	"repro/internal/ssmc"
	"repro/internal/stack"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Architecture identifiers used across figures.
const (
	ArchMillipede     = "millipede"
	ArchMillipedeNoFC = "millipede-no-flow-control"
	ArchMillipedeRM   = "millipede-rate-match"
	ArchSSMC          = "ssmc"
	ArchGPGPU         = "gpgpu"
	ArchVWS           = "vws"
	ArchVWSRow        = "vws-row"
	ArchMulticore     = "multicore"
)

// Architectures lists the PNM architectures in Figure 3/4 presentation
// order.
func Architectures() []string {
	return []string{ArchGPGPU, ArchVWS, ArchSSMC, ArchMillipedeNoFC, ArchVWSRow, ArchMillipede, ArchMillipedeRM}
}

// RunResult is one {architecture x benchmark} measurement.
type RunResult struct {
	Arch, Bench     string
	Time            sim.Time
	Energy          energy.Breakdown
	Insts           uint64
	Words           uint64
	InstsPerWord    float64
	BranchesPerInst float64
	RowMissRate     float64
	DRAMBytes       uint64
	FinalHz         float64
	// Cycles is the number of compute-clock cycles the model simulated —
	// the numerator of the simulator-throughput metric recorded in
	// BENCH_*.json (simulated cycles per wall-clock second).
	Cycles uint64
	// Memory-controller contention counters, aggregated across channels:
	// ticks with waiting-but-unissuable requests, the deepest queue
	// occupancy seen on any channel, and enqueue attempts bounced off a
	// full queue.
	MemStallCycles  uint64
	MemMaxOccupancy int
	MemRejected     uint64
	// Metrics is the uniform registry snapshot of every component counter,
	// plus run-level ("run.*") and energy ("energy.*") samples the harness
	// adds. Populated by every architecture.
	Metrics metrics.Snapshot
	// Timeline holds the cycle-sampled gauge series when Options.TimelineEvery
	// was set (millipede-family architectures only); nil otherwise.
	Timeline *metrics.Timeline
	// CycleAllocs and CycleBytes count heap allocations made inside the
	// model's cycle loop (zero in steady state by design; benchreport
	// records them per run as the zero-alloc gate).
	CycleAllocs uint64
	CycleBytes  uint64
	// SkippedEdges and SkipWindows report the engine's quiescence
	// fast-forward activity (informational only: results are bit-identical
	// with skipping off).
	SkippedEdges uint64
	SkipWindows  uint64
	// Stack is the die-stacked capacity backend's counter block (hit rate,
	// backing traffic, writebacks); zero (Mode "") on the paper's
	// pass-through machine and on the multicore baseline, which has no die
	// stack at all.
	Stack stack.Stats
}

// setMemStats copies the controller counters out of a processor result.
func (r *RunResult) setMemStats(m core.MemStats) {
	r.MemStallCycles = m.StallCycles
	r.MemMaxOccupancy = m.MaxOccupancy
	r.MemRejected = m.Rejected
}

// Seed is the dataset seed used by all experiments.
const Seed = 20180521 // IPDPS 2018

// Options tunes one run without changing its architecture configuration.
// The zero value reproduces the historical behavior exactly.
type Options struct {
	// Seed overrides the dataset seed; zero means the canonical Seed.
	Seed uint64
	// Trace, when non-nil, receives the event stream of one corelet plus the
	// prefetch buffer and memory fabric (millipede-family architectures
	// only). TraceCorelet selects the traced corelet.
	Trace        *trace.Log
	TraceCorelet int
	// TimelineEvery enables the cycle-domain gauge sampler at the given
	// period (millipede-family architectures only); zero disables it.
	TimelineEvery uint64
	// NoSkip disables the engine's quiescence time skipping
	// (arch.Params.NoSkip), forcing edge-by-edge dispatch. It is a
	// simulator-speed knob: results are bit-identical either way.
	NoSkip bool
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return Seed
	}
	return o.Seed
}

// Run executes benchmark b on the named architecture with per-thread record
// count records, verifies the live state against the golden reference, and
// returns the measurement.
func Run(archName string, b *workloads.Benchmark, p arch.Params, records int) (RunResult, error) {
	res, _, err := RunWith(archName, b, p, records, Options{})
	return res, err
}

// RunReduced is Run plus the host-side final Reduce over the verified
// per-thread live states (Section IV-D) — the benchmark's actual output.
func RunReduced(archName string, b *workloads.Benchmark, p arch.Params, records int) (RunResult, []uint32, error) {
	return RunWith(archName, b, p, records, Options{})
}

// runSeeded is Run with a dataset-seed override (zero means the canonical
// Seed); the figure generators thread ExpOptions.Seed through it.
func runSeeded(archName string, b *workloads.Benchmark, p arch.Params, records int, seed uint64) (RunResult, error) {
	res, _, err := RunWith(archName, b, p, records, Options{Seed: seed})
	return res, err
}

// attachMetrics stores the model's registry snapshot on the result after
// adding the run-level ("run.*") and energy ("energy.*") samples, so every
// RunResult carries one uniform snapshot regardless of architecture.
func (r *RunResult) attachMetrics(m metrics.Snapshot) {
	m.Put(metrics.Sample{Name: "run.time_ps", Kind: metrics.Counter, Value: float64(r.Time)})
	m.Put(metrics.Sample{Name: "run.cycles", Kind: metrics.Counter, Value: float64(r.Cycles)})
	m.Put(metrics.Sample{Name: "run.insts", Kind: metrics.Counter, Value: float64(r.Insts)})
	m.Put(metrics.Sample{Name: "run.final_hz", Kind: metrics.Gauge, Value: r.FinalHz})
	m.Put(metrics.Sample{Name: "energy.core_pj", Kind: metrics.Gauge, Value: r.Energy.CorePJ})
	m.Put(metrics.Sample{Name: "energy.dram_pj", Kind: metrics.Gauge, Value: r.Energy.DRAMPJ})
	m.Put(metrics.Sample{Name: "energy.leak_pj", Kind: metrics.Gauge, Value: r.Energy.LeakPJ})
	m.Put(metrics.Sample{Name: "energy.total_pj", Kind: metrics.Gauge, Value: r.Energy.TotalPJ()})
	r.Metrics = m
}

// RunWith is RunReduced with explicit Options (seed override, event trace,
// timeline sampling).
func RunWith(archName string, b *workloads.Benchmark, p arch.Params, records int, o Options) (RunResult, []uint32, error) {
	ep := energy.Default()
	seed := o.seed()
	if o.NoSkip {
		p.NoSkip = true
	}
	res := RunResult{Arch: archName, Bench: b.Name()}
	res.Words = uint64(p.Threads()) * uint64(b.StreamWords(records))
	var states [][]uint32

	// The golden reference re-streams each thread's Source through a bounded
	// buffer, so verification (like the launch) never materializes a stream.
	verify := func(sl kernels.StateLayout, lay layout.Layout, read workloads.StateReader) error {
		got := workloads.ExtractStates(b, sl, lay, read)
		states = got
		want := b.GoldenStatesStreamed(p.Threads(), records, seed)
		for th := range want {
			for i := range want[th] {
				if got[th][i] != want[th][i] {
					return fmt.Errorf("harness: %s/%s functional mismatch at thread %d word %d",
						archName, b.Name(), th, i)
				}
			}
		}
		return nil
	}

	fail := func(err error) (RunResult, []uint32, error) { return res, nil, err }
	switch archName {
	case ArchMillipede, ArchMillipedeNoFC, ArchMillipedeRM:
		q := p
		q.FlowControl = archName != ArchMillipedeNoFC
		q.RateMatch = archName == ArchMillipedeRM
		l, lay, sl, err := buildLaunch(b, q, layout.Slab, records, seed, false)
		if err != nil {
			return fail(err)
		}
		pr, err := core.NewProcessor(q, ep, l)
		if err != nil {
			return fail(err)
		}
		if o.Trace != nil {
			pr.EnableTrace(o.Trace, o.TraceCorelet)
		}
		if o.TimelineEvery > 0 {
			pr.EnableTimeline(o.TimelineEvery)
		}
		r, err := pr.Run(0)
		if err != nil {
			return fail(err)
		}
		if err := verify(sl, lay, pr.ReadState); err != nil {
			return fail(err)
		}
		res.Time, res.Energy, res.FinalHz = r.Time, r.Energy, r.FinalHz
		res.Insts = r.Cores.Instructions
		res.Cycles = r.ComputeCycles
		res.BranchesPerInst = ratio(r.Cores.CondBranches, r.Cores.Instructions)
		res.RowMissRate = r.DRAM.RowMissRate()
		res.DRAMBytes = r.DRAM.BytesRead
		res.setMemStats(r.Mem)
		res.Stack = r.Stack
		res.CycleAllocs, res.CycleBytes = r.Allocs, r.AllocBytes
		res.SkippedEdges, res.SkipWindows = r.SkippedEdges, r.SkipWindows
		res.Timeline = r.Timeline
		res.attachMetrics(r.Metrics)

	case ArchSSMC:
		l, lay, sl, err := buildLaunch(b, p, layout.Slab, records, seed, false)
		if err != nil {
			return fail(err)
		}
		pr, err := ssmc.NewProcessor(p, ep, l)
		if err != nil {
			return fail(err)
		}
		r, err := pr.Run(0)
		if err != nil {
			return fail(err)
		}
		if err := verify(sl, lay, pr.ReadState); err != nil {
			return fail(err)
		}
		res.Time, res.Energy, res.FinalHz = r.Time, r.Energy, p.ComputeHz
		res.Insts = r.Cores.Instructions
		res.Cycles = r.ComputeCycles
		res.BranchesPerInst = ratio(r.Cores.CondBranches, r.Cores.Instructions)
		res.RowMissRate = r.DRAM.RowMissRate()
		res.DRAMBytes = r.DRAM.BytesRead
		res.setMemStats(r.Mem)
		res.Stack = r.Stack
		res.CycleAllocs, res.CycleBytes = r.Allocs, r.AllocBytes
		res.SkippedEdges, res.SkipWindows = r.SkippedEdges, r.SkipWindows
		res.attachMetrics(r.Metrics)

	case ArchGPGPU, ArchVWS, ArchVWSRow:
		v := simt.GPGPU
		if archName == ArchVWS {
			v = simt.VWS
		} else if archName == ArchVWSRow {
			v = simt.VWSRow
		}
		l, lay, sl, err := buildLaunch(b, p, layout.Word, records, seed, true)
		if err != nil {
			return fail(err)
		}
		m, err := simt.NewSM(p, ep, v, l)
		if err != nil {
			return fail(err)
		}
		r, err := m.Run(0)
		if err != nil {
			return fail(err)
		}
		if err := verify(sl, lay, m.ReadShared); err != nil {
			return fail(err)
		}
		res.Time, res.Energy, res.FinalHz = r.Time, r.Energy, p.ComputeHz
		res.Insts = r.SM.ThreadInsts
		res.Cycles = r.ComputeCycles
		res.BranchesPerInst = ratio(r.SM.CondBranches, r.SM.ThreadInsts)
		res.RowMissRate = r.DRAM.RowMissRate()
		res.DRAMBytes = r.DRAM.BytesRead
		res.setMemStats(r.Mem)
		res.Stack = r.Stack
		res.CycleAllocs, res.CycleBytes = r.Allocs, r.AllocBytes
		res.SkippedEdges, res.SkipWindows = r.SkippedEdges, r.SkipWindows
		res.attachMetrics(r.Metrics)

	case ArchMulticore:
		c := multicore.DefaultConfig()
		c.NoSkip = p.NoSkip
		// Same total input as a p-geometry PNM run: the node comparison
		// (Figure 5) scales per-processor results by the processor count.
		mcRecords := records * p.Threads() / c.Threads()
		lay := layout.Layout{
			RowBytes: c.DRAM.RowBytes, Corelets: c.Cores, Contexts: c.SMT,
			Interleave: layout.Split, StreamWords: b.StreamWords(mcRecords),
		}
		if err := lay.Validate(); err != nil {
			return fail(err)
		}
		sl, err := kernels.LocalState(b.K, c.LocalBytes, c.SMT)
		if err != nil {
			return fail(err)
		}
		args := kernels.ArgsAndConsts(b.K, lay.Walk(), sl, mcRecords)
		l := core.Launch{Prog: b.K.Prog, Interleave: layout.Split,
			Sources: b.Sources(c.Threads(), mcRecords, seed), Args: args}
		s, err := multicore.New(c, ep, l)
		if err != nil {
			return fail(err)
		}
		r, err := s.Run(0)
		if err != nil {
			return fail(err)
		}
		got := workloads.ExtractStates(b, sl, lay, s.ReadState)
		want := b.GoldenStatesStreamed(c.Threads(), mcRecords, seed)
		for th := range want {
			for i := range want[th] {
				if got[th][i] != want[th][i] {
					return fail(fmt.Errorf("harness: multicore/%s functional mismatch", b.Name()))
				}
			}
		}
		states = got
		res.Time, res.Energy, res.FinalHz = r.Time, r.Energy, c.ClockHz
		res.Insts = r.Cores.Instructions
		res.Cycles = r.ComputeCycles
		res.BranchesPerInst = ratio(r.Cores.CondBranches, r.Cores.Instructions)
		res.RowMissRate = r.DRAM.RowMissRate()
		res.DRAMBytes = r.DRAM.BytesRead
		res.setMemStats(r.Mem)
		res.CycleAllocs, res.CycleBytes = r.Allocs, r.AllocBytes
		res.SkippedEdges, res.SkipWindows = r.SkippedEdges, r.SkipWindows
		res.Words = uint64(c.Threads()) * uint64(b.StreamWords(mcRecords))
		res.attachMetrics(r.Metrics)

	default:
		return fail(fmt.Errorf("harness: unknown architecture %q", archName))
	}

	res.InstsPerWord = float64(res.Insts) / float64(res.Words)
	return res, b.Reduce(states), nil
}

// buildLaunch assembles a launch whose input is per-thread streaming
// Sources: the dataset is generated into the DRAM image through bounded
// buffers at processor-construction time and never exists as Go slices.
func buildLaunch(b *workloads.Benchmark, p arch.Params, il layout.Interleave, records int, seed uint64, shared bool) (core.Launch, layout.Layout, kernels.StateLayout, error) {
	lay := layout.Layout{
		RowBytes: p.DRAM.RowBytes, Corelets: p.Corelets, Contexts: p.Contexts,
		Interleave: il, StreamWords: b.StreamWords(records),
	}
	if err := lay.Validate(); err != nil {
		return core.Launch{}, lay, kernels.StateLayout{}, err
	}
	var sl kernels.StateLayout
	var err error
	if shared {
		sl, err = kernels.SharedState(b.K, p.SharedMemBytes, p.Corelets, p.Contexts)
	} else {
		sl, err = kernels.LocalState(b.K, p.LocalBytes, p.Contexts)
	}
	if err != nil {
		return core.Launch{}, lay, sl, err
	}
	args := kernels.ArgsAndConsts(b.K, lay.Walk(), sl, records)
	l := core.Launch{Prog: b.K.Prog, Interleave: il,
		Sources: b.Sources(p.Threads(), records, seed), Args: args}
	return l, lay, sl, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// baseLanes is the paper's reference lane/corelet count (Table III); the
// system-size study (Figure 6) scales per-thread records relative to it so
// total input stays constant across sizes.
const baseLanes = 32

// RecordsFor returns the per-thread record count for benchmark b at the
// given input scale. Scale multiplies every benchmark's DefaultRecords;
// tests use small scales and cmd/milliexp uses >= 1.
func RecordsFor(b *workloads.Benchmark, scale float64) int {
	return recordsForSize(b, scale, baseLanes)
}

// recordsForSize is RecordsFor for a processor with lanes corelets/lanes:
// per-thread records shrink proportionally so the total input matches the
// 32-lane configuration. The minimum-records floor is applied after the
// size scaling — applying it before (as Fig6 once did by scaling
// RecordsFor's result) silently produced fewer than 4 records per thread
// at 64 lanes and small scales.
func recordsForSize(b *workloads.Benchmark, scale float64, lanes int) int {
	r := int(float64(b.DefaultRecords)*scale) * baseLanes / lanes
	if r < 4 {
		r = 4
	}
	return r
}

// recordsFor is the unexported alias used throughout the harness.
func recordsFor(b *workloads.Benchmark, scale float64) int {
	return RecordsFor(b, scale)
}

// RateTrace runs a benchmark on rate-matched Millipede and returns the DFS
// controller's clock trajectory alongside the measurement.
func RateTrace(b *workloads.Benchmark, p arch.Params, records int) ([]core.DFSSample, RunResult, error) {
	q := p
	q.RateMatch = true
	l, lay, sl, err := buildLaunch(b, q, layout.Slab, records, Seed, false)
	if err != nil {
		return nil, RunResult{}, err
	}
	pr, err := core.NewProcessor(q, energy.Default(), l)
	if err != nil {
		return nil, RunResult{}, err
	}
	r, err := pr.Run(0)
	if err != nil {
		return nil, RunResult{}, err
	}
	got := workloads.ExtractStates(b, sl, lay, pr.ReadState)
	want := b.GoldenStatesStreamed(q.Threads(), records, Seed)
	for th := range want {
		for i := range want[th] {
			if got[th][i] != want[th][i] {
				return nil, RunResult{}, fmt.Errorf("harness: rate-trace functional mismatch")
			}
		}
	}
	res := RunResult{
		Arch: ArchMillipedeRM, Bench: b.Name(), Time: r.Time, Energy: r.Energy,
		Insts: r.Cores.Instructions, Words: uint64(q.Threads()) * uint64(b.StreamWords(records)),
		FinalHz: r.FinalHz,
	}
	return pr.DFSTrace(), res, nil
}

// KMeansIteration runs one k-means MapReduction on Millipede with the given
// centroids and returns the next centroids (coordinate sums divided by
// counts; empty clusters keep their centroid) plus the verified run result.
// Chaining calls implements full iterative k-means over the resident
// dataset — the paper's "full application" framing.
func KMeansIteration(p arch.Params, cents [][]float32, records int) ([][]float32, RunResult, error) {
	b := workloads.KMeansBenchWith(cents)
	res, out, err := RunReduced(ArchMillipede, b, p, records)
	if err != nil {
		return nil, res, err
	}
	k, dims := len(cents), len(cents[0])
	next := make([][]float32, k)
	for c := 0; c < k; c++ {
		next[c] = make([]float32, dims)
		n := out[c]
		for d := 0; d < dims; d++ {
			if n == 0 {
				next[c][d] = cents[c][d]
				continue
			}
			next[c][d] = isa.F32(out[k+c*dims+d]) / float32(n)
		}
	}
	return next, res, nil
}

// CentroidShift returns the mean Euclidean distance between two centroid
// sets (the k-means convergence measure).
func CentroidShift(a, b [][]float32) float64 {
	var sum float64
	for c := range a {
		var d2 float64
		for d := range a[c] {
			diff := float64(a[c][d] - b[c][d])
			d2 += diff * diff
		}
		sum += math.Sqrt(d2)
	}
	return sum / float64(len(a))
}
