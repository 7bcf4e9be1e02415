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
	// Cycles is the number of compute-clock cycles the model simulated (the
	// sim_cycles field of the BENCH_*.json determinism baseline).
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
	// DFS is the rate-matching controller's clock trajectory (frequency
	// changes only); empty except on millipede-rate-match.
	DFS []core.DFSSample
	// CycleAllocs and CycleBytes count heap allocations made inside the
	// model's cycle loop (zero in steady state by design; gated by
	// TestCycleLoopAllocFree).
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
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return Seed
	}
	return o.Seed
}

// Run executes benchmark b on the named architecture with per-thread record
// count records, verifies the live state against the golden reference, and
// returns the measurement plus the host-side final Reduce over the verified
// per-thread live states (Section IV-D) — the benchmark's actual output.
//
// Every architecture goes through the same steps: build the processor, run
// it, verify it, fill the result from the shared arch.RunStats, and reduce.
func Run(archName string, b *workloads.Benchmark, p arch.Params, records int, o Options) (RunResult, []uint32, error) {
	res, states, err := run(archName, b, p, records, o)
	if err != nil {
		return res, nil, err
	}
	return res, b.Reduce(states), nil
}

// run is Run up to the final Reduce: it returns the measurement and the
// verified per-thread live states.
func run(archName string, b *workloads.Benchmark, p arch.Params, records int, o Options) (RunResult, [][]uint32, error) {
	seed := o.seed()
	res := RunResult{Arch: archName, Bench: b.Name()}
	if records < 1 {
		return res, nil, fmt.Errorf("harness: record count %d, want at least 1", records)
	}
	m, err := build(archName, b, p, records, seed, o)
	if err != nil {
		return res, nil, err
	}
	rs, err := m.run()
	if err != nil {
		return res, nil, err
	}
	// The golden reference re-streams each thread's Source through a bounded
	// buffer, so verification (like the launch) never materializes a stream.
	states := workloads.ExtractStates(b, m.sl, m.lay, m.read)
	if err := b.Verify(states, m.threads, m.records, seed); err != nil {
		return res, nil, fmt.Errorf("harness: %s: %w", archName, err)
	}
	res.Words = uint64(m.threads) * uint64(b.StreamWords(m.records))
	res.fill(rs)
	res.Timeline, res.DFS = m.timeline, m.dfs
	return res, states, nil
}

// fill copies the shared node result into the measurement and attaches its
// metrics snapshot with the run-level ("run.*") and energy ("energy.*")
// samples added, so every RunResult carries one uniform snapshot regardless
// of architecture. Words must already be set.
func (r *RunResult) fill(rs arch.RunStats) {
	r.Time, r.Energy, r.FinalHz = rs.Time, rs.Energy, rs.FinalHz
	r.Insts, r.Cycles = rs.Insts, rs.ComputeCycles
	r.InstsPerWord = float64(r.Insts) / float64(r.Words)
	r.BranchesPerInst = ratio(rs.CondBranches, rs.Insts)
	r.RowMissRate = rs.DRAM.RowMissRate()
	r.DRAMBytes = rs.DRAM.BytesRead
	r.MemStallCycles, r.MemMaxOccupancy, r.MemRejected = rs.Mem.StallCycles, rs.Mem.MaxOccupancy, rs.Mem.Rejected
	r.Stack = rs.Stack
	r.CycleAllocs, r.CycleBytes = rs.Allocs, rs.AllocBytes
	r.SkippedEdges, r.SkipWindows = rs.SkippedEdges, rs.SkipWindows
	m := rs.Metrics
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

// machine is one constructed processor: how to run it, how to read back its
// live state for the golden check, and the geometry that check needs.
type machine struct {
	run              func() (arch.RunStats, error)
	read             workloads.StateReader
	lay              layout.Layout
	sl               kernels.StateLayout
	threads, records int
	// timeline and dfs are the millipede family's extra outputs, set by run.
	timeline *metrics.Timeline
	dfs      []core.DFSSample
}

// build constructs the processor for one run; it only builds, Run does the
// rest.
func build(archName string, b *workloads.Benchmark, p arch.Params, records int, seed uint64, o Options) (*machine, error) {
	ep := energy.Default()
	m := &machine{threads: p.Threads(), records: records}
	var l core.Launch
	var err error
	switch archName {
	case ArchMillipede, ArchMillipedeNoFC, ArchMillipedeRM:
		p.FlowControl = archName != ArchMillipedeNoFC
		p.RateMatch = archName == ArchMillipedeRM
		if l, m.lay, m.sl, err = buildLaunch(b, p, layout.Slab, records, seed, false); err != nil {
			return nil, err
		}
		pr, err := core.NewProcessor(p, ep, l)
		if err != nil {
			return nil, err
		}
		if o.Trace != nil {
			pr.EnableTrace(o.Trace, o.TraceCorelet)
		}
		if o.TimelineEvery > 0 {
			pr.EnableTimeline(o.TimelineEvery)
		}
		m.read = pr.ReadState
		m.run = func() (arch.RunStats, error) {
			r, err := pr.Run(0)
			m.timeline, m.dfs = r.Timeline, r.DFS
			return r.RunStats, err
		}
	case ArchSSMC:
		if l, m.lay, m.sl, err = buildLaunch(b, p, layout.Slab, records, seed, false); err != nil {
			return nil, err
		}
		pr, err := ssmc.NewProcessor(p, ep, l)
		if err != nil {
			return nil, err
		}
		m.read = pr.ReadState
		m.run = func() (arch.RunStats, error) {
			r, err := pr.Run(0)
			return r.RunStats, err
		}
	case ArchGPGPU, ArchVWS, ArchVWSRow:
		v := map[string]simt.Variant{ArchGPGPU: simt.GPGPU, ArchVWS: simt.VWS, ArchVWSRow: simt.VWSRow}[archName]
		if l, m.lay, m.sl, err = buildLaunch(b, p, layout.Word, records, seed, true); err != nil {
			return nil, err
		}
		sm, err := simt.NewSM(p, ep, v, l)
		if err != nil {
			return nil, err
		}
		m.read = sm.ReadShared
		m.run = func() (arch.RunStats, error) {
			r, err := sm.Run(0)
			return r.RunStats, err
		}
	case ArchMulticore:
		c := multicore.DefaultConfig()
		// Same total input as a p-geometry PNM run: the node comparison
		// (Figure 5) scales per-processor results by the processor count.
		m.threads, m.records = c.Threads(), records*p.Threads()/c.Threads()
		m.lay = layout.Layout{
			RowBytes: c.DRAM.RowBytes, Corelets: c.Cores, Contexts: c.SMT,
			Interleave: layout.Split, StreamWords: b.StreamWords(m.records),
		}
		if err := m.lay.Validate(); err != nil {
			return nil, err
		}
		if m.sl, err = kernels.LocalState(b.K, c.LocalBytes, c.SMT); err != nil {
			return nil, err
		}
		args := kernels.ArgsAndConsts(b.K, m.lay.Walk(), m.sl, m.records)
		s, err := multicore.New(c, ep, core.Launch{Prog: b.K.Prog, Interleave: layout.Split,
			Sources: b.Sources(m.threads, m.records, seed), Args: args})
		if err != nil {
			return nil, err
		}
		m.read = s.ReadState
		m.run = func() (arch.RunStats, error) {
			r, err := s.Run(0)
			return r.RunStats, err
		}
	default:
		return nil, fmt.Errorf("harness: unknown architecture %q", archName)
	}
	return m, nil
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

// KMeansIteration runs one k-means MapReduction on Millipede with the given
// centroids and returns the next centroids (coordinate sums divided by
// counts; empty clusters keep their centroid) plus the verified run result.
// Chaining calls implements full iterative k-means over the resident
// dataset — the paper's "full application" framing.
func KMeansIteration(p arch.Params, cents [][]float32, records int) ([][]float32, RunResult, error) {
	if len(cents) != kernels.KMeansK {
		return nil, RunResult{}, fmt.Errorf("harness: kmeans needs %d centroids, got %d", kernels.KMeansK, len(cents))
	}
	for c, row := range cents {
		if len(row) != kernels.KMeansDims {
			return nil, RunResult{}, fmt.Errorf("harness: kmeans centroid %d has %d dims, want %d", c, len(row), kernels.KMeansDims)
		}
	}
	b := workloads.KMeansBenchWith(cents)
	res, out, err := Run(ArchMillipede, b, p, records, Options{})
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
// sets of the same shape (the k-means convergence measure).
func CentroidShift(a, b [][]float32) (float64, error) {
	if len(a) == 0 || len(b) != len(a) {
		return 0, fmt.Errorf("harness: centroid shift needs two nonempty sets of equal size, got %d and %d centroids", len(a), len(b))
	}
	var sum float64
	for c := range a {
		if len(b[c]) != len(a[c]) {
			return 0, fmt.Errorf("harness: centroid %d has %d dims in one set and %d in the other", c, len(a[c]), len(b[c]))
		}
		var d2 float64
		for d := range a[c] {
			diff := float64(a[c][d] - b[c][d])
			d2 += diff * diff
		}
		sum += math.Sqrt(d2)
	}
	return sum / float64(len(a)), nil
}
