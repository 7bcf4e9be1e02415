package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"repro"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/layout"
	"repro/internal/multicore"
	"repro/internal/sim"
	"repro/internal/simt"
	"repro/internal/ssmc"
	"repro/internal/stack"
	"repro/internal/workloads"
)

// runSpec is one simulation of a sweep: an architecture, a benchmark, its
// configuration and its per-thread record count.
type runSpec struct {
	arch    string
	b       *workloads.Benchmark
	cfg     arch.Params
	records int
}

// capacityRatio is the backing workload's dataset-to-stack ratio: at 4x
// three quarters of every dataset lives behind the 120-cycle backing store.
const capacityRatio = 4

// simPlan resolves a simulation workload into its runs: each benchmark in
// Table IV order, and for each the workload's architectures, so the first
// run of a dataset pays the golden fold and later ones reuse it, as in a
// figure sweep. Resolving assembles every kernel and validates every
// configuration; it is the set-up of the simulation workloads.
func simPlan(workload string, sz size) ([]runSpec, error) {
	p := millipede.DefaultConfig()
	var runs []runSpec
	for _, b := range workloads.All() {
		add := func(archName string, q arch.Params, scale float64) {
			runs = append(runs, runSpec{arch: archName, b: b, cfg: q, records: harness.RecordsFor(b, scale)})
		}
		switch workload {
		case "mimd":
			add(harness.ArchMillipede, p, sz.mimdScale)
			add(harness.ArchSSMC, p, sz.mimdScale)
		case "simt":
			add(harness.ArchGPGPU, p, sz.simtScale)
			add(harness.ArchVWS, p, sz.simtScale)
			add(harness.ArchVWSRow, p, sz.simtScale)
		case "backing":
			sb := stackBytes(p, b, harness.RecordsFor(b, sz.stackScale))
			for _, mode := range []stack.Mode{stack.ModeHWCache, stack.ModeMemCache} {
				q := p
				q.StackMode, q.StackBytes = string(mode), sb
				add(harness.ArchMillipede, q, sz.stackScale)
			}
			add(harness.ArchMulticore, p, sz.multicoreScale)
		default:
			return nil, fmt.Errorf("unknown simulation workload %q", workload)
		}
	}
	for _, r := range runs {
		if err := r.cfg.Validate(); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", r.arch, r.b.Name(), err)
		}
	}
	return runs, nil
}

// stackBytes sizes the die stack for dataset/stack = capacityRatio the way
// harness.CapacityStudy does: the dataset rounded up to whole rows, divided
// by the ratio, rounded up to whole hwcache sets.
func stackBytes(p arch.Params, b *workloads.Benchmark, records int) int {
	granule := stack.DefaultAssoc * p.DRAM.RowBytes
	ds := p.Threads() * b.StreamWords(records) * 4
	if r := ds % p.DRAM.RowBytes; r != 0 {
		ds += p.DRAM.RowBytes - r
	}
	sb := ds / capacityRatio
	if r := sb % granule; r != 0 {
		sb += granule - r
	}
	return max(sb, granule)
}

// simPass runs every simulation of the plan once through the public entry
// point millipede.RunReduced, whose golden check verifies each one. Each
// operation is one RunReduced call.
func simPass(runs []runSpec, seed uint64, d *digest) passResult {
	var pr passResult
	sums := map[string]float64{}
	var suspects []runSpec
	t0 := time.Now()
	for _, s := range runs {
		pr.attempted++
		t := time.Now()
		res, out, err := millipede.RunReduced(s.arch, s.b.Name(), s.cfg, s.records, millipede.WithSeed(seed))
		lat := time.Since(t)
		if err != nil {
			pr.fail("%s/%s seed %d: %v", s.arch, s.b.Name(), seed, err)
			continue
		}
		pr.latencies = append(pr.latencies, ms(lat))
		pr.runRates = append(pr.runRates, float64(res.Cycles)/lat.Seconds())
		d.sim(s.arch, s.b.Name(), seed, res.Cycles, uint64(res.Time), res.Insts, out)
		for _, sm := range res.Metrics.Samples {
			sums[sm.Name] += sm.Value
		}
		sums["sim.skipped_edges"] += float64(res.SkippedEdges)
		sums["sim.skip_windows"] += float64(res.SkipWindows)
		if res.Stack.Mode != "" {
			// The capacity backends are outside the zero-allocation gate
			// (TestCycleLoopAllocFree covers the pass-through machine): their
			// allocations are reported, not failed.
			sums["stack.cycle_allocs"] += float64(res.CycleAllocs)
		} else if res.CycleAllocs > 0 {
			suspects = append(suspects, s)
		}
	}
	pr.wall = time.Since(t0)
	sums["sim.cycle_allocs"] = recheckAllocs(suspects, seed, &pr)
	pr.layer = simCounts(sums)
	pr.heapMB = liveHeapMB()
	return pr
}

// allocRechecks is how many times a run whose cycle loop counted
// allocations is re-run before the allocations count as real.
const allocRechecks = 3

// recheckAllocs re-runs, outside the timed pass, every run whose cycle loop
// counted allocations, each time after a full collection and with the
// collector paused. The counter reads the whole process's mallocs, so the
// runtime can add a stray one now and then; a cycle-loop allocation is
// deterministic and repeats on every re-run. A run fails only when all
// allocRechecks re-runs allocate. It returns the confirmed allocation count.
func recheckAllocs(suspects []runSpec, seed uint64, pr *passResult) float64 {
	var confirmed float64
	for _, s := range suspects {
		allocs, err := rerunAllocs(s, seed)
		switch {
		case err != nil:
			pr.fail("%s/%s seed %d: recheck: %v", s.arch, s.b.Name(), seed, err)
		case allocs > 0:
			pr.fail("%s/%s seed %d: %d heap allocations in the cycle loop, want 0", s.arch, s.b.Name(), seed, allocs)
			confirmed += float64(allocs)
		}
	}
	return confirmed
}

// rerunAllocs returns the fewest cycle-loop allocations of up to
// allocRechecks re-runs of s, stopping at the first that makes none.
func rerunAllocs(s runSpec, seed uint64) (uint64, error) {
	least := uint64(math.MaxUint64)
	for try := 0; try < allocRechecks && least > 0; try++ {
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		res, _, err := millipede.RunReduced(s.arch, s.b.Name(), s.cfg, s.records, millipede.WithSeed(seed))
		debug.SetGCPercent(gc)
		if err != nil {
			return 0, err
		}
		least = min(least, res.CycleAllocs)
	}
	return least, nil
}

// simCounts derives the per-layer simulated counts of one pass from the
// summed Result.Metrics samples. Every one is exact for a given seed: a
// change that only speeds up the host leaves all of them unchanged.
func simCounts(s map[string]float64) map[string]float64 {
	hitRate := func(prefix string) float64 {
		return ratio(s[prefix+".hits"], s[prefix+".hits"]+s[prefix+".misses"])
	}
	return map[string]float64{
		"run.cycles":                s["run.cycles"],
		"run.insts":                 s["run.insts"],
		"corelet.idle_frac":         ratio(s["corelet.idle_cycles"], s["corelet.idle_cycles"]+s["corelet.busy_cycles"]),
		"corelet.retry_cycles":      s["corelet.retry_cycles"],
		"prefetch.starved":          s["prefetch.starved"],
		"prefetch.premature_evicts": s["prefetch.premature_evicts"],
		"prefetch.flow_blocks":      s["prefetch.flow_blocks"],
		"cache.hit_rate":            hitRate("cache"),
		"l1.hit_rate":               hitRate("l1"),
		"l2.hit_rate":               hitRate("l2"),
		"simt.divergence_rate":      ratio(s["simt.divergences"], s["simt.cond_branches"]),
		"simt.lane_idle":            s["simt.lane_idle"],
		"dram.row_hit_rate":         ratio(s["dram.row_hits"], s["dram.row_hits"]+s["dram.row_misses"]),
		"dram.requests":             s["dram.requests"],
		"mem.stall_cycles":          s["mem.stall_cycles"],
		"mem.rejected":              s["mem.rejected"],
		"stack.hit_rate":            ratio(s["stack.served"], s["stack.accesses"]),
		"stack.fills":               s["stack.fills"],
		"stack.backing.reads":       s["stack.backing.reads"],
		"sim.skipped_edges":         s["sim.skipped_edges"],
		"sim.skip_windows":          s["sim.skip_windows"],
		"sim.cycle_allocs":          s["sim.cycle_allocs"],
		"stack.cycle_allocs":        s["stack.cycle_allocs"],
	}
}

// tracedSimPass is simPass with a span around each layer call. It cannot
// time inside RunReduced, so it repeats harness.RunWith's steps in the same
// order — resolve the benchmark, build the processor (datagen, PackFrom,
// NewNode), run the cycle loop, verify against the golden reference, and
// reduce — and the caller checks that its digest equals an untraced pass's.
func tracedSimPass(runs []runSpec, seed uint64, rec *recorder, d *digest) passResult {
	var pr passResult
	t0 := time.Now()
	root := rec.open("pass", -1, "", 0)
	for _, s := range runs {
		pr.attempted++
		loop, err := tracedRun(s, seed, rec, root, d)
		if err != nil {
			pr.fail("%s/%s seed %d: %v", s.arch, s.b.Name(), seed, err)
			continue
		}
		pr.loopRates = append(pr.loopRates, loop)
	}
	rec.close(root)
	pr.wall = time.Since(t0)
	return pr
}

// tracedRun performs one traced simulation and returns its engine-loop
// throughput in simulated cycles per second.
func tracedRun(s runSpec, seed uint64, rec *recorder, parent int, d *digest) (float64, error) {
	run := fmt.Sprintf("%s/%s/seed=%d", s.arch, s.b.Name(), seed)
	root := rec.open("run", parent, run, 0)
	defer rec.close(root)
	b, err := workloads.ByName(s.b.Name())
	if err != nil {
		return 0, err
	}

	sp := rec.open("build", root, run, 0)
	m, err := build(s.arch, b, s.cfg, s.records, seed)
	rec.close(sp)
	if err != nil {
		return 0, err
	}

	sp = rec.open("sim.run", root, run, 0)
	t := time.Now()
	o, err := m.run()
	loop := time.Since(t)
	rec.close(sp)
	if err != nil {
		return 0, err
	}

	sp = rec.open("workloads.verify", root, run, 0)
	got := workloads.ExtractStates(b, m.sl, m.lay, m.read)
	want := b.GoldenStatesStreamed(m.threads, m.records, seed)
	rec.close(sp)
	for th := range want {
		for i := range want[th] {
			if got[th][i] != want[th][i] {
				return 0, fmt.Errorf("functional mismatch at thread %d word %d", th, i)
			}
		}
	}

	sp = rec.open("mapreduce.reduce", root, run, 0)
	out := b.Reduce(got)
	rec.close(sp)

	d.sim(s.arch, b.Name(), seed, o.cycles, uint64(o.time), o.insts, out)
	return float64(o.cycles) / loop.Seconds(), nil
}

// outcome is what the digest needs from a processor's result.
type outcome struct {
	time          sim.Time
	cycles, insts uint64
}

// machine is one constructed processor: how to run it, and how to read back
// its live state for the golden check.
type machine struct {
	run              func() (outcome, error)
	read             workloads.StateReader
	lay              layout.Layout
	sl               kernels.StateLayout
	threads, records int
}

// build constructs the processor for one run exactly as harness.RunWith
// does for the same architecture.
func build(archName string, b *workloads.Benchmark, p arch.Params, records int, seed uint64) (*machine, error) {
	ep := energy.Default()
	m := &machine{threads: p.Threads(), records: records}
	var l core.Launch
	var err error
	switch archName {
	case harness.ArchMillipede:
		p.FlowControl, p.RateMatch = true, false
		if l, m.lay, m.sl, err = launch(b, p, layout.Slab, records, seed, false); err != nil {
			return nil, err
		}
		pr, err := core.NewProcessor(p, ep, l)
		if err != nil {
			return nil, err
		}
		m.read = pr.ReadState
		m.run = func() (outcome, error) {
			r, err := pr.Run(0)
			return outcome{r.Time, r.ComputeCycles, r.Cores.Instructions}, err
		}
	case harness.ArchSSMC:
		if l, m.lay, m.sl, err = launch(b, p, layout.Slab, records, seed, false); err != nil {
			return nil, err
		}
		pr, err := ssmc.NewProcessor(p, ep, l)
		if err != nil {
			return nil, err
		}
		m.read = pr.ReadState
		m.run = func() (outcome, error) {
			r, err := pr.Run(0)
			return outcome{r.Time, r.ComputeCycles, r.Cores.Instructions}, err
		}
	case harness.ArchGPGPU, harness.ArchVWS, harness.ArchVWSRow:
		v := map[string]simt.Variant{harness.ArchGPGPU: simt.GPGPU, harness.ArchVWS: simt.VWS, harness.ArchVWSRow: simt.VWSRow}[archName]
		if l, m.lay, m.sl, err = launch(b, p, layout.Word, records, seed, true); err != nil {
			return nil, err
		}
		sm, err := simt.NewSM(p, ep, v, l)
		if err != nil {
			return nil, err
		}
		m.read = sm.ReadShared
		m.run = func() (outcome, error) {
			r, err := sm.Run(0)
			return outcome{r.Time, r.ComputeCycles, r.SM.ThreadInsts}, err
		}
	case harness.ArchMulticore:
		c := multicore.DefaultConfig()
		c.NoSkip = p.NoSkip
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
		m.run = func() (outcome, error) {
			r, err := s.Run(0)
			return outcome{r.Time, r.ComputeCycles, r.Cores.Instructions}, err
		}
	default:
		return nil, fmt.Errorf("unknown architecture %q", archName)
	}
	return m, nil
}

// launch is harness.buildLaunch: per-thread streaming Sources that the
// processor constructor packs into its DRAM image through bounded buffers.
func launch(b *workloads.Benchmark, p arch.Params, il layout.Interleave, records int, seed uint64, shared bool) (core.Launch, layout.Layout, kernels.StateLayout, error) {
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
	return core.Launch{Prog: b.K.Prog, Interleave: il, Sources: b.Sources(p.Threads(), records, seed), Args: args}, lay, sl, nil
}
