// Package node simulates a full Millipede node: 32 Millipede processors,
// each with its own die-stacked DRAM channel (Table III: "1 of 32"
// processors/channels simulated in the paper; here the whole node is run).
// Processors are independent — BMLA MapReductions have no cross-processor
// communication until the per-node Reduce (Section IV-D) — so the node
// executes them concurrently on host goroutines and the node's runtime is
// the slowest processor's runtime plus the host Reduce.
//
// This upgrades the paper's Figure 5 comparison from an analytic 32x
// scaling of one processor to a measured multi-processor run, including the
// load imbalance across processors that the scaling argument ignores.
package node

import (
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/kernels"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Result aggregates a node run.
type Result struct {
	// Time is the node makespan: the slowest processor's finish time.
	Time sim.Time
	// ProcessorTimes are the per-processor finish times (load imbalance).
	ProcessorTimes []sim.Time
	// Energy is summed over all processors.
	Energy energy.Breakdown
	// Output is the node-level reduced result over every processor's
	// corelet states.
	Output []uint32
	// Insts is the total instruction count.
	Insts uint64
}

// ShardSeed derives the dataset seed of processor (or node shard) pi from
// the run seed, so every layer that shards a dataset across processors
// agrees on which records each shard holds.
func ShardSeed(seed uint64, pi int) uint64 { return seed + uint64(pi)*1_000_003 }

// Run executes benchmark b over processors x (threads x records) input on a
// node of the given per-processor configuration. Each processor gets its
// own deterministic data shard; shards differ across processors, so the
// makespan reflects genuine cross-processor load imbalance.
func Run(p arch.Params, ep energy.Params, b *workloads.Benchmark, processors, records int, seed uint64) (Result, error) {
	if processors <= 0 {
		return Result{}, fmt.Errorf("node: bad processor count %d", processors)
	}
	if records < 1 {
		return Result{}, fmt.Errorf("node: record count %d, want at least 1", records)
	}
	lay := layout.Layout{
		RowBytes: p.DRAM.RowBytes, Corelets: p.Corelets, Contexts: p.Contexts,
		Interleave: layout.Slab,
	}
	if err := lay.Validate(); err != nil {
		return Result{}, err
	}
	sl, err := kernels.LocalState(b.K, p.LocalBytes, p.Contexts)
	if err != nil {
		return Result{}, err
	}
	args := kernels.ArgsAndConsts(b.K, lay.Walk(), sl, records)

	type shard struct {
		res    core.Result
		states [][]uint32
		err    error
	}
	shards := make([]shard, processors)
	var wg sync.WaitGroup
	for pi := 0; pi < processors; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			// Shard pi gets its own stream family, streamed straight into
			// the processor's DRAM image.
			l := core.Launch{Prog: b.K.Prog, Interleave: layout.Slab,
				Sources: b.Sources(p.Threads(), records, ShardSeed(seed, pi)), Args: args}
			pr, err := core.NewProcessor(p, ep, l)
			if err != nil {
				shards[pi].err = err
				return
			}
			res, err := pr.Run(0)
			if err != nil {
				shards[pi].err = err
				return
			}
			shards[pi].res = res
			shards[pi].states = workloads.ExtractStates(b, sl, lay, pr.ReadState)
		}(pi)
	}
	wg.Wait()

	out := Result{ProcessorTimes: make([]sim.Time, processors)}
	var all [][]uint32
	for pi := range shards {
		s := &shards[pi]
		if s.err != nil {
			return Result{}, fmt.Errorf("node: processor %d: %w", pi, s.err)
		}
		// Verify each shard against its golden reference.
		if err := b.Verify(s.states, p.Threads(), records, ShardSeed(seed, pi)); err != nil {
			return Result{}, fmt.Errorf("node: processor %d: %w", pi, err)
		}
		out.ProcessorTimes[pi] = s.res.Time
		if s.res.Time > out.Time {
			out.Time = s.res.Time
		}
		out.Energy.Add(s.res.Energy)
		out.Insts += s.res.Cores.Instructions
		all = append(all, s.states...)
	}
	out.Output = b.Reduce(all)
	// Host per-node Reduce cost (Section IV-D: hundreds of microseconds
	// for 32 processors): model one pass over all partial states at one
	// word per host cycle at 3.6 GHz.
	hostWords := int64(len(all)) * int64(b.K.StateWords)
	out.Time += sim.Time(float64(hostWords) / 3.6e9 * 1e12)
	return out, nil
}

// Imbalance returns (max-min)/max of the per-processor finish times.
func (r Result) Imbalance() float64 {
	if len(r.ProcessorTimes) == 0 || r.Time == 0 {
		return 0
	}
	min := r.ProcessorTimes[0]
	for _, t := range r.ProcessorTimes {
		if t < min {
			min = t
		}
	}
	return float64(r.Time-min) / float64(r.Time)
}
