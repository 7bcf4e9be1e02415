package harness

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// NodeResult aggregates a full Millipede node run: several Millipede
// processors (Table III: "1 of 32" processors/channels simulated in the
// paper; RunNode runs them all), each with its own die-stacked channel and
// data shard.
type NodeResult struct {
	// Time is the node makespan: the slowest processor's finish time plus
	// the host Reduce.
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

// RunNode executes benchmark b over processors x (threads x records) input
// on a node of the given per-processor configuration, which upgrades the
// paper's Figure 5 comparison from an analytic 32x scaling of one processor
// to a measured multi-processor run. Processor pi is the verified millipede
// run on shard ShardSeed(seed, pi); shards differ, so the makespan reflects
// genuine cross-processor load imbalance. BMLA MapReductions have no
// cross-processor communication until the per-node Reduce (Section IV-D),
// so the processors run independently on runJobs' pool, and the host
// reduces every processor's states in processor order.
func RunNode(ctx context.Context, p arch.Params, b *workloads.Benchmark, processors, records int, seed uint64) (NodeResult, error) {
	if processors <= 0 {
		return NodeResult{}, fmt.Errorf("harness: bad processor count %d", processors)
	}
	res := make([]RunResult, processors)
	states := make([][][]uint32, processors)
	err := runJobs(ctx, processors, func(pi int) (err error) {
		if res[pi], states[pi], err = run(ArchMillipede, b, p, records, Options{Seed: ShardSeed(seed, pi)}); err != nil {
			return fmt.Errorf("harness: node processor %d: %w", pi, err)
		}
		return nil
	})
	if err != nil {
		return NodeResult{}, err
	}
	out := NodeResult{ProcessorTimes: make([]sim.Time, processors)}
	var all [][]uint32
	for pi, r := range res {
		out.ProcessorTimes[pi] = r.Time
		out.Time = max(out.Time, r.Time)
		out.Energy.Add(r.Energy)
		out.Insts += r.Insts
		all = append(all, states[pi]...)
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
func (r NodeResult) Imbalance() float64 {
	if len(r.ProcessorTimes) == 0 || r.Time == 0 {
		return 0
	}
	return float64(r.Time-slices.Min(r.ProcessorTimes)) / float64(r.Time)
}
