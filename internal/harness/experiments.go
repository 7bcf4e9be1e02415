package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/workloads"
)

// ExperimentInfo describes one registered experiment.
type ExperimentInfo struct {
	Name        string
	Description string
	// Uses names the request options (beyond the architecture parameter
	// block) the experiment's run function actually reads — "scale",
	// "host_bandwidth_gbs", "timeline_every". The serving layer derives its
	// per-experiment parameter descriptors from it.
	Uses []string
}

// info builds an ExperimentInfo; uses lists the consumed request options.
func info(name, desc string, uses ...string) ExperimentInfo {
	return ExperimentInfo{Name: name, Description: desc, Uses: uses}
}

// ExpOptions tunes an experiment run. The zero value reproduces the
// historical cmd/milliexp defaults.
type ExpOptions struct {
	// Scale multiplies every benchmark's default input size; zero means 1.0.
	// The characteristics experiment runs at Scale/4 internally (its joins
	// square the work), matching milliexp's historical default.
	Scale float64
	// HostBandwidthGBs is the host-link bandwidth assumed by the residency
	// study; zero means 16 GB/s (PCIe-class).
	HostBandwidthGBs float64
	// TimelineEvery is the sampling period of the timeline experiment in
	// compute cycles; zero picks DefaultTimelineEvery.
	TimelineEvery uint64
	// Seed overrides the dataset seed of every run the experiment performs;
	// zero means the canonical Seed. Shard- and thread-level seeds are
	// derived from it (datagen.ThreadSeed, ShardSeed), so any base
	// value yields a valid, reproducible dataset.
	Seed uint64
	// ClusterNodes and ClusterProcs set the cluster experiment's geometry:
	// nodes in the simulated cluster and processors per node. Zero means the
	// historical 4-node, 1-processor-per-node setup. The total streamed work
	// is held constant, so growing the cluster shrinks each shard.
	ClusterNodes int
	ClusterProcs int
}

// seed resolves the dataset seed, mapping zero to the canonical Seed.
func (o ExpOptions) seed() uint64 {
	if o.Seed == 0 {
		return Seed
	}
	return o.Seed
}

func (o ExpOptions) withDefaults() ExpOptions {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.HostBandwidthGBs == 0 {
		o.HostBandwidthGBs = 16
	}
	if o.TimelineEvery == 0 {
		o.TimelineEvery = DefaultTimelineEvery
	}
	if o.ClusterNodes == 0 {
		o.ClusterNodes = ClusterNodes
	}
	if o.ClusterProcs == 0 {
		o.ClusterProcs = 1
	}
	return o
}

// ExperimentResult is the uniform output of RunExperiment: zero or more
// figures plus optional free text (tables and the node study report).
type ExperimentResult struct {
	Figures []*Figure
	Text    string
}

// Render returns the result as the text milliexp prints: each figure's
// table, then the free text.
func (r ExperimentResult) Render() string {
	var sb strings.Builder
	for _, f := range r.Figures {
		sb.WriteString(f.Render())
	}
	if r.Text != "" {
		sb.WriteString(r.Text)
		if !strings.HasSuffix(r.Text, "\n") {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

type expEntry struct {
	info ExperimentInfo
	run  func(ctx context.Context, p arch.Params, o ExpOptions) (ExperimentResult, error)
}

// oneFig adapts the harness's (Params, scale) figure functions to the
// registry's run signature.
func oneFig(f func(context.Context, arch.Params, float64, uint64) (*Figure, error)) func(context.Context, arch.Params, ExpOptions) (ExperimentResult, error) {
	return func(ctx context.Context, p arch.Params, o ExpOptions) (ExperimentResult, error) {
		fig, err := f(ctx, p, o.Scale, o.Seed)
		if err != nil {
			return ExperimentResult{}, err
		}
		return ExperimentResult{Figures: []*Figure{fig}}, nil
	}
}

// experiments is the registry, in milliexp's presentation order.
var experiments = []expEntry{
	{info("table3", "simulated configuration parameters (Table III)"),
		func(ctx context.Context, p arch.Params, o ExpOptions) (ExperimentResult, error) {
			return ExperimentResult{Text: TableIII(p)}, nil
		}},
	{info("table2", "benchmark characteristics (Table II)"),
		func(ctx context.Context, p arch.Params, o ExpOptions) (ExperimentResult, error) {
			return ExperimentResult{Text: TableII()}, nil
		}},
	{info("table4", "per-benchmark execution profile (Table IV)", "scale", "seed"), oneFig(TableIV)},
	{info("fig3", "throughput across PNM architectures (Figure 3)", "scale", "seed"), oneFig(Fig3)},
	{info("fig4", "energy totals and breakdown (Figure 4)", "scale", "seed"),
		func(ctx context.Context, p arch.Params, o ExpOptions) (ExperimentResult, error) {
			fig, parts, err := Fig4(ctx, p, o.Scale, o.Seed)
			if err != nil {
				return ExperimentResult{}, err
			}
			return ExperimentResult{Figures: []*Figure{fig, parts}}, nil
		}},
	{info("fig5", "node-level comparison vs a conventional multicore (Figure 5)", "scale", "seed"), oneFig(Fig5)},
	{info("fig6", "system-size scaling study (Figure 6)", "scale", "seed"), oneFig(Fig6)},
	{info("fig7", "rate-matching DFS study (Figure 7)", "scale", "seed"), oneFig(Fig7)},
	{info("ablation", "software-barrier interval ablation", "scale", "seed"), oneFig(BarrierAblation)},
	{info("characteristics", "join/table characteristics study (runs at Scale/4)", "scale", "seed"),
		func(ctx context.Context, p arch.Params, o ExpOptions) (ExperimentResult, error) {
			// Historical milliexp default: the characteristics study squares
			// the work per record, so it runs at a quarter of the scale.
			fig, err := CharacteristicsStudy(ctx, p, o.Scale/4, o.Seed)
			if err != nil {
				return ExperimentResult{}, err
			}
			return ExperimentResult{Figures: []*Figure{fig}}, nil
		}},
	{info("warpwidth", "VWS warp-width sweep", "scale", "seed"), oneFig(WarpWidthSweep)},
	{info("channels", "die-stacked channel-count sweep", "scale", "seed"), oneFig(ChannelSweep)},
	{info("residency", "dataset-residency study vs host-link bandwidth", "scale", "host_bandwidth_gbs", "seed"),
		func(ctx context.Context, p arch.Params, o ExpOptions) (ExperimentResult, error) {
			fig, err := ResidencyStudy(ctx, p, o.HostBandwidthGBs, o.Scale, o.Seed)
			if err != nil {
				return ExperimentResult{}, err
			}
			return ExperimentResult{Figures: []*Figure{fig}}, nil
		}},
	{info("node", "measured 8-processor node run (count benchmark)", "seed"),
		func(ctx context.Context, p arch.Params, o ExpOptions) (ExperimentResult, error) {
			r, err := RunNode(ctx, p, workloads.CountBench(), 8, 1024, o.seed())
			if err != nil {
				return ExperimentResult{}, err
			}
			text := fmt.Sprintf("Measured 8-processor node run (count, 1024 records/thread):\n"+
				"  makespan %.1f us, load imbalance %.1f%%, energy %.1f uJ\n",
				float64(r.Time)/1e6, r.Imbalance()*100, r.Energy.TotalPJ()/1e6)
			return ExperimentResult{Text: text}, nil
		}},
	{info("timeline", "cycle-sampled observability timeline (prefetch occupancy, row hit rate, queue depth, DFS clock)", "scale", "timeline_every", "seed"),
		func(ctx context.Context, p arch.Params, o ExpOptions) (ExperimentResult, error) {
			fig, err := TimelineStudy(ctx, p, o.Scale, o.TimelineEvery, o.Seed)
			if err != nil {
				return ExperimentResult{}, err
			}
			return ExperimentResult{Figures: []*Figure{fig}}, nil
		}},
	{info("cluster", "cluster-scale MapReduce over streamed datasets: measured map/node-reduce/tree-reduce breakdown (Section IV-D)", "scale", "nodes", "processors", "seed"),
		func(ctx context.Context, p arch.Params, o ExpOptions) (ExperimentResult, error) {
			fig, text, err := ClusterStudy(ctx, p, o.Scale, o.Seed, o.ClusterNodes, o.ClusterProcs)
			if err != nil {
				return ExperimentResult{}, err
			}
			return ExperimentResult{Figures: []*Figure{fig}, Text: text}, nil
		}},
	{info("capacity", "die-stacked capacity study: stack as memory vs hardware cache vs memcache over a planar backing store, swept across dataset-to-stack ratios", "scale", "seed"),
		func(ctx context.Context, p arch.Params, o ExpOptions) (ExperimentResult, error) {
			fig, text, err := CapacityStudy(ctx, p, o.Scale, o.Seed)
			if err != nil {
				return ExperimentResult{}, err
			}
			return ExperimentResult{Figures: []*Figure{fig}, Text: text}, nil
		}},
}

// Register appends an experiment to the registry. It exists so packages
// layered above the harness (the serving-layer SLA study, future policy
// sweeps) can appear in Experiments()/RunExperiment alongside the
// built-ins. Call it from an init() — the registry is read without locking
// once the program is serving — and pick a name that is not taken: a
// duplicate panics at startup, when it is a programming error rather than
// a runtime condition.
func Register(info ExperimentInfo, run func(ctx context.Context, p arch.Params, o ExpOptions) (ExperimentResult, error)) {
	for _, e := range experiments {
		if e.info.Name == info.Name {
			panic(fmt.Sprintf("harness: duplicate experiment %q", info.Name))
		}
	}
	experiments = append(experiments, expEntry{info: info, run: run})
}

// Experiments lists every registered experiment in presentation order.
func Experiments() []ExperimentInfo {
	infos := make([]ExperimentInfo, len(experiments))
	for i, e := range experiments {
		infos[i] = e.info
	}
	return infos
}

// RunExperiment runs the named experiment with the given architecture
// parameters and options. Cancelling ctx makes the experiment return
// ctx.Err() instead of running its remaining simulations to completion
// (in-flight cycle loops still finish — cancellation is checked between
// runs, never inside the deterministic hot path).
func RunExperiment(ctx context.Context, name string, p arch.Params, o ExpOptions) (ExperimentResult, error) {
	for _, e := range experiments {
		if e.info.Name == name {
			if err := ctx.Err(); err != nil {
				return ExperimentResult{}, err
			}
			return e.run(ctx, p, o.withDefaults())
		}
	}
	return ExperimentResult{}, fmt.Errorf("harness: unknown experiment %q (see Experiments())", name)
}
