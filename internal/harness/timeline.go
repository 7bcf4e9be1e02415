package harness

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/workloads"
)

// DefaultTimelineEvery is the timeline experiment's sampling period in
// compute cycles. 1024 keeps even a paper-scale run to a few thousand
// points before the sampler's adaptive decimation kicks in.
const DefaultTimelineEvery = 1024

// timelineRows is how many (downsampled) sample rows the rendered timeline
// figure shows; the full-resolution series stays on RunResult.Timeline.
const timelineRows = 32

// TimelineStudy runs the count benchmark on rate-matched Millipede with the
// cycle-domain gauge sampler enabled and renders the sampled series —
// prefetch-buffer occupancy, DRAM row hit rate, controller queue depth, and
// the DFS compute clock — as a figure whose rows are sample cycles. It is
// the simulator-side counterpart of the paper's Figure 2 motivation: row
// prefetch keeps the buffer occupied while rate matching walks the clock to
// the memory-bound operating point.
func TimelineStudy(ctx context.Context, p arch.Params, scale float64, everyCycles uint64, seed uint64) (*Figure, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if everyCycles == 0 {
		everyCycles = DefaultTimelineEvery
	}
	b, err := workloads.ByName("count")
	if err != nil {
		return nil, err
	}
	res, _, err := Run(ArchMillipedeRM, b, p, RecordsFor(b, scale),
		Options{TimelineEvery: everyCycles, Seed: seed})
	if err != nil {
		return nil, err
	}
	tl := res.Timeline
	if tl == nil || tl.Len() == 0 {
		return nil, fmt.Errorf("harness: timeline study produced no samples (run shorter than %d cycles)", everyCycles)
	}
	pts := tl.Downsample(timelineRows)
	fig := &Figure{
		Name:   fmt.Sprintf("Observability timeline: count on %s (every %d cycles)", ArchMillipedeRM, tl.Every()),
		Series: tl.Names(),
	}
	for _, pt := range pts {
		row := Row{Bench: fmt.Sprintf("@%d", pt.Cycle), Values: map[string]float64{}}
		for i, name := range fig.Series {
			row.Values[name] = pt.Values[i]
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}
