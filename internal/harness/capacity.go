package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// CapacityRatios are the nominal dataset-to-stack capacity ratios swept by
// the capacity study. Below 1.0 the dataset fits entirely in the stack;
// above it, an increasing fraction must live in the planar backing store.
var CapacityRatios = []float64{0.5, 1, 2, 4, 8}

// capacityModes is the presentation order of the three disciplines.
var capacityModes = []string{
	string(stack.ModeMemory),
	string(stack.ModeHWCache),
	string(stack.ModeMemCache),
}

// CapacityStudy asks the question the paper sidesteps by construction: what
// happens when the dataset does NOT fit in the die stack? Following
// Bakhshalipour et al.'s taxonomy, it runs every BMLA kernel on Millipede
// under the three capacity disciplines (stack-as-part-of-memory,
// stack-as-hardware-cache, stack-as-memcache) with the stack sized to each
// of CapacityRatios. Rows are bench@ratio, series are the modes, values are
// throughput in simulated Mwords/s; the text is the per-ratio geomean
// comparison with the winning discipline.
//
// Ratios are nominal: the stack size is derived from the kernel's streamed
// dataset size (threads x stream words x 4 B, row-rounded) and then rounded
// up to the HWCache set granule so all three modes see identical capacity.
func CapacityStudy(ctx context.Context, p arch.Params, scale float64, seed uint64) (*Figure, string, error) {
	benches := workloads.All()
	var specs []spec
	// The set granule keeps hwcache geometry exact (an integral number of
	// full sets) and is shared by all modes so capacities stay comparable.
	granule := stack.DefaultAssoc * p.DRAM.RowBytes
	for _, b := range benches {
		records := RecordsFor(b, scale)
		datasetBytes := p.Threads() * b.StreamWords(records) * 4
		if r := datasetBytes % p.DRAM.RowBytes; r != 0 {
			datasetBytes += p.DRAM.RowBytes - r
		}
		for _, ratio := range CapacityRatios {
			sb := int(float64(datasetBytes) / ratio)
			if r := sb % granule; r != 0 {
				sb += granule - r
			}
			if sb < granule {
				sb = granule
			}
			for _, mode := range capacityModes {
				q := p
				q.StackMode, q.StackBytes = mode, sb
				specs = append(specs, spec{ArchMillipede, b, q, records, seed})
			}
		}
	}
	res, err := runSpecs(ctx, specs)
	if err != nil {
		return nil, "", err
	}

	fig := &Figure{
		Name:   "Capacity study: stack as memory / hwcache / memcache (Mwords/s, rows are bench@dataset-to-stack ratio)",
		Series: capacityModes,
	}
	perRatio := map[float64]map[string][]float64{} // ratio -> mode -> Mwords/s
	hitOf := map[float64]map[string][]float64{}    // ratio -> mode -> hit rate
	for _, b := range benches {
		for _, ratio := range CapacityRatios {
			row := Row{Bench: fmt.Sprintf("%s@%gx", b.Name(), ratio), Values: map[string]float64{}}
			if perRatio[ratio] == nil {
				perRatio[ratio] = map[string][]float64{}
				hitOf[ratio] = map[string][]float64{}
			}
			for _, mode := range capacityModes {
				r := res[0]
				res = res[1:]
				mw := float64(r.Words) / (float64(r.Time) / 1e12) / 1e6
				row.Values[mode] = mw
				perRatio[ratio][mode] = append(perRatio[ratio][mode], mw)
				hr := 1.0 // pass-through: everything is stack-resident
				if s := r.Stack; s.Mode != "" {
					hr = s.HitRate()
				}
				hitOf[ratio][mode] = append(hitOf[ratio][mode], hr)
			}
			fig.Rows = append(fig.Rows, row)
		}
	}
	fig.geomeans()

	var sb strings.Builder
	sb.WriteString("Per-ratio geomean throughput (Mwords/s) across all kernels:\n")
	sb.WriteString(fmt.Sprintf("  %-8s %12s %12s %12s %12s\n", "ratio", "memory", "hwcache", "memcache", "best"))
	for _, ratio := range CapacityRatios {
		best, bestV := "", 0.0
		gm := map[string]float64{}
		for _, mode := range capacityModes {
			gm[mode] = stats.Geomean(perRatio[ratio][mode])
			if gm[mode] > bestV {
				best, bestV = mode, gm[mode]
			}
		}
		sb.WriteString(fmt.Sprintf("  %-8s %12.3f %12.3f %12.3f %12s\n",
			fmt.Sprintf("%gx", ratio),
			gm[string(stack.ModeMemory)], gm[string(stack.ModeHWCache)],
			gm[string(stack.ModeMemCache)], best))
	}
	sb.WriteString("Mean stack hit rate by ratio (memory / hwcache / memcache):\n")
	for _, ratio := range CapacityRatios {
		m := func(mode string) float64 {
			vs := hitOf[ratio][mode]
			var t float64
			for _, v := range vs {
				t += v
			}
			return t / float64(len(vs))
		}
		sb.WriteString(fmt.Sprintf("  %-8s %.3f / %.3f / %.3f\n", fmt.Sprintf("%gx", ratio),
			m(string(stack.ModeMemory)), m(string(stack.ModeHWCache)), m(string(stack.ModeMemCache))))
	}
	sb.WriteString(capacityVerdict(perRatio))
	return fig, sb.String(), nil
}

// capacityVerdict summarizes the discipline ranking and any crossover
// between the two caching disciplines across the swept ratios.
func capacityVerdict(perRatio map[float64]map[string][]float64) string {
	var sb strings.Builder
	prevBest := ""
	for _, ratio := range CapacityRatios {
		best, bestV := "", 0.0
		for _, mode := range capacityModes {
			if g := stats.Geomean(perRatio[ratio][mode]); g > bestV {
				best, bestV = mode, g
			}
		}
		if prevBest != "" && best != prevBest {
			sb.WriteString(fmt.Sprintf("Crossover: best discipline flips from %s to %s at ratio %gx.\n",
				prevBest, best, ratio))
		}
		prevBest = best
	}
	if sb.Len() == 0 {
		sb.WriteString(fmt.Sprintf("No overall crossover: %s wins at every swept ratio "+
			"(single-pass BMLA streams have no reuse for a cache to exploit).\n", prevBest))
	}
	return sb.String()
}
