package harness

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Row is one benchmark's values across a figure's series.
type Row struct {
	Bench  string
	Values map[string]float64
}

// Figure is a reproduced table or figure: named series over the benchmark
// rows, plus a geomean row where meaningful.
type Figure struct {
	Name    string
	Series  []string // presentation order
	Rows    []Row
	Geomean map[string]float64
}

// Render prints the figure as an aligned text table.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Name)
	fmt.Fprintf(&b, "%-10s", "benchmark")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %14s", s)
	}
	b.WriteString("\n")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-10s", r.Bench)
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %14.3f", r.Values[s])
		}
		b.WriteString("\n")
	}
	if len(f.Geomean) > 0 {
		fmt.Fprintf(&b, "%-10s", "geomean")
		for _, s := range f.Series {
			if v, ok := f.Geomean[s]; ok {
				fmt.Fprintf(&b, " %14.3f", v)
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func (f *Figure) geomeans() {
	f.Geomean = map[string]float64{}
	for _, s := range f.Series {
		var vs []float64
		ok := true
		for _, r := range f.Rows {
			v, has := r.Values[s]
			if !has || v <= 0 {
				ok = false
				break
			}
			vs = append(vs, v)
		}
		if ok && len(vs) > 0 {
			f.Geomean[s] = stats.Geomean(vs)
		}
	}
}

// runJobs executes fn(0..n-1) on at most GOMAXPROCS worker goroutines and
// returns the lowest-indexed error. The figure generators' runs are
// independent deterministic simulations, so they parallelize freely — but
// each simulation holds a full node (DRAM backing store included), so the
// pool bounds peak memory and scheduler pressure by the host's parallelism
// instead of the job count (a figure can fan out 48+ runs).
//
// Cancelling ctx stops workers from claiming further jobs; in-flight
// simulations finish (the cycle loop is not interruptible) and the sweep
// returns ctx.Err() instead of a complete figure.
func runJobs(ctx context.Context, n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// spec names one verified run: its architecture, benchmark, parameters,
// per-thread record count and dataset seed (zero means Seed).
type spec struct {
	arch    string
	b       *workloads.Benchmark
	p       arch.Params
	records int
	seed    uint64
}

// runSpecs runs every spec through Run on runJobs' worker pool and returns
// the results in list order. It is how an experiment simulates: each one
// lists its runs, then folds the results into rows by list position.
func runSpecs(ctx context.Context, specs []spec) ([]RunResult, error) {
	res := make([]RunResult, len(specs))
	err := runJobs(ctx, len(specs), func(i int) (err error) {
		s := specs[i]
		if res[i], _, err = Run(s.arch, s.b, s.p, s.records, Options{Seed: s.seed}); err != nil {
			return fmt.Errorf("%s/%s: %w", s.arch, s.b.Name(), err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runAll executes the given architectures over all benchmarks at the given
// record scale, returning results[arch][bench].
func runAll(ctx context.Context, p arch.Params, archs []string, scale float64, seed uint64) (map[string]map[string]RunResult, error) {
	var specs []spec
	for _, a := range archs {
		for _, b := range workloads.All() {
			specs = append(specs, spec{a, b, p, RecordsFor(b, scale), seed})
		}
	}
	res, err := runSpecs(ctx, specs)
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]RunResult{}
	for i, s := range specs {
		if out[s.arch] == nil {
			out[s.arch] = map[string]RunResult{}
		}
		out[s.arch][s.b.Name()] = res[i]
	}
	return out, nil
}

// sweep runs arch on each benchmark once per series of f, where set applies
// series i's setting to a copy of p, and appends one row per benchmark:
// each series' performance relative to series base, then the geomeans.
func (f *Figure) sweep(ctx context.Context, a string, benches []*workloads.Benchmark, p arch.Params, scale float64, seed uint64, base int, set func(q *arch.Params, i int)) error {
	var specs []spec
	for _, b := range benches {
		for i := range f.Series {
			q := p
			set(&q, i)
			specs = append(specs, spec{a, b, q, RecordsFor(b, scale), seed})
		}
	}
	res, err := runSpecs(ctx, specs)
	if err != nil {
		return err
	}
	for _, b := range benches {
		t := res[:len(f.Series)]
		res = res[len(f.Series):]
		row := Row{Bench: b.Name(), Values: map[string]float64{}}
		for i, s := range f.Series {
			row.Values[s] = float64(t[base].Time) / float64(t[i].Time)
		}
		f.Rows = append(f.Rows, row)
	}
	f.geomeans()
	return nil
}

// Fig3 reproduces Figure 3: performance of each PNM architecture normalized
// to GPGPU-with-prefetch, benchmarks in the paper's order.
func Fig3(ctx context.Context, p arch.Params, scale float64, seed uint64) (*Figure, error) {
	archs := []string{ArchGPGPU, ArchVWS, ArchSSMC, ArchMillipedeNoFC, ArchVWSRow, ArchMillipede}
	res, err := runAll(ctx, p, archs, scale, seed)
	if err != nil {
		return nil, err
	}
	f := &Figure{Name: "Figure 3: performance normalized to GPGPU (higher is better)", Series: archs}
	for _, b := range workloads.All() {
		base := float64(res[ArchGPGPU][b.Name()].Time)
		row := Row{Bench: b.Name(), Values: map[string]float64{}}
		for _, a := range archs {
			row.Values[a] = base / float64(res[a][b.Name()].Time)
		}
		f.Rows = append(f.Rows, row)
	}
	f.geomeans()
	return f, nil
}

// Fig4 reproduces Figure 4: total energy normalized to GPGPU (lower is
// better), including the rate-matched Millipede variant. Component
// breakdowns are exposed via Fig4Breakdown.
func Fig4(ctx context.Context, p arch.Params, scale float64, seed uint64) (*Figure, *Figure, error) {
	archs := []string{ArchGPGPU, ArchVWS, ArchSSMC, ArchVWSRow, ArchMillipede, ArchMillipedeRM}
	res, err := runAll(ctx, p, archs, scale, seed)
	if err != nil {
		return nil, nil, err
	}
	f := &Figure{Name: "Figure 4: energy normalized to GPGPU (lower is better)", Series: archs}
	parts := &Figure{
		Name:   "Figure 4 (breakdown): core / dram / leak shares of each architecture's energy",
		Series: []string{},
	}
	for _, a := range archs {
		parts.Series = append(parts.Series, a+":core", a+":dram", a+":leak")
	}
	for _, b := range workloads.All() {
		base := res[ArchGPGPU][b.Name()].Energy.TotalPJ()
		row := Row{Bench: b.Name(), Values: map[string]float64{}}
		prow := Row{Bench: b.Name(), Values: map[string]float64{}}
		for _, a := range archs {
			e := res[a][b.Name()].Energy
			row.Values[a] = e.TotalPJ() / base
			prow.Values[a+":core"] = e.CorePJ / base
			prow.Values[a+":dram"] = e.DRAMPJ / base
			prow.Values[a+":leak"] = e.LeakPJ / base
		}
		f.Rows = append(f.Rows, row)
		parts.Rows = append(parts.Rows, prow)
	}
	f.geomeans()
	return f, parts, nil
}

// NodeProcessors is the node size of Section VI-C's comparison: the paper's
// Figure 5 pits a 32-processor Millipede node against one 8-core multicore.
const NodeProcessors = 32

// Fig5 reproduces Figure 5: full-node Millipede speedup and energy
// improvement over the conventional multicore.
func Fig5(ctx context.Context, p arch.Params, scale float64, seed uint64) (*Figure, error) {
	f := &Figure{Name: "Figure 5: 32-processor Millipede node vs conventional 8-core multicore",
		Series: []string{"speedup", "energy-improvement"}}
	res, err := runAll(ctx, p, []string{ArchMillipede, ArchMulticore}, scale, seed)
	if err != nil {
		return nil, err
	}
	for _, b := range workloads.All() {
		mp, mc := res[ArchMillipede][b.Name()], res[ArchMulticore][b.Name()]
		// Equal-total-input comparison: the multicore processed the same
		// records as ONE Millipede processor; the full node runs 32
		// processors in parallel while the multicore must serialize 32x
		// the work.
		speedup := float64(NodeProcessors) * float64(mc.Time) / float64(mp.Time)
		// Node energy = 32 x per-processor energy; multicore at 32x input
		// = 32 x measured energy, so the per-slice ratio stands.
		eImp := mc.Energy.TotalPJ() / mp.Energy.TotalPJ()
		f.Rows = append(f.Rows, Row{Bench: b.Name(), Values: map[string]float64{
			"speedup": speedup, "energy-improvement": eImp,
		}})
	}
	f.geomeans()
	return f, nil
}

// Fig6 reproduces Figure 6: performance versus system size (32 vs 64
// corelets/lanes/cores with doubled memory bandwidth), normalized to the
// 32-lane GPGPU. The 64-lane points double bandwidth the physical way — a
// second die-stack channel — and each also gets a "-wide" cross-check
// column that doubles the single channel's clock instead, the pre-fabric
// approximation; the two should land close together.
func Fig6(ctx context.Context, p arch.Params, scale float64, seed uint64) (*Figure, error) {
	sizes := []int{32, 64}
	archs := []string{ArchGPGPU, ArchSSMC, ArchMillipede}
	f := &Figure{Name: "Figure 6: speedup vs system size (normalized to 32-lane GPGPU)"}
	for _, n := range sizes {
		for _, a := range archs {
			f.Series = append(f.Series, fmt.Sprintf("%s-%d", a, n))
		}
	}
	for _, a := range archs {
		f.Series = append(f.Series, fmt.Sprintf("%s-64-wide", a))
	}
	var specs []spec
	var cols []string // cols[i] is specs[i]'s series
	for _, n := range sizes {
		for _, b := range workloads.All() {
			// Equal total input across sizes: more lanes means fewer
			// records per thread, never below the minimum-records floor.
			records := recordsForSize(b, scale, n)
			for _, a := range archs {
				specs = append(specs, spec{a, b, p.WithSize(n), records, seed})
				cols = append(cols, fmt.Sprintf("%s-%d", a, n))
				if n == 64 {
					specs = append(specs, spec{a, b, p.WithSizeWidthScaled(n), records, seed})
					cols = append(cols, a+"-64-wide")
				}
			}
		}
	}
	res, err := runSpecs(ctx, specs)
	if err != nil {
		return nil, err
	}
	base := map[string]float64{}
	rows := map[string]Row{}
	var order []string
	for i, s := range specs {
		name := s.b.Name()
		if _, ok := rows[name]; !ok {
			rows[name] = Row{Bench: name, Values: map[string]float64{}}
			order = append(order, name)
		}
		if cols[i] == ArchGPGPU+"-32" {
			base[name] = float64(res[i].Time)
		}
		rows[name].Values[cols[i]] = float64(res[i].Time)
	}
	for _, name := range order {
		row := rows[name]
		for k, v := range row.Values {
			row.Values[k] = base[name] / v
		}
		f.Rows = append(f.Rows, row)
	}
	f.geomeans()
	return f, nil
}

// ChannelSweepChannelHz is the per-channel clock of the channel sweep:
// vault-grade 150 MHz channels (the examples/ratematch bandwidth-bound
// regime), so aggregate bandwidth genuinely scales with channel count. At
// the full 1.2 GHz Table III channel the model is compute-bound for all
// eight kernels (DESIGN.md §7) and the sweep would be flat.
const ChannelSweepChannelHz = 150e6

// ChannelSweep measures Millipede across 1/2/4 die-stack channels on every
// benchmark, normalized to the single-channel run. Memory-bound kernels
// (count, sample) gain the most from extra channels; compute-bound ones
// (kmeans, gda) barely move.
func ChannelSweep(ctx context.Context, p arch.Params, scale float64, seed uint64) (*Figure, error) {
	channels := []int{1, 2, 4}
	f := &Figure{Name: "Channel sweep: Millipede speedup vs die-stack channel count (150 MHz vault channels, normalized to 1 channel)"}
	for _, n := range channels {
		f.Series = append(f.Series, fmt.Sprintf("%d-ch", n))
	}
	err := f.sweep(ctx, ArchMillipede, workloads.All(), p, scale, seed, 0, func(q *arch.Params, i int) {
		q.ChannelHz, q.Channels = ChannelSweepChannelHz, channels[i]
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Fig7 reproduces Figure 7: Millipede speedup versus prefetch-buffer entry
// count (2, 4, 8, 16, 32), normalized to 2 entries.
func Fig7(ctx context.Context, p arch.Params, scale float64, seed uint64) (*Figure, error) {
	counts := []int{2, 4, 8, 16, 32}
	f := &Figure{Name: "Figure 7: Millipede speedup vs prefetch buffer count (normalized to 2 buffers)"}
	for _, n := range counts {
		f.Series = append(f.Series, fmt.Sprintf("%d-buffers", n))
	}
	err := f.sweep(ctx, ArchMillipede, workloads.All(), p, scale, seed, 0, func(q *arch.Params, i int) {
		q.PrefetchEntries = counts[i]
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// TableIV reproduces Table IV: per-benchmark instructions per input word,
// branches per instruction, SSMC's DRAM row miss rate, and Millipede's
// rate-matched clock.
func TableIV(ctx context.Context, p arch.Params, scale float64, seed uint64) (*Figure, error) {
	f := &Figure{Name: "Table IV: benchmark parameters and characteristics",
		Series: []string{"insts/word", "branches/inst", "ssmc-row-miss", "rate-clock-MHz"}}
	res, err := runAll(ctx, p, []string{ArchMillipedeRM, ArchSSMC}, scale, seed)
	if err != nil {
		return nil, err
	}
	for _, b := range workloads.All() {
		mp, sc := res[ArchMillipedeRM][b.Name()], res[ArchSSMC][b.Name()]
		f.Rows = append(f.Rows, Row{Bench: b.Name(), Values: map[string]float64{
			"insts/word":     mp.InstsPerWord,
			"branches/inst":  mp.BranchesPerInst,
			"ssmc-row-miss":  sc.RowMissRate,
			"rate-clock-MHz": mp.FinalHz / 1e6,
		}})
	}
	return f, nil
}

// TableIII renders the hardware configuration.
func TableIII(p arch.Params) string {
	var b strings.Builder
	w := func(k string, v interface{}) { fmt.Fprintf(&b, "%-46s %v\n", k, v) }
	b.WriteString("Table III: hardware parameters\n")
	w("corelets/lanes/cores per processor/SM", p.Corelets)
	w("multithreading contexts", p.Contexts)
	w("compute clock (MHz)", p.ComputeHz/1e6)
	w("registers per corelet/lane/core", 32)
	w("local memory per corelet (B)", p.LocalBytes)
	w("prefetch buffer per corelet", fmt.Sprintf("%d x 64B", p.PrefetchEntries))
	w("SSMC L1D per core (B)", p.SSMCL1Bytes)
	w("GPGPU L1D per SM (B)", p.GPGPUL1Bytes)
	w("GPGPU shared memory per SM (B)", p.SharedMemBytes)
	w("channel clock (MHz)", p.ChannelHz/1e6)
	w("channel width (bits)", p.DRAM.ChannelBytes*8)
	w("die-stack channels (row-interleaved)", p.Channels)
	w("DRAM tCAS-tRP-tRCD-tRAS", fmt.Sprintf("%d-%d-%d-%d", p.DRAM.TCAS, p.DRAM.TRP, p.DRAM.TRCD, p.DRAM.TRAS))
	w("DRAM row size (B), banks/channel", fmt.Sprintf("%d, %d", p.DRAM.RowBytes, p.DRAM.Banks))
	w("memory controller", fmt.Sprintf("FR-FCFS (%d deep)", p.MemQueueDepth))
	// The capacity-discipline lines appear only when a discipline is
	// configured, so the paper's default table is unchanged.
	if p.StackMode != "" || p.StackBytes > 0 {
		mode := p.StackMode
		if mode == "" {
			mode = string(stack.ModeMemory)
		}
		w("die-stack capacity discipline", mode)
		w("die-stack capacity (B)", p.StackBytes)
		backing := "sized to dataset"
		if p.BackingBytes > 0 {
			backing = fmt.Sprintf("%d", p.BackingBytes)
		}
		w("planar backing capacity (B)", backing)
		lat := p.BackingLatency
		if lat == 0 {
			lat = stack.DefaultBackingLatency
		}
		w("planar backing latency (channel cycles)", lat)
	}
	return b.String()
}

// TableII renders the application-behavior summary.
func TableII() string {
	var b strings.Builder
	b.WriteString("Table II: summary of application behavior\n")
	fmt.Fprintf(&b, "%-10s %-14s %-12s %s\n", "benchmark", "record", "state words", "live state")
	rows := []struct{ name, rec, state string }{
		{"count", "rating (1w)", "dual-band bin counts"},
		{"sample", "rating (1w)", "per-bin count + ring + rejected"},
		{"variance", "rating (1w)", "per-bin count/sum/sumsq"},
		{"nbayes", "year+8 dims", "cond. probabilities + class counts"},
		{"classify", "8-dim point", "per-centroid counts"},
		{"kmeans", "8-dim point", "per-centroid counts + coord sums"},
		{"pca", "12-dim point", "mean + second-moment matrix"},
		{"gda", "label+14 dims", "class counts/means + pooled cov"},
	}
	for _, r := range rows {
		for _, w := range workloads.All() {
			if w.Name() == r.name {
				fmt.Fprintf(&b, "%-10s %-14s %-12d %s\n", r.name, r.rec, w.K.StateWords, r.state)
			}
		}
	}
	return b.String()
}
