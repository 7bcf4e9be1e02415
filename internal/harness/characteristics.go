package harness

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/energy"
	"repro/internal/kernels"
	"repro/internal/layout"
	"repro/internal/workloads"
)

// CharacteristicsStudy quantifies the paper's first contribution (Sections
// III-C/III-D): compactness and row-density are *necessary* for bandwidth-
// efficient PNM. It runs, on the same Millipede processor:
//
//   - count — compact and row-dense: the live state fits in local memory
//     and every streamed byte is used once;
//   - join — not compact: every input key rescans a second table larger
//     than the corelet-local memory, so the second operand is re-streamed
//     from DRAM on every record.
//
// Reported per workload: effective input throughput (input words per
// microsecond) and DRAM traffic amplification (DRAM bytes read per input
// byte). Join's amplification grows with the table size and its input
// throughput collapses — the paper's argument that such workloads
// "underutilize PNM's bandwidth" irrespective of the architecture.
func CharacteristicsStudy(ctx context.Context, p arch.Params, scale float64, seed uint64) (*Figure, error) {
	if seed == 0 {
		seed = Seed
	}
	f := &Figure{
		Name:   "Characteristics study (Sec. III-D): compact (count) vs non-compact (join) on Millipede",
		Series: []string{"input-words/us", "dram-amplification"},
	}

	// The compact baseline and the non-compact join (a table of 2x the
	// corelet-local memory) are independent runs on the worker pool. The
	// join gets an eighth of count's records, but at least one per thread.
	cb := workloads.CountBench()
	records := RecordsFor(cb, scale)
	tableWords := 2 * p.LocalBytes / 4
	var cr RunResult
	var jr core.Result
	var jWords uint64
	err := runJobs(ctx, 2, func(i int) (err error) {
		if i == 0 {
			cr, _, err = Run(ArchMillipede, cb, p, records, Options{Seed: seed})
		} else {
			jr, jWords, err = RunJoin(p, tableWords, max(records/8, 1), seed)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	f.Rows = append(f.Rows, Row{Bench: "count", Values: map[string]float64{
		"input-words/us":     float64(cr.Words) / (float64(cr.Time) / 1e6),
		"dram-amplification": float64(cr.DRAMBytes) / (float64(cr.Words) * 4),
	}})
	f.Rows = append(f.Rows, Row{Bench: "join", Values: map[string]float64{
		"input-words/us":     float64(jWords) / (float64(jr.Time) / 1e6),
		"dram-amplification": float64(jr.DRAM.BytesRead) / (float64(jWords) * 4),
	}})
	return f, nil
}

// RunJoin executes the Section III-D join anti-benchmark on Millipede: each
// of the threads' single-word keys is matched against a shared table of
// tableWords words (exceeding local memory). The result is verified against
// a host-side reference join.
//
// It is the one launch built outside Run: the join has its own kernel, a
// table region after the stream and a host-side reference join instead of
// a benchmark's golden MapReduce state.
func RunJoin(p arch.Params, tableWords, records int, seed uint64) (core.Result, uint64, error) {
	if seed == 0 {
		seed = Seed
	}
	k := kernels.Join(tableWords)
	lay := layout.Layout{
		RowBytes: p.DRAM.RowBytes, Corelets: p.Corelets, Contexts: p.Contexts,
		Interleave: layout.Slab,
	}
	if err := lay.Validate(); err != nil {
		return core.Result{}, 0, err
	}
	sl, err := kernels.LocalState(k, p.LocalBytes, p.Contexts)
	if err != nil {
		return core.Result{}, 0, err
	}

	// Keys and table share a small value domain so matches occur.
	rng := datagen.NewRNG(seed)
	table := make([]uint32, tableWords)
	for i := range table {
		table[i] = uint32(rng.Intn(1024))
	}
	streams := make([][]uint32, lay.Threads())
	for t := range streams {
		trng := datagen.NewRNG(seed + uint64(t) + 1)
		streams[t] = make([]uint32, records)
		for i := range streams[t] {
			streams[t][i] = uint32(trng.Intn(1024))
		}
	}

	args := kernels.ArgsAndConsts(k, lay.Walk(), sl, records)
	// K1 carries the table's byte address, known only after packing.
	tableBase := uint32(lay.RegionBytes(records))
	args[kernels.ArgK1] = tableBase

	pr, err := core.NewProcessor(p, energy.Default(), core.Launch{
		Prog: k.Prog, Interleave: layout.Slab, Streams: streams, Args: args, Table: table,
	})
	if err != nil {
		return core.Result{}, 0, err
	}
	if pr.TableBase() != tableBase {
		return core.Result{}, 0, fmt.Errorf("harness: table base mismatch: %d vs %d", pr.TableBase(), tableBase)
	}
	res, err := pr.Run(0)
	if err != nil {
		return core.Result{}, 0, err
	}

	// Verify matches/probes per thread against a reference join.
	counts := map[uint32]uint32{}
	for _, v := range table {
		counts[v]++
	}
	for c := 0; c < p.Corelets; c++ {
		for ctx := 0; ctx < p.Contexts; ctx++ {
			var want uint32
			for _, key := range streams[lay.ThreadID(c, ctx)] {
				want += counts[key]
			}
			base := sl.Base0 + uint32(ctx)*sl.ContextMult
			if got := pr.ReadState(c, base); got != want {
				return core.Result{}, 0, fmt.Errorf("harness: join mismatch at corelet %d ctx %d: %d vs %d", c, ctx, got, want)
			}
			if probes := pr.ReadState(c, base+4); probes != uint32(records) {
				return core.Result{}, 0, fmt.Errorf("harness: join probes %d, want %d", probes, records)
			}
		}
	}
	return res, uint64(lay.Threads() * records), nil
}
