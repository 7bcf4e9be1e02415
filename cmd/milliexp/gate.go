package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// gateScale is the input scale -benchjson writes a fresh baseline at. It is
// large enough that every run spends most of its simulated time in steady
// state, and small enough that the 48 runs take seconds.
const gateScale = 0.25

// gateArchs is Figure 3's architecture set, in the order baselines list
// their entries.
var gateArchs = []string{
	harness.ArchGPGPU, harness.ArchVWS, harness.ArchSSMC,
	harness.ArchMillipedeNoFC, harness.ArchVWSRow, harness.ArchMillipede,
}

// baseline is a BENCH_*.json determinism baseline: the input scale and, per
// architecture x benchmark, the fields a timing-neutral change must leave
// bit-identical. Older baselines also carry wall-clock throughput fields;
// decoding ignores them.
type baseline struct {
	Scale   float64 `json:"scale"`
	Entries []entry `json:"entries"`
}

type entry struct {
	Arch      string `json:"arch"`
	Bench     string `json:"bench"`
	Records   int    `json:"records"`    // per-thread input records
	SimCycles uint64 `json:"sim_cycles"` // compute-clock cycles simulated
	SimPicos  int64  `json:"sim_picos"`  // simulated time (ps)
	Insts     uint64 `json:"insts"`      // instructions executed
}

// collect runs every gateArchs x benchmark pair through the verified
// harness.Run at scale, so an entry can never come from a functionally
// wrong simulation.
func collect(p arch.Params, scale float64) (*baseline, error) {
	r := &baseline{Scale: scale}
	for _, a := range gateArchs {
		for _, b := range workloads.All() {
			records := harness.RecordsFor(b, scale)
			res, _, err := harness.Run(a, b, p, records, harness.Options{})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", a, b.Name(), err)
			}
			r.Entries = append(r.Entries, entry{
				Arch: a, Bench: b.Name(), Records: records,
				SimCycles: res.Cycles, SimPicos: int64(res.Time), Insts: res.Insts,
			})
		}
	}
	return r, nil
}

// diff compares cur against base, keyed by {arch, bench}, and returns one
// line per mismatched field or per entry present in only one of them. An
// empty result means cur is bit-identical to base. Because cur always holds
// every gate entry, a baseline that lacks one, or is not a baseline at all,
// fails.
func diff(base, cur *baseline) []string {
	type key struct{ a, b string }
	idx := map[key]entry{}
	for _, e := range base.Entries {
		idx[key{e.Arch, e.Bench}] = e
	}
	var diffs []string
	seen := map[key]bool{}
	for _, e := range cur.Entries {
		k := key{e.Arch, e.Bench}
		seen[k] = true
		b, ok := idx[k]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s/%s: missing from baseline", e.Arch, e.Bench))
			continue
		}
		chk := func(field string, want, got uint64) {
			if want != got {
				diffs = append(diffs, fmt.Sprintf("%s/%s: %s %d != baseline %d", e.Arch, e.Bench, field, got, want))
			}
		}
		chk("records", uint64(b.Records), uint64(e.Records))
		chk("sim_cycles", b.SimCycles, e.SimCycles)
		chk("sim_picos", uint64(b.SimPicos), uint64(e.SimPicos))
		chk("insts", b.Insts, e.Insts)
	}
	for _, e := range base.Entries {
		if !seen[key{e.Arch, e.Bench}] {
			diffs = append(diffs, fmt.Sprintf("%s/%s: missing from new run", e.Arch, e.Bench))
		}
	}
	return diffs
}

func readBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r baseline
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *baseline) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
