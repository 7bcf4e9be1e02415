// Package benchreport measures the simulator's own throughput — how many
// simulated compute cycles and instructions each architecture model executes
// per wall-clock second — and records it as a BENCH_N.json file in the
// repository root. Every performance PR regenerates the file at the next N,
// so the sequence BENCH_1.json, BENCH_2.json, ... is the repo's benchmark
// trajectory: the geomean simulated-cycles/sec of each entry must not
// regress against its predecessor.
//
// Measurements run serially (one simulation at a time) so wall-clock numbers
// are not distorted by host scheduling; each run is still verified against
// the golden MapReduce reference by the harness, so a throughput number can
// never come from a functionally wrong simulation.
package benchreport

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// DefaultScale is the pinned input scale at which throughput is measured.
// It is large enough that each run is dominated by the cycle loop rather
// than setup, and small enough that a full collection stays under a few
// minutes of wall time.
const DefaultScale = 0.25

// SchemaVersion identifies the BENCH_*.json layout.
const SchemaVersion = 1

// Entry is one {architecture x benchmark} throughput measurement.
type Entry struct {
	Arch         string  `json:"arch"`
	Bench        string  `json:"bench"`
	Records      int     `json:"records"`      // per-thread input records
	SimCycles    uint64  `json:"sim_cycles"`   // compute-clock cycles simulated
	SimPicos     int64   `json:"sim_picos"`    // simulated time (ps)
	Insts        uint64  `json:"insts"`        // instructions executed
	WallSeconds  float64 `json:"wall_seconds"` // host wall time of the run
	CyclesPerSec float64 `json:"cycles_per_sec"`
	InstsPerSec  float64 `json:"insts_per_sec"`
	// Memory-fabric contention counters (informational — not part of the
	// determinism gate, so reports written before they existed still diff
	// clean).
	MemStallCycles  uint64 `json:"mem_stall_cycles,omitempty"`
	MemMaxOccupancy int    `json:"mem_max_occupancy,omitempty"`
	MemRejected     uint64 `json:"mem_rejected,omitempty"`
	// Heap allocations made inside the run's cycle loop (count and bytes).
	// The interpreter is designed to be allocation-free in steady state —
	// TestCycleLoopAllocFree gates it at zero — so a nonzero value here flags
	// a hot-path allocation that crept in. Informational, like the
	// mem_* counters: excluded from the determinism gate.
	AllocsPerRun uint64 `json:"allocs_per_run,omitempty"`
	BytesPerRun  uint64 `json:"bytes_per_run,omitempty"`
	// Quiescence fast-forward counters: clock edges the engine elided and the
	// skip windows they were elided in. Skipping is bit-identical on or off,
	// so these are informational, not part of the determinism gate; zero
	// means the run replayed every edge (skip off, or nothing to skip).
	SkippedEdges uint64 `json:"skipped_edges,omitempty"`
	SkipWindows  uint64 `json:"skip_windows,omitempty"`
	// Die-stacked capacity backend counters (internal/stack), present only
	// when the collection ran with a StackMode configured. Informational,
	// like the mem_* counters: excluded from the determinism gate, and absent
	// entirely on the default pass-through machine.
	StackMode          string  `json:"stack_mode,omitempty"`
	StackHitRate       float64 `json:"stack_hit_rate,omitempty"`
	StackBackingReads  uint64  `json:"stack_backing_reads,omitempty"`
	StackBackingWrites uint64  `json:"stack_backing_writes,omitempty"`
	StackWritebacks    uint64  `json:"stack_writebacks,omitempty"`
}

// DeterminismFields are the Entry fields that must be bit-identical between
// two reports collected at the same scale on a timing-neutral change.
var DeterminismFields = []string{"records", "sim_cycles", "sim_picos", "insts"}

// DiffDeterminism compares the determinism fields of cur against base,
// keyed by {arch, bench}, and returns one human-readable line per mismatch
// (including entries present in only one report). An empty slice means cur
// is bit-identical to base where it matters.
func DiffDeterminism(base, cur *Report) []string {
	type key struct{ a, b string }
	idx := map[key]Entry{}
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
			diffs = append(diffs, fmt.Sprintf("%s/%s: missing from new report", e.Arch, e.Bench))
		}
	}
	return diffs
}

// Report is one recorded benchmark-trajectory point.
type Report struct {
	Schema    int     `json:"schema"`
	CreatedAt string  `json:"created_at"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	NumCPU    int     `json:"num_cpu"`
	Scale     float64 `json:"scale"`
	// NoSkip records whether quiescence time skipping was disabled for the
	// collection. It cannot change the determinism fields — only the
	// wall-clock numbers.
	NoSkip bool `json:"no_skip,omitempty"`
	// Fig3WallSeconds is the wall time of a full harness.Fig3 reproduction
	// at Scale — the end-to-end number a future PR has to beat.
	Fig3WallSeconds float64 `json:"fig3_wall_seconds"`
	Entries         []Entry `json:"entries"`
	// GeomeanCyclesPerSec maps each architecture to the geomean of its
	// per-benchmark simulated-cycles/sec, plus the cross-architecture
	// geomean under the key "all".
	GeomeanCyclesPerSec map[string]float64 `json:"geomean_cycles_per_sec"`
}

// Fig3Archs returns Figure 3's workload set: the six fixed-clock PNM
// architectures whose cycle loops this report tracks.
func Fig3Archs() []string {
	return []string{
		harness.ArchGPGPU, harness.ArchVWS, harness.ArchSSMC,
		harness.ArchMillipedeNoFC, harness.ArchVWSRow, harness.ArchMillipede,
	}
}

// Collect measures throughput for every architecture in archs over all
// benchmarks at the given scale, then times one full Fig3 reproduction.
func Collect(p arch.Params, archs []string, scale float64) (*Report, error) {
	r := &Report{
		Schema:    SchemaVersion,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Scale:     scale,
		NoSkip:    p.NoSkip,
	}
	for _, a := range archs {
		for _, b := range workloads.All() {
			records := harness.RecordsFor(b, scale)
			// The cycle loop is allocation-free (TestCycleLoopAllocFree), so
			// GC has nothing productive to do during the timed run; pausing
			// it keeps runtime background work out of both the wall clock
			// and the allocs_per_run ledger. The blocking runtime.GC() also
			// drains any concurrent cycle already in flight — pausing alone
			// doesn't stop one, and its mark workers would otherwise charge
			// a few stray allocations to whichever entry they finish under.
			gc := debug.SetGCPercent(-1)
			runtime.GC()
			t0 := time.Now()
			res, _, err := harness.Run(a, b, p, records, harness.Options{})
			wall := time.Since(t0).Seconds()
			debug.SetGCPercent(gc)
			if err != nil {
				return nil, fmt.Errorf("benchreport: %s/%s: %w", a, b.Name(), err)
			}
			e := Entry{
				Arch: a, Bench: b.Name(), Records: records,
				SimCycles: res.Cycles, SimPicos: int64(res.Time), Insts: res.Insts,
				WallSeconds:    wall,
				MemStallCycles: res.MemStallCycles, MemMaxOccupancy: res.MemMaxOccupancy,
				MemRejected:  res.MemRejected,
				AllocsPerRun: res.CycleAllocs, BytesPerRun: res.CycleBytes,
				SkippedEdges: res.SkippedEdges, SkipWindows: res.SkipWindows,
			}
			if res.Stack.Mode != "" {
				e.StackMode = res.Stack.Mode
				e.StackHitRate = res.Stack.HitRate()
				e.StackBackingReads = res.Stack.Backing.Reads
				e.StackBackingWrites = res.Stack.Backing.Writes
				e.StackWritebacks = res.Stack.Writebacks
			}
			if wall > 0 {
				e.CyclesPerSec = float64(res.Cycles) / wall
				e.InstsPerSec = float64(res.Insts) / wall
			}
			r.Entries = append(r.Entries, e)
		}
	}
	t0 := time.Now()
	if _, err := harness.Fig3(context.Background(), p, scale, 0); err != nil {
		return nil, fmt.Errorf("benchreport: fig3 timing run: %w", err)
	}
	r.Fig3WallSeconds = time.Since(t0).Seconds()
	r.computeGeomeans()
	return r, nil
}

func (r *Report) computeGeomeans() {
	byArch := map[string][]float64{}
	var all []float64
	for _, e := range r.Entries {
		if e.CyclesPerSec > 0 {
			byArch[e.Arch] = append(byArch[e.Arch], e.CyclesPerSec)
			all = append(all, e.CyclesPerSec)
		}
	}
	r.GeomeanCyclesPerSec = map[string]float64{}
	for a, vs := range byArch {
		r.GeomeanCyclesPerSec[a] = stats.Geomean(vs)
	}
	if len(all) > 0 {
		r.GeomeanCyclesPerSec["all"] = stats.Geomean(all)
	}
}

// Write stores the report as indented JSON at path.
func (r *Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Read loads a report written by Write.
func Read(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchreport: %s: %w", path, err)
	}
	return &r, nil
}

// Compare renders a per-architecture speedup table of cur over prev
// (geomean simulated-cycles/sec ratios) plus the overall geomean and the
// Fig3 wall-time ratio. Ratios above 1.0 mean cur is faster.
func Compare(prev, cur *Report) string {
	var archs []string
	for a := range cur.GeomeanCyclesPerSec {
		if a != "all" {
			archs = append(archs, a)
		}
	}
	sort.Strings(archs)
	out := fmt.Sprintf("%-28s %16s %16s %8s\n", "architecture", "prev cycles/s", "cur cycles/s", "speedup")
	row := func(name string, p, c float64) {
		ratio := 0.0
		if p > 0 {
			ratio = c / p
		}
		out += fmt.Sprintf("%-28s %16.0f %16.0f %7.2fx\n", name, p, c, ratio)
	}
	for _, a := range archs {
		row(a, prev.GeomeanCyclesPerSec[a], cur.GeomeanCyclesPerSec[a])
	}
	row("geomean(all)", prev.GeomeanCyclesPerSec["all"], cur.GeomeanCyclesPerSec["all"])
	if prev.Fig3WallSeconds > 0 {
		out += fmt.Sprintf("%-28s %15.2fs %15.2fs %7.2fx\n", "fig3 wall time",
			prev.Fig3WallSeconds, cur.Fig3WallSeconds, prev.Fig3WallSeconds/cur.Fig3WallSeconds)
	}
	return out
}
