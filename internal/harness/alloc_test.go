package harness

import (
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/stack"
	"repro/internal/workloads"
)

// TestCycleLoopAllocFree is the zero-allocation gate for the cycle engine:
// after one warm-up run (which populates the freelists and grows every
// pre-sized buffer to its steady-state footprint), a second run of the same
// experiment must make zero heap allocations inside the cycle loop, for
// every kernel on every cluster/SIMT architecture, on millipede behind
// each stack backend (hwcache, memcache, memory) with the dataset four
// times the stack, and for the barrier ablation's count variants (a
// software barrier every record and every 512 records on no-flow-control
// millipede). The counter comes from
// runtime.MemStats deltas around arch.Node.Run (see RunStats.Allocs), which
// counts every goroutine — so GC is paused during the measured run to keep
// runtime background work out of the ledger.
//
// The process-wide counter also sees the Go runtime start an OS thread
// (runtime.newm: the m, g0 and gsignal structs and profiling stacks, about
// 5 objects), which can land inside any run. Runs are deterministic, so an
// allocation in the model repeats on every run and a thread start does not:
// a nonzero count is re-measured on fresh runs of the same arch x kernel,
// up to allocRetries more times, and fails only if every run allocated.
//
// A failure here means a hot-path allocation crept back in; find it with
//
//	go test ./internal/harness -run TestCycleLoopAllocFree \
//	    -memprofile mem.out -memprofilerate=1
//	go tool pprof -list <func> harness.test mem.out
func TestCycleLoopAllocFree(t *testing.T) {
	type allocCase struct {
		arch  string
		stack stack.Mode // "" runs without a stack backend
	}
	var cases []allocCase
	for _, a := range []string{
		ArchMillipede, ArchMillipedeNoFC, ArchMillipedeRM,
		ArchSSMC, ArchGPGPU, ArchVWS, ArchVWSRow, ArchMulticore,
	} {
		cases = append(cases, allocCase{arch: a})
	}
	for _, m := range []stack.Mode{stack.ModeHWCache, stack.ModeMemCache, stack.ModeMemory} {
		cases = append(cases, allocCase{ArchMillipede, m})
	}
	const records = 128
	for _, c := range cases {
		for _, b := range workloads.All() {
			p := arch.Default()
			name := c.arch + "/" + b.Name()
			if c.stack != "" {
				p.StackMode, p.StackBytes = string(c.stack), quarterStack(p, b, records)
				name += "/" + string(c.stack)
			}
			allocFree(t, name, func() (uint64, uint64, error) {
				r, _, err := Run(c.arch, b, p, records, Options{})
				return r.CycleAllocs, r.CycleBytes, err
			})
		}
	}
	for _, interval := range []int{1, 512} {
		allocFree(t, fmt.Sprintf("barrier-every-%d/count", interval), func() (uint64, uint64, error) {
			r, _, err := Run(ArchMillipedeNoFC, workloads.CountBarrierBench(interval), arch.Default(), records, Options{})
			return r.CycleAllocs, r.CycleBytes, err
		})
	}
}

// allocFree is TestCycleLoopAllocFree's rule for one run, which reports the
// allocations (count and bytes) its cycle loop made: after a warm-up call,
// at least one of 1+allocRetries calls made with GC paused must report none.
func allocFree(t *testing.T, name string, run func() (allocs, bytes uint64, err error)) {
	t.Helper()
	if _, _, err := run(); err != nil {
		t.Fatalf("%s warm-up: %v", name, err)
	}
	var counts []string
	for try := 0; try <= allocRetries; try++ {
		gc := debug.SetGCPercent(-1)
		allocs, bytes, err := run()
		debug.SetGCPercent(gc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if allocs == 0 {
			return
		}
		counts = append(counts, fmt.Sprintf("%d (%d bytes)", allocs, bytes))
	}
	t.Errorf("%s: heap allocations in the cycle loop on every run: %s, want 0",
		name, strings.Join(counts, ", "))
}

// quarterStack sizes the die stack at a quarter of b's dataset for records
// records per thread (the dataset rounded up to whole rows, the stack up to
// whole hwcache sets), so three quarters of the data live behind the
// backing store.
func quarterStack(p arch.Params, b *workloads.Benchmark, records int) int {
	granule := stack.DefaultAssoc * p.DRAM.RowBytes
	ds := p.Threads() * b.StreamWords(records) * 4
	ds += (p.DRAM.RowBytes - ds%p.DRAM.RowBytes) % p.DRAM.RowBytes
	sb := ds / 4
	sb += (granule - sb%granule) % granule
	return max(sb, granule)
}

// allocRetries is how many extra runs TestCycleLoopAllocFree makes of an
// arch x kernel whose measured run allocated.
const allocRetries = 3
