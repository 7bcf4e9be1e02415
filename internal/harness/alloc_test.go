package harness

import (
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/workloads"
)

// TestCycleLoopAllocFree is the zero-allocation gate for the cycle engine:
// after one warm-up run (which populates the freelists and grows every
// pre-sized buffer to its steady-state footprint), a second run of the same
// experiment must make zero heap allocations inside the cycle loop, for
// every kernel on every cluster/SIMT architecture. The counter comes from
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
	archs := []string{
		ArchMillipede, ArchMillipedeNoFC, ArchMillipedeRM,
		ArchSSMC, ArchGPGPU, ArchVWS, ArchVWSRow, ArchMulticore,
	}
	p := arch.Default()
	for _, a := range archs {
		for _, b := range workloads.All() {
			if _, _, err := Run(a, b, p, 128, Options{}); err != nil {
				t.Fatalf("%s/%s warm-up: %v", a, b.Name(), err)
			}
			var counts []string
			for try := 0; try <= allocRetries; try++ {
				gc := debug.SetGCPercent(-1)
				r, _, err := Run(a, b, p, 128, Options{})
				debug.SetGCPercent(gc)
				if err != nil {
					t.Fatalf("%s/%s: %v", a, b.Name(), err)
				}
				if r.CycleAllocs == 0 {
					counts = nil
					break
				}
				counts = append(counts, fmt.Sprintf("%d (%d bytes)", r.CycleAllocs, r.CycleBytes))
			}
			if counts != nil {
				t.Errorf("%s/%s: heap allocations in the cycle loop on every run: %s, want 0",
					a, b.Name(), strings.Join(counts, ", "))
			}
		}
	}
}

// allocRetries is how many extra runs TestCycleLoopAllocFree makes of an
// arch x kernel whose measured run allocated.
const allocRetries = 3
