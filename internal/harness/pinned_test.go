package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/stack"
	"repro/internal/workloads"
)

// pinnedResultsHash is the SHA-256 of every pinned run's full result (see
// hashRunResult). A change that moves any simulated number, energy figure,
// memory counter, stack counter, metric sample or reduced output changes it.
const pinnedResultsHash = "6a4fa17f157d9ccdd9a8e2ac75437800f270b79349d574528e2d628e985775f7"

// hashRunResult folds one run's identity, timing, energy, memory and stack
// counters, reduced output and rendered metric snapshot into h.
func hashRunResult(h hash.Hash, stackMode string, r RunResult, out []uint32) {
	fmt.Fprintf(h, "%s/%s/%s\n", r.Arch, r.Bench, stackMode)
	fmt.Fprintf(h, "time=%d cycles=%d insts=%d words=%d\n", r.Time, r.Cycles, r.Insts, r.Words)
	fmt.Fprintf(h, "energy=%+v hz=%v\n", r.Energy, r.FinalHz)
	fmt.Fprintf(h, "bpi=%v rowmiss=%v dram=%d\n", r.BranchesPerInst, r.RowMissRate, r.DRAMBytes)
	fmt.Fprintf(h, "mem=%d/%d/%d stack=%+v\n", r.MemStallCycles, r.MemMaxOccupancy, r.MemRejected, r.Stack)
	fmt.Fprintf(h, "out=%v\n%s", out, r.Metrics.Render())
}

// TestRunResultsPinned pins the full result of every architecture — the
// Figure 3 set, the multicore baseline, and Millipede behind the hwcache
// and memcache capacity disciplines — on all eight kernels against a
// recorded hash, so a refactor of the run path cannot move any number the
// determinism gate does not cover.
func TestRunResultsPinned(t *testing.T) {
	type run struct {
		arch, stackMode string
	}
	var runs []run
	for _, a := range append(Architectures(), ArchMulticore) {
		runs = append(runs, run{arch: a})
	}
	for _, m := range []stack.Mode{stack.ModeHWCache, stack.ModeMemCache} {
		runs = append(runs, run{arch: ArchMillipede, stackMode: string(m)})
	}
	const records = 32
	h := sha256.New()
	for _, r := range runs {
		p := arch.Default()
		if r.stackMode != "" {
			p.StackMode = r.stackMode
			p.StackBytes = 16 * p.DRAM.RowBytes
		}
		for _, b := range workloads.All() {
			res, out, err := Run(r.arch, b, p, records, Options{})
			if err != nil {
				t.Fatalf("%s/%s/%s: %v", r.arch, b.Name(), r.stackMode, err)
			}
			hashRunResult(h, r.stackMode, res, out)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedResultsHash {
		t.Errorf("pinned run results changed: hash %s, want %s", got, pinnedResultsHash)
	}
}

// pinnedRendersHash is the SHA-256 of the ablation, warpwidth, residency
// and characteristics results at pinnedRenderScale and pinnedRenderSeed,
// rendered and JSON-encoded (see hashExperimentRenders). At this scale every
// ablation series differs in the third decimal.
const pinnedRendersHash = "202dc7da5503d66b1d738adf3c0f8cafca5c49e8f7e63b7db9d38240566693bf"

const (
	pinnedRenderScale = 0.08
	pinnedRenderSeed  = 7
)

// hashExperimentRenders runs each pinned experiment and hashes its name, its
// Render() text and its JSON encoding, which carries every value at full
// precision.
func hashExperimentRenders(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for _, name := range []string{"ablation", "warpwidth", "residency", "characteristics"} {
		res, err := RunExperiment(context.Background(), name, arch.Default(),
			ExpOptions{Scale: pinnedRenderScale, Seed: pinnedRenderSeed})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(h, "%s\n%s%s\n", name, res.Render(), data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestExperimentRendersPinned pins the rendered tables of the experiments
// whose runs fan out over the worker pool, at one worker and at four: the
// pool must change no number however many simulations run at once, and a
// run's result must land in its own row and column.
func TestExperimentRendersPinned(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			if got := hashExperimentRenders(t); got != pinnedRendersHash {
				t.Errorf("rendered experiments changed: hash %s, want %s", got, pinnedRendersHash)
			}
		})
	}
}
