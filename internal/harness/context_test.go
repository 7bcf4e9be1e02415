package harness

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/workloads"
)

// TestRunExperimentCancelled checks that a cancelled context short-circuits
// the registry before any simulation starts.
func TestRunExperimentCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"fig3", "ablation", "warpwidth", "residency", "timeline", "node", "characteristics"} {
		_, err := RunExperiment(ctx, name, arch.Default(), ExpOptions{Scale: testScale})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s with cancelled ctx: got %v, want context.Canceled", name, err)
		}
	}
}

// TestRunJobsCancelMidSweep cancels the context from inside an early job and
// checks that the pool stops claiming work and reports ctx.Err() — the
// "cancelled sweeps return ctx.Err() instead of running to completion"
// contract of the figure generators.
func TestRunJobsCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 512
	var ran int64
	err := runJobs(ctx, n, func(i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 0 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runJobs: got %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt64(&ran); got >= n {
		t.Fatalf("runJobs ran all %d jobs despite cancellation", got)
	}
}

// TestRunJobsErrorPriority: with an intact context the lowest-indexed job
// error is returned, as before the context plumbing.
func TestRunJobsErrorPriority(t *testing.T) {
	wantErr := errors.New("boom")
	err := runJobs(context.Background(), 8, func(i int) error {
		if i == 3 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("runJobs: got %v, want %v", err, wantErr)
	}
}

// TestClusterMapCancelled: the cluster study's Map phase over a 128x
// dataset stops under a cancelled context and reports ctx.Err() instead of
// folding every Source.
func TestClusterMapCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	states, err := clusterMap(ctx, workloads.CountBench(), ClusterNodes, 4, 1<<20, Seed)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("clusterMap: got %v, want context.Canceled", err)
	}
	if states != nil {
		t.Fatal("clusterMap returned states despite cancellation")
	}
}

// TestFig3Cancelled runs a real figure sweep under an already-cancelled
// context: the sweep must return ctx.Err() without producing a figure.
func TestFig3Cancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f, err := Fig3(ctx, arch.Default(), testScale, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig3: got %v, want context.Canceled", err)
	}
	if f != nil {
		t.Fatalf("Fig3 returned a figure despite cancellation")
	}
}

// TestSweepsCancelled calls the experiments that hand their runs to the
// worker pool directly, past the registry's own check, under an
// already-cancelled context: each must return ctx.Err() without a figure.
func TestSweepsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := arch.Default()
	for name, run := range map[string]func() (*Figure, error){
		"ablation":        func() (*Figure, error) { return BarrierAblation(ctx, p, testScale, 0) },
		"warpwidth":       func() (*Figure, error) { return WarpWidthSweep(ctx, p, testScale, 0) },
		"residency":       func() (*Figure, error) { return ResidencyStudy(ctx, p, 16, testScale, 0) },
		"characteristics": func() (*Figure, error) { return CharacteristicsStudy(ctx, p, testScale, 0) },
	} {
		if f, err := run(); !errors.Is(err, context.Canceled) || f != nil {
			t.Errorf("%s with cancelled ctx: got figure %v, error %v; want no figure, context.Canceled", name, f != nil, err)
		}
	}
}
