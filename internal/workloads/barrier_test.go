package workloads_test

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// TestBarrierAblationSharesCountReference: the barrier ablation's two
// barrier programs verify against count's golden reference, so an ablation
// at a fresh seed folds exactly one reference into the memo, not one per
// program.
func TestBarrierAblationSharesCountReference(t *testing.T) {
	workloads.ResetGoldenMemo()
	if _, err := harness.BarrierAblation(context.Background(), arch.Default(), 0.01, 0xab1a7e); err != nil {
		t.Fatal(err)
	}
	if n := workloads.GoldenMemoLen(); n != 1 {
		t.Errorf("ablation left %d golden references in the memo, want 1 (count's)", n)
	}
}
