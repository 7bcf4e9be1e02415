package multicore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/energy"
	"repro/internal/workloads"
)

// pinnedMulticoreHash is the SHA-256 of the multicore's full result on all
// eight kernels under contention (see TestMulticorePinned). A change that
// moves any simulated number, counter, energy figure, metric sample or live
// state word changes it.
const pinnedMulticoreHash = "339ee577df140e2c0c134a1bf05f37a1f7855ec7e09c346903e1b20fa210f7c5"

// pinnedMulticoreRecords keeps the off-chip queue full: at 64 records per
// thread every kernel's L1 bounces tens of thousands of loads and the
// controller rejects enqueues, where TestRunResultsPinned's 32-record
// multicore runs bounce few.
const pinnedMulticoreRecords = 64

// TestMulticorePinned pins the multicore's full Result — time, compute
// cycles, the core counters with RetryCycles, the L1 and L2 counters with
// Retries, the node's run stats with the controller's rejects, energy and
// the metrics snapshot — and every thread's live state, for all eight
// kernels at the default configuration, with a one-entry controller queue
// and with single issue.
func TestMulticorePinned(t *testing.T) {
	def := DefaultConfig()
	depth1, width1 := def, def
	depth1.MemQueueDepth = 1
	width1.IssueWidth = 1
	h := sha256.New()
	for _, v := range []struct {
		name string
		c    Config
	}{{"default", def}, {"queue-depth-1", depth1}, {"issue-width-1", width1}} {
		for _, b := range workloads.All() {
			l, lay, sl, streams := launchFor(t, b, v.c, pinnedMulticoreRecords)
			s, err := New(v.c, energy.Default(), l)
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.Run(0)
			if err != nil {
				t.Fatalf("%s/%s: %v", v.name, b.Name(), err)
			}
			if r.Mem.Rejected == 0 || r.L1.Retries == 0 {
				t.Fatalf("%s/%s: no bounced loads (rejected %d, L1 retries %d): the pin does not cover contention",
					v.name, b.Name(), r.Mem.Rejected, r.L1.Retries)
			}
			states := workloads.ExtractStates(b, sl, lay, s.ReadState)
			want := b.GoldenStates(streams, pinnedMulticoreRecords)
			if fmt.Sprint(states) != fmt.Sprint(want) {
				t.Fatalf("%s/%s: live state differs from the golden fold", v.name, b.Name())
			}
			fmt.Fprintf(h, "%s/%s\n", v.name, b.Name())
			fmt.Fprintf(h, "time=%d cycles=%d insts=%d cond=%d hz=%v\n", r.Time, r.ComputeCycles, r.Insts, r.CondBranches, r.FinalHz)
			fmt.Fprintf(h, "dram=%+v mem=%+v stack=%+v skip=%d/%d\n", r.DRAM, r.Mem, r.Stack, r.SkippedEdges, r.SkipWindows)
			fmt.Fprintf(h, "energy=%+v\ncores=%+v\nl1=%+v\nl2=%+v\n", r.Energy, r.Cores, r.L1, r.L2)
			fmt.Fprintf(h, "states=%v\n%s", states, r.Metrics.Render())
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedMulticoreHash {
		t.Errorf("pinned multicore results changed: hash %s, want %s", got, pinnedMulticoreHash)
	}
}
