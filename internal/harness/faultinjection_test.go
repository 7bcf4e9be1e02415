package harness

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/layout"
	"repro/internal/workloads"
)

// TestPrefetchInvariantsUnderJitter runs every kernel on flow-controlled
// Millipede with deterministic DRAM completion jitter and checks the
// prefetch buffer's safety invariants: flow control must never evict a row
// whose consumers are still reading it (PrematureEvicts == 0), a DF counter
// can never exceed the corelet count (each corelet signals row completion
// once), and the buffer must drain completely (no lost waiters).
func TestPrefetchInvariantsUnderJitter(t *testing.T) {
	p := arch.Default()
	p.FlowControl = true
	for _, b := range workloads.All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			records := 16
			l, lay, sl, err := buildLaunch(b, p, layout.Slab, records, Seed, false)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := core.NewProcessor(p, energy.Default(), l)
			if err != nil {
				t.Fatal(err)
			}
			pr.InjectMemoryJitter(250, 42)
			if _, err := pr.Run(0); err != nil {
				t.Fatal(err)
			}

			// Jitter must not change results, only timing.
			got := workloads.ExtractStates(b, sl, lay, pr.ReadState)
			if err := b.Verify(got, p.Threads(), records, Seed); err != nil {
				t.Fatalf("under jitter: %v", err)
			}

			buf := pr.PrefetchBuffer()
			if buf == nil {
				t.Fatal("millipede processor has no prefetch buffer")
			}
			s := buf.Stats()
			if s.PrematureEvicts != 0 {
				t.Errorf("PrematureEvicts = %d, want 0 (flow control must hold rows until consumed)", s.PrematureEvicts)
			}
			if s.MaxDF > uint64(p.Corelets) {
				t.Errorf("MaxDF = %d exceeds corelet count %d", s.MaxDF, p.Corelets)
			}
			if !buf.Done() {
				t.Error("buffer not drained after halt: lost waiters or stuck fetches")
			}
		})
	}
}
