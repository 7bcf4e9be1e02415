package harness

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/workloads"
)

// TestSkipBitIdentical is the quiescence-skipping determinism gate: every
// architecture x kernel pair run with time skipping (the default) must
// produce a byte-identical metric snapshot, identical cycle/time totals, and
// an identical host-side reduce as the edge-by-edge run (NoSkip). Skipping
// is a simulator-speed knob only; any divergence means a skip window elided
// an edge that could have done work.
//
// It also pins which models take part: the corelet family (millipede, its
// variants and ssmc) skips on every kernel, and the SIMT SM and multicore,
// where skipping cost wall time, never do.
func TestSkipBitIdentical(t *testing.T) {
	p := arch.Default()
	noSkip := p
	noSkip.NoSkip = true
	archs := append(Architectures(), ArchMulticore)
	nonParticipant := map[string]bool{ArchGPGPU: true, ArchVWS: true, ArchVWSRow: true, ArchMulticore: true}
	for _, a := range archs {
		for _, b := range workloads.All() {
			ref, refRed, err := Run(a, b, noSkip, 32, Options{})
			if err != nil {
				t.Fatalf("%s/%s noskip: %v", a, b.Name(), err)
			}
			got, gotRed, err := Run(a, b, p, 32, Options{})
			if err != nil {
				t.Fatalf("%s/%s skip: %v", a, b.Name(), err)
			}
			if nonParticipant[a] && got.SkippedEdges != 0 {
				t.Errorf("%s/%s: skipped %d edges; this model takes no part in skipping", a, b.Name(), got.SkippedEdges)
			}
			if !nonParticipant[a] && got.SkippedEdges == 0 {
				t.Errorf("%s/%s: skipped no edges; the corelet family must skip", a, b.Name())
			}
			if got.Time != ref.Time || got.Cycles != ref.Cycles {
				t.Errorf("%s/%s: time/cycles %d/%d with skip, %d/%d without",
					a, b.Name(), got.Time, got.Cycles, ref.Time, ref.Cycles)
			}
			if txt, refTxt := got.Metrics.Render(), ref.Metrics.Render(); txt != refTxt {
				t.Errorf("%s/%s: snapshot with skip differs from edge-by-edge\n--- noskip\n%s--- skip\n%s",
					a, b.Name(), refTxt, txt)
			}
			if len(gotRed) != len(refRed) {
				t.Fatalf("%s/%s: reduce length %d != %d", a, b.Name(), len(gotRed), len(refRed))
			}
			for i := range refRed {
				if gotRed[i] != refRed[i] {
					t.Fatalf("%s/%s: reduce word %d = %#x, edge-by-edge %#x",
						a, b.Name(), i, gotRed[i], refRed[i])
				}
			}
		}
	}
}

// TestSkipPropertyRandomRuns samples random kernel x architecture x seed
// triples (testing/quick drives the selection) and requires byte-identical
// snapshots and tick counts between skip-on and skip-off runs. Random seeds
// exercise data-dependent control flow — different branch patterns, row
// crossings, and stall shapes — far off the golden-path configurations the
// table-driven gate covers.
func TestSkipPropertyRandomRuns(t *testing.T) {
	p := arch.Default()
	noSkip := p
	noSkip.NoSkip = true
	archs := append(Architectures(), ArchMulticore)
	all := workloads.All()
	f := func(ai, bi uint8, seed uint32) bool {
		a := archs[int(ai)%len(archs)]
		b := all[int(bi)%len(all)]
		o := Options{Seed: uint64(seed) + 1} // 0 means canonical; stay off it
		ref, _, err := Run(a, b, noSkip, 16, o)
		if err != nil {
			t.Logf("%s/%s seed=%d noskip: %v", a, b.Name(), o.Seed, err)
			return false
		}
		got, _, err := Run(a, b, p, 16, o)
		if err != nil {
			t.Logf("%s/%s seed=%d skip: %v", a, b.Name(), o.Seed, err)
			return false
		}
		if got.Cycles != ref.Cycles || got.Time != ref.Time ||
			got.Metrics.Render() != ref.Metrics.Render() {
			t.Logf("%s/%s seed=%d: skip-on diverges from skip-off", a, b.Name(), o.Seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
