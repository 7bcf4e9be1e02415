package harness

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/stack"
	"repro/internal/workloads"
)

// smallParams is a cheap geometry for stack-mode property tests.
func smallParams(channels int) arch.Params {
	p := arch.Default()
	p.Corelets = 8
	p.Contexts = 2
	p.PrefetchEntries = 8
	p.Channels = channels
	return p
}

// TestStackMemoryPassThroughIdentical is the bit-identity property the whole
// capacity subsystem is gated on: StackMode "memory" with the stack sized to
// hold the dataset (StackBytes 0) must produce exactly the run the bare
// memory system produces — same simulated time, cycles, instructions, and
// memory counters — across random kernels, channel counts, and seeds.
func TestStackMemoryPassThroughIdentical(t *testing.T) {
	benches := workloads.All()
	channels := []int{1, 2, 4}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		b := benches[rng.Intn(len(benches))]
		p := smallParams(channels[rng.Intn(len(channels))])
		seed := rng.Uint64() | 1
		records := 16 + rng.Intn(32)

		base, _, err := Run(ArchMillipede, b, p, records, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		q := p
		q.StackMode = string(stack.ModeMemory)
		got, _, err := Run(ArchMillipede, b, q, records, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if got.Time != base.Time || got.Cycles != base.Cycles || got.Insts != base.Insts {
			t.Fatalf("%s ch=%d seed=%d: pass-through diverged: time %d vs %d, cycles %d vs %d, insts %d vs %d",
				b.Name(), p.Channels, seed, got.Time, base.Time, got.Cycles, base.Cycles, got.Insts, base.Insts)
		}
		if got.DRAMBytes != base.DRAMBytes || got.RowMissRate != base.RowMissRate ||
			got.MemStallCycles != base.MemStallCycles || got.MemRejected != base.MemRejected ||
			got.FinalHz != base.FinalHz {
			t.Fatalf("%s ch=%d seed=%d: pass-through memory counters diverged", b.Name(), p.Channels, seed)
		}
		if got.Stack.Mode != "" {
			t.Fatalf("pass-through run reports stack stats %+v, want the bare system", got.Stack)
		}
	}
}

// TestHWCacheCompulsoryOnly: with the cache at least as large as the
// dataset, a run must see only compulsory misses — every miss fills a line
// that is never evicted, so evictions and writebacks stay zero and fills
// equal misses.
func TestHWCacheCompulsoryOnly(t *testing.T) {
	b, err := workloads.ByName("count")
	if err != nil {
		t.Fatal(err)
	}
	p := smallParams(1)
	records := 64
	datasetBytes := p.Threads() * b.StreamWords(records) * 4
	granule := stack.DefaultAssoc * p.DRAM.RowBytes
	sb := 2 * datasetBytes
	if r := sb % granule; r != 0 {
		sb += granule - r
	}
	p.StackMode = string(stack.ModeHWCache)
	p.StackBytes = sb

	res, _, err := Run(ArchMillipede, b, p, records, Options{Seed: Seed})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stack
	if s.Mode != string(stack.ModeHWCache) {
		t.Fatalf("run did not report hwcache stats: %+v", s)
	}
	if s.Misses == 0 {
		t.Fatal("cold cache saw no misses")
	}
	if s.Evictions != 0 || s.Writebacks != 0 {
		t.Fatalf("capacity >= dataset but saw %d evictions, %d writebacks", s.Evictions, s.Writebacks)
	}
	if s.Misses != s.Fills {
		t.Fatalf("misses %d != fills %d with no evictions", s.Misses, s.Fills)
	}
	if s.Backing.Reads != s.Misses {
		t.Fatalf("backing reads %d != primary misses %d", s.Backing.Reads, s.Misses)
	}
}

// TestCapacityStudySmall runs the full capacity experiment at a tiny scale:
// every bench@ratio row must carry a positive throughput for all three
// disciplines, and the text must include the per-ratio table and verdict.
func TestCapacityStudySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity study simulates 3 modes x 5 ratios x all kernels")
	}
	p := smallParams(2)
	fig, text, err := CapacityStudy(t.Context(), p, 0.02, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(workloads.All()) * len(CapacityRatios)
	if len(fig.Rows) != wantRows {
		t.Fatalf("figure has %d rows, want %d", len(fig.Rows), wantRows)
	}
	for _, row := range fig.Rows {
		for _, mode := range capacityModes {
			v, ok := row.Values[mode]
			if !ok || v <= 0 {
				t.Errorf("%s: %s throughput %g, want > 0", row.Bench, mode, v)
			}
		}
	}
	low := strings.ToLower(text)
	for _, want := range []string{"per-ratio geomean", "hit rate", "crossover"} {
		if !strings.Contains(low, want) {
			t.Errorf("capacity text lacks %q:\n%s", want, text)
		}
	}
}

// TestClusterStudyGeometry: a 2x2 cluster must run end to end — the per-node
// merge path that the default 1-processor geometry skips.
func TestClusterStudyGeometry(t *testing.T) {
	p := smallParams(1)
	fig, _, err := ClusterStudy(t.Context(), p, 0.02, 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != len(clusterBenchNames) {
		t.Fatalf("figure has %d rows, want %d", len(fig.Rows), len(clusterBenchNames))
	}
	if !strings.Contains(fig.Name, "2 nodes x 2 processors") {
		t.Errorf("figure name does not reflect the geometry: %q", fig.Name)
	}
}
