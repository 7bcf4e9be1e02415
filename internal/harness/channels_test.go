package harness

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/arch"
	"repro/internal/workloads"
)

// TestMultiChannelGoldenEquivalence runs every benchmark on the port-speaking
// architectures with 2- and 4-channel fabrics. Run verifies each execution
// against the golden MapReduce reference, and the host-side Reduce output
// must be bit-identical to the single-channel run: channel count is a timing
// knob, never a functional one.
//
// The 2- and 4-channel timings are pinned too: a hash over every
// (arch, bench, channels, Time, Cycles) tuple must equal multiChannelTiming.
// The single-channel fabric is pinned by the BENCH baseline gate; this is
// the only check on the per-channel harvest/deliver/issue order.
func TestMultiChannelGoldenEquivalence(t *testing.T) {
	archs := []string{ArchMillipede, ArchSSMC, ArchGPGPU}
	benches := workloads.All()
	type job struct {
		a string
		b *workloads.Benchmark
	}
	var jobs []job
	for _, a := range archs {
		for _, b := range benches {
			jobs = append(jobs, job{a, b})
		}
	}
	timing := make([]string, len(jobs))
	err := runJobs(context.Background(), len(jobs), func(i int) error {
		j := jobs[i]
		records := RecordsFor(j.b, testScale)
		var baseline []uint32
		for _, ch := range []int{1, 2, 4} {
			p := arch.Default()
			p.Channels = ch
			res, reduced, err := Run(j.a, j.b, p, records, Options{})
			if err != nil {
				t.Errorf("%s/%s @ %d channels: %v", j.a, j.b.Name(), ch, err)
				return nil
			}
			if ch == 1 {
				baseline = reduced
				continue
			}
			timing[i] += fmt.Sprintf("%s %s %d %d %d\n", j.a, j.b.Name(), ch, res.Time, res.Cycles)
			if len(reduced) != len(baseline) {
				t.Errorf("%s/%s @ %d channels: reduce length %d != %d",
					j.a, j.b.Name(), ch, len(reduced), len(baseline))
				return nil
			}
			for k := range reduced {
				if reduced[k] != baseline[k] {
					t.Errorf("%s/%s @ %d channels: reduce word %d differs",
						j.a, j.b.Name(), ch, k)
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, s := range timing {
		h.Write([]byte(s))
	}
	if got := h.Sum64(); got != multiChannelTiming {
		t.Errorf("multi-channel timing hash = %#x, want %#x: 2- or 4-channel Time/Cycles moved", got, multiChannelTiming)
	}
}

// multiChannelTiming is the hash TestMultiChannelGoldenEquivalence expects
// over its 2- and 4-channel runs. A change that moves multi-channel timing
// on purpose must update it and say why.
const multiChannelTiming uint64 = 0xa49c9e06f9db6e78

func TestChannelSweepShape(t *testing.T) {
	f, err := ChannelSweep(context.Background(), arch.Default(), testScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != len(workloads.All()) {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	vals := map[string]map[string]float64{}
	for _, r := range f.Rows {
		vals[r.Bench] = r.Values
	}
	for b, v := range vals {
		if v["1-ch"] != 1.0 {
			t.Errorf("%s: 1-channel baseline not 1.0: %v", b, v["1-ch"])
		}
		// Extra channels add bandwidth; they must never slow a kernel down.
		if v["2-ch"] < 1.0 || v["4-ch"] < 1.0 {
			t.Errorf("%s: extra channels lost performance: %v", b, v)
		}
	}
	// The memory-bound streaming kernels gain more from channel bandwidth
	// than the compute-bound ones (paper §VI-B: count/sample saturate the
	// single channel, kmeans/gda are FLOP-limited).
	memBound := (vals["count"]["4-ch"] + vals["sample"]["4-ch"]) / 2
	cpuBound := (vals["kmeans"]["4-ch"] + vals["gda"]["4-ch"]) / 2
	if memBound < cpuBound*1.2 {
		t.Errorf("memory-bound kernels gained %.3f, not clearly above compute-bound %.3f", memBound, cpuBound)
	}
}
