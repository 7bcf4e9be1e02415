// Benchmarks that regenerate each of the paper's tables and figures under
// `go test -bench`. Each iteration reproduces the full experiment at a
// reduced input scale and reports its headline numbers as custom metrics
// (geomean speedups, energy ratios), so `go test -bench=. -benchmem`
// doubles as a quick end-to-end reproduction check. cmd/milliexp runs the
// same experiments at paper scale.
package millipede

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// benchScale trades fidelity for wall time in `go test -bench`.
const benchScale = 0.04

func BenchmarkTableIV(b *testing.B) {
	p := arch.Default()
	for i := 0; i < b.N; i++ {
		f, err := harness.TableIV(context.Background(), p, benchScale, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range f.Rows {
			if r.Bench == "count" {
				b.ReportMetric(r.Values["insts/word"], "count-insts/word")
				b.ReportMetric(r.Values["ssmc-row-miss"], "count-ssmc-rowmiss")
			}
		}
	}
}

func BenchmarkFig3Performance(b *testing.B) {
	p := arch.Default()
	for i := 0; i < b.N; i++ {
		f, err := harness.Fig3(context.Background(), p, benchScale, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Geomean[harness.ArchMillipede], "millipede-vs-gpgpu")
		b.ReportMetric(f.Geomean[harness.ArchMillipede]/f.Geomean[harness.ArchSSMC], "millipede-vs-ssmc")
		b.ReportMetric(f.Geomean[harness.ArchVWS], "vws-vs-gpgpu")
	}
}

func BenchmarkFig4Energy(b *testing.B) {
	p := arch.Default()
	for i := 0; i < b.N; i++ {
		f, _, err := harness.Fig4(context.Background(), p, benchScale, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Geomean[harness.ArchMillipedeRM], "millipede-energy-vs-gpgpu")
		b.ReportMetric(f.Geomean[harness.ArchMillipedeRM]/f.Geomean[harness.ArchSSMC], "millipede-energy-vs-ssmc")
	}
}

func BenchmarkFig5Multicore(b *testing.B) {
	p := arch.Default()
	for i := 0; i < b.N; i++ {
		f, err := harness.Fig5(context.Background(), p, benchScale, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Geomean["speedup"], "node-speedup")
		b.ReportMetric(f.Geomean["energy-improvement"], "node-energy-improvement")
	}
}

func BenchmarkFig6SystemSize(b *testing.B) {
	p := arch.Default()
	for i := 0; i < b.N; i++ {
		f, err := harness.Fig6(context.Background(), p, benchScale, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Geomean["millipede-64"]/f.Geomean["ssmc-64"], "millipede-vs-ssmc-at-64")
	}
}

func BenchmarkChannelSweep(b *testing.B) {
	p := arch.Default()
	for i := 0; i < b.N; i++ {
		f, err := harness.ChannelSweep(context.Background(), p, benchScale, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Geomean["2-ch"], "speedup-2ch-vs-1ch")
		b.ReportMetric(f.Geomean["4-ch"], "speedup-4ch-vs-1ch")
	}
}

func BenchmarkFig7PrefetchBuffers(b *testing.B) {
	p := arch.Default()
	for i := 0; i < b.N; i++ {
		f, err := harness.Fig7(context.Background(), p, benchScale, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Geomean["16-buffers"], "speedup-16-vs-2-buffers")
		b.ReportMetric(f.Geomean["32-buffers"]/f.Geomean["16-buffers"], "leveloff-32-vs-16")
	}
}

// BenchmarkSimulatorThroughput measures the simulator itself: simulated
// input words per second of wall time for the Millipede model.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p := arch.Default()
	w := workloads.CountBench()
	const records = 1024
	words := float64(p.Threads() * w.StreamWords(records))
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.Run(harness.ArchMillipede, w, p, records, harness.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(words*float64(b.N)/b.Elapsed().Seconds(), "words/s")
}

// Per-architecture single-benchmark microbenches, useful for profiling the
// models.
func benchOne(b *testing.B, archName, bench string) {
	b.Helper()
	p := arch.Default()
	w, err := workloads.ByName(bench)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.Run(archName, w, p, 256, harness.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMillipedeKMeans(b *testing.B) { benchOne(b, harness.ArchMillipede, "kmeans") }
func BenchmarkSSMCKMeans(b *testing.B)      { benchOne(b, harness.ArchSSMC, "kmeans") }
func BenchmarkGPGPUKMeans(b *testing.B)     { benchOne(b, harness.ArchGPGPU, "kmeans") }
func BenchmarkVWSKMeans(b *testing.B)       { benchOne(b, harness.ArchVWS, "kmeans") }
func BenchmarkMillipedeNBayes(b *testing.B) { benchOne(b, harness.ArchMillipede, "nbayes") }

func BenchmarkBarrierAblation(b *testing.B) {
	p := arch.Default()
	for i := 0; i < b.N; i++ {
		f, err := harness.BarrierAblation(context.Background(), p, benchScale, 0)
		if err != nil {
			b.Fatal(err)
		}
		v := f.Rows[0].Values
		b.ReportMetric(v["no-flow-control"], "no-flow-control-vs-millipede")
		b.ReportMetric(v["barrier-every-1"], "record-barriers-vs-millipede")
	}
}

func BenchmarkCharacteristicsStudy(b *testing.B) {
	p := arch.Default()
	for i := 0; i < b.N; i++ {
		f, err := harness.CharacteristicsStudy(context.Background(), p, 0.01, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range f.Rows {
			if r.Bench == "join" {
				b.ReportMetric(r.Values["dram-amplification"], "join-dram-amplification")
			}
		}
	}
}
