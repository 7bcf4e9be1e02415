// Command millisim runs one {architecture x benchmark} simulation and
// prints its verified measurements.
//
// Usage:
//
//	millisim [-arch millipede] [-bench kmeans] [-records 512] [-corelets 32] [-buffers 16]
//	millisim -trace 40 [-arch millipede] [-bench count] ...
//	millisim -trace-out trace.json [-arch millipede] [-bench count] ...
//
// -trace N prints the first N events of the run's event stream instead of
// the measurement.
//
// -trace-out records the run's event stream (corelet 0's instructions,
// prefetch/flow-control/starve/evict events, memory issues and row
// open/close, DFS clock steps) and writes it as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Every run is checked against the golden MapReduce reference; a reported
// time can never come from a functionally wrong execution.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	millipede "repro"
)

func main() {
	log.SetFlags(0)
	archName := flag.String("arch", millipede.ArchMillipede,
		"architecture: "+strings.Join(append(millipede.Architectures(), millipede.ArchMulticore), ", "))
	bench := flag.String("bench", "kmeans", "benchmark: "+strings.Join(millipede.Benchmarks(), ", "))
	records := flag.Int("records", 0, "records per hardware thread (0 = benchmark default)")
	traceN := flag.Int("trace", 0, "print the first N trace events instead of the measurement (millipede family only)")
	traceOut := flag.String("trace-out", "", "write the run's event stream as Chrome trace-event JSON to this path (millipede family only)")
	corelets := flag.Int("corelets", 32, "corelets/lanes per processor")
	buffers := flag.Int("buffers", 16, "prefetch buffer entries")
	channels := flag.Int("channels", 0, "die-stack memory channels (0 = geometry default)")
	stackMode := flag.String("stack", "", "die-stack capacity discipline: memory, hwcache, memcache (empty = all-resident pass-through)")
	stackBytes := flag.Int("stack-bytes", 0, "die-stack capacity in bytes (0 = holds the whole dataset)")
	backingLatency := flag.Int("backing-latency", 0, "planar backing store latency in channel cycles (0 = default)")
	flag.Parse()

	cfg := millipede.DefaultConfig().WithSize(*corelets)
	cfg.PrefetchEntries = *buffers
	if *channels > 0 {
		cfg.Channels = *channels
	}
	cfg.StackMode = *stackMode
	cfg.StackBytes = *stackBytes
	cfg.BackingLatency = *backingLatency
	n := *records
	if n == 0 {
		n = 512
	}
	var opts []millipede.RunOption
	var traceLog *millipede.TraceLog
	if *traceN > 0 || *traceOut != "" {
		switch *archName {
		case millipede.ArchMillipede, millipede.ArchMillipedeNoFC, millipede.ArchMillipedeRM:
		default:
			log.Fatal("-trace and -trace-out are only supported for the millipede-family architectures")
		}
		max := 1 << 20
		if *traceN > 0 {
			max = *traceN
		}
		traceLog = millipede.NewTraceLog(max)
		opts = append(opts, millipede.WithTraceSink(traceLog))
	}
	res, err := millipede.RunBenchmark(*archName, *bench, cfg, n, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if *traceN > 0 {
		fmt.Print(traceLog.Render())
		return
	}
	if traceLog != nil {
		data, err := traceLog.ChromeJSON(1e12 / cfg.ComputeHz)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d events, %d dropped at the %d-event cap)\n",
			*traceOut, len(traceLog.Events()), traceLog.Dropped(), 1<<20)
	}
	fmt.Printf("architecture        %s\n", res.Arch)
	fmt.Printf("benchmark           %s\n", res.Bench)
	fmt.Printf("input words         %d (%d records/thread x %d threads)\n", res.Words, n, cfg.Threads())
	fmt.Printf("simulated time      %.3f us\n", float64(res.Time)/1e6)
	fmt.Printf("instructions        %d (%.2f per input word)\n", res.Insts, res.InstsPerWord)
	fmt.Printf("branches/inst       %.4f\n", res.BranchesPerInst)
	fmt.Printf("DRAM row miss rate  %.3f\n", res.RowMissRate)
	fmt.Printf("DRAM bytes read     %d (%.2f GB/s)\n", res.DRAMBytes, float64(res.DRAMBytes)/float64(res.Time)*1000)
	fmt.Printf("mem channels        %d\n", cfg.Channels)
	fmt.Printf("mem stall cycles    %d (max queue occupancy %d, rejected %d)\n",
		res.MemStallCycles, res.MemMaxOccupancy, res.MemRejected)
	if st := res.Stack; st.Mode != "" {
		fmt.Printf("stack discipline    %s (%d B resident)\n", st.Mode, st.ResidentBytes)
		fmt.Printf("stack hit rate      %.3f (%d of %d accesses served in-stack)\n",
			st.HitRate(), st.StackServed, st.Accesses)
		fmt.Printf("backing traffic     %d reads / %d writes (%d B read, %d B written)\n",
			st.Backing.Reads, st.Backing.Writes, st.Backing.BytesRead, st.Backing.BytesWritten)
		if st.Writebacks > 0 || st.Evictions > 0 {
			fmt.Printf("cache churn         %d evictions, %d writebacks, %d MSHR joins\n",
				st.Evictions, st.Writebacks, st.MSHRJoins)
		}
	}
	fmt.Printf("final clock         %.0f MHz\n", res.FinalHz/1e6)
	fmt.Printf("energy              %.3f uJ (core %.3f / dram %.3f / leak %.3f)\n",
		res.Energy.TotalPJ()/1e6, res.Energy.CorePJ/1e6, res.Energy.DRAMPJ/1e6, res.Energy.LeakPJ/1e6)
	fmt.Println("golden check        PASS (enforced)")
}
