// Command milliexp regenerates every table and figure of the paper's
// evaluation (Section VI) and prints them as text tables. The experiment
// set comes from the millipede.Experiments registry; -list prints the
// registered names and descriptions, and an unknown -only name exits
// nonzero with the same listing. Ctrl-C (or SIGTERM) cancels the sweep
// in flight.
//
// Usage:
//
//	milliexp -list
//	milliexp [-scale 1.0] [-only fig3,fig4,timeline,...]
//	milliexp -benchjson BENCH_2.json [-benchbase BENCH_1.json] [-benchscale 0.25]
//	milliexp -benchdiff BENCH_1.json [-benchjson BENCH_2.json]
//
// scale multiplies each benchmark's default input size; 1.0 is the
// paper-scale run recorded in EXPERIMENTS.md.
//
// -benchjson records the simulator's own throughput (simulated cycles and
// instructions per wall-clock second for every architecture x benchmark,
// plus the wall time of a full Figure 3 reproduction) into the named
// BENCH_*.json file; -benchbase additionally prints a speedup comparison
// against a previously recorded file. See EXPERIMENTS.md, "Benchmark
// trajectory".
//
// -benchdiff is the determinism gate: it re-collects at the baseline's
// scale and exits nonzero unless every entry's records, sim_cycles,
// sim_picos, and insts are bit-identical to the baseline file.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	millipede "repro"
	"repro/internal/benchreport"
	_ "repro/internal/sla" // registers the serving-layer "sla" experiment
)

// printRegistry writes one line per registered experiment.
func printRegistry() {
	for _, e := range millipede.Experiments() {
		fmt.Printf("  %-16s %s\n", e.Name, e.Description)
	}
}

func main() {
	log.SetFlags(0)
	scale := flag.Float64("scale", 1.0, "input-size multiplier")
	list := flag.Bool("list", false, "print the experiment registry (names and descriptions) and exit")
	only := flag.String("only", "", "comma-separated subset of registered experiments (see -list)")
	benchJSON := flag.String("benchjson", "", "measure simulator throughput and write a BENCH_*.json report to this path (skips figures)")
	benchBase := flag.String("benchbase", "", "previous BENCH_*.json to compare the new report against")
	benchScale := flag.Float64("benchscale", benchreport.DefaultScale, "input scale for -benchjson throughput runs")
	benchDiff := flag.String("benchdiff", "", "determinism gate: collect a fresh report and exit nonzero unless its records/sim_cycles/sim_picos/insts are bit-identical to this baseline BENCH_*.json (skips figures)")
	skip := flag.String("skip", "on", "engine quiescence time skipping, on or off: off replays every clock edge for the bench-diff-noskip determinism gate (bit-identical either way)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("memprofile: %v", err)
			}
		}()
	}

	if *skip != "on" && *skip != "off" {
		log.Fatalf("bad -skip %q (want on or off)", *skip)
	}
	noskip := *skip == "off"

	if *list {
		printRegistry()
		return
	}
	if *benchJSON != "" || *benchDiff != "" {
		runBenchReport(*benchJSON, *benchBase, *benchDiff, *benchScale, noskip)
		return
	}

	registered := millipede.Experiments()
	names := map[string]bool{}
	for _, e := range registered {
		names[e.Name] = true
	}
	want := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			name := strings.TrimSpace(s)
			if !names[name] {
				fmt.Printf("unknown experiment %q; registered experiments:\n", name)
				printRegistry()
				os.Exit(1)
			}
			want[name] = true
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }
	cfg := millipede.DefaultConfig()
	cfg.NoSkip = noskip

	// Ctrl-C / SIGTERM cancels the sweep in flight: the context reaches
	// every figure's worker pool through RunExperimentContext.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, e := range registered {
		if !sel(e.Name) {
			continue
		}
		t0 := time.Now()
		res, err := millipede.RunExperimentContext(ctx, e.Name, cfg, millipede.WithScale(*scale))
		if err != nil {
			if errors.Is(err, context.Canceled) {
				log.Fatalf("%s: interrupted", e.Name)
			}
			log.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Print(res.Render())
		switch e.Name {
		case "table2", "table3":
			// Tables render instantly; no wall-time footer (historical
			// output format).
			fmt.Println()
		default:
			fmt.Printf("(%s wall time: %s)\n\n", e.Name, time.Since(t0).Round(time.Millisecond))
		}
	}
}

// runBenchReport measures simulator throughput over Figure 3's workload set
// and writes the BENCH_*.json trajectory point and/or runs the determinism
// gate against a baseline report.
func runBenchReport(path, basePath, diffPath string, scale float64, noskip bool) {
	cfg := millipede.DefaultConfig()
	cfg.NoSkip = noskip
	if diffPath != "" {
		base, err := benchreport.Read(diffPath)
		if err != nil {
			log.Fatalf("benchdiff: %v", err)
		}
		// Diff at the baseline's own scale so the record counts line up.
		scale = base.Scale
		t0 := time.Now()
		rep, err := benchreport.Collect(cfg, benchreport.Fig3Archs(), scale)
		if err != nil {
			log.Fatalf("benchdiff: %v", err)
		}
		if path != "" {
			if err := rep.Write(path); err != nil {
				log.Fatalf("benchdiff: %v", err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		diffs := benchreport.DiffDeterminism(base, rep)
		if len(diffs) > 0 {
			for _, d := range diffs {
				fmt.Println(d)
			}
			log.Fatalf("benchdiff: %d determinism mismatches against %s", len(diffs), diffPath)
		}
		fmt.Printf("benchdiff: %d entries bit-identical to %s on %v (collected in %s)\n",
			len(rep.Entries), diffPath, benchreport.DeterminismFields,
			time.Since(t0).Round(time.Millisecond))
		return
	}
	t0 := time.Now()
	rep, err := benchreport.Collect(cfg, benchreport.Fig3Archs(), scale)
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	if err := rep.Write(path); err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	fmt.Printf("wrote %s (%d entries, collected in %s)\n", path, len(rep.Entries),
		time.Since(t0).Round(time.Millisecond))
	fmt.Printf("geomean simulated cycles/sec: %.0f; fig3 wall time: %.2fs\n",
		rep.GeomeanCyclesPerSec["all"], rep.Fig3WallSeconds)
	if basePath != "" {
		base, err := benchreport.Read(basePath)
		if err != nil {
			log.Fatalf("benchbase: %v", err)
		}
		fmt.Printf("\ncomparison against %s:\n%s", basePath, benchreport.Compare(base, rep))
	}
}
