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
//	milliexp -benchdiff BENCH_4.json [-skip off]
//	milliexp -benchjson BENCH_5.json
//
// scale multiplies each benchmark's default input size; 1.0 is the
// paper-scale run recorded in EXPERIMENTS.md.
//
// -benchdiff is the determinism gate: it re-runs Figure 3's six
// architectures on every benchmark at the baseline's scale and exits
// nonzero unless every entry's records, sim_cycles, sim_picos, and insts
// are bit-identical to the baseline file. -benchjson writes those fields
// as a fresh baseline (at scale 0.25, or the -benchdiff baseline's scale),
// for a change that alters simulated timing on purpose. Simulator speed is
// measured by millibench (bench/), not here.
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
	benchJSON := flag.String("benchjson", "", "write a fresh determinism baseline (records/sim_cycles/sim_picos/insts per arch x bench) to this path (skips figures)")
	benchDiff := flag.String("benchdiff", "", "determinism gate: re-run and exit nonzero unless records/sim_cycles/sim_picos/insts are bit-identical to this baseline BENCH_*.json (skips figures)")
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
		runGate(*benchJSON, *benchDiff, noskip)
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

// runGate re-runs the determinism gate's 48 entries, writes them to outPath
// when it is set, and diffs them against the baseline at basePath when that
// is set.
func runGate(outPath, basePath string, noskip bool) {
	cfg := millipede.DefaultConfig()
	cfg.NoSkip = noskip
	scale := gateScale
	var base *baseline
	if basePath != "" {
		var err error
		if base, err = readBaseline(basePath); err != nil {
			log.Fatalf("benchdiff: %v", err)
		}
		// Run at the baseline's own scale so the record counts line up.
		scale = base.Scale
	}
	t0 := time.Now()
	cur, err := collect(cfg, scale)
	if err != nil {
		log.Fatalf("bench gate: %v", err)
	}
	if outPath != "" {
		if err := cur.write(outPath); err != nil {
			log.Fatalf("benchjson: %v", err)
		}
		fmt.Printf("wrote %s (%d entries at scale %g)\n", outPath, len(cur.Entries), scale)
	}
	if base == nil {
		return
	}
	diffs := diff(base, cur)
	if len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Println(d)
		}
		log.Fatalf("benchdiff: %d determinism mismatches against %s", len(diffs), basePath)
	}
	fmt.Printf("benchdiff: %d entries bit-identical to %s on [records sim_cycles sim_picos insts] (collected in %s)\n",
		len(cur.Entries), basePath, time.Since(t0).Round(time.Millisecond))
}
