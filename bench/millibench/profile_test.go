package main

import (
	"math"
	"testing"
)

// topListing is a trimmed `go tool pprof -top -nodefraction=0` listing of a
// real traced mimd pass, with every kind of leaf frame the fold must map.
const topListing = `File: millibench
Build ID: f83bc84861a0f96e9ebf3a1e7b1e0ee495868b50
Type: cpu
Time: 2026-10-16 01:07:42 UTC
Duration: 2.83s, Total samples = 2.63s (93.03%)
Showing nodes accounting for 2.63s, 100% of 2.63s total
      flat  flat%   sum%        cum   cum%
     1.21s 46.01% 46.01%      1.63s 61.98%  repro/internal/corelet.(*Cluster).exec
     0.41s 15.59% 61.60%      2.04s 77.57%  repro/internal/corelet.(*Cluster).tickCore
     0.11s  4.18% 71.10%      2.38s 90.49%  repro/internal/sim.(*Engine).run2
     0.09s  3.42% 74.52%      0.11s  4.18%  repro/internal/cache.(*Cache).find
     0.04s  1.52% 83.27%      0.04s  1.52%  repro/internal/dram.(*DRAM).ReadWord (inline)
     0.03s  1.14% 85.55%      0.14s  5.32%  repro/internal/core.(*port).Read
     0.03s  1.14% 86.69%      0.04s  1.52%  repro/internal/core.NewProcessor.func1
     20ms  0.76% 87.45%       20ms  0.76%  repro/internal/mapreduce.ReduceStates[go.shape.[]uint32,go.shape.[]uint32]
     0.03s  1.14% 88.97%      0.03s  1.14%  runtime.asyncPreempt
     0.02s  0.76% 89.73%      0.02s  0.76%  internal/runtime/maps.(*Map).getWithKey
     0.01s  0.38% 90.11%      0.01s  0.38%  indexbytebody
     0.01s  0.38% 90.49%      0.02s  0.76%  strings.genSplit
     0.01s  0.38% 90.87%      0.01s  0.38%  repro/internal/kernels.ArgsAndConsts
     0.01s  0.38% 91.25%      2.54s 96.58%  main.tracedRun
         0     0%   100%      2.51s 95.44%  repro.RunReduced
`

func TestFoldTopByLayer(t *testing.T) {
	got, total, err := foldTop(topListing)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"corelet":   1.62,
		"sim":       0.11,
		"cache":     0.09,
		"dram":      0.04,
		"core":      0.06,
		"mapreduce": 0.02,
		"runtime":   0.05,
		"other":     0.04, // indexbytebody, strings, kernels (unlisted), main
	}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-9 {
			t.Errorf("%s = %gs, want %gs", l, got[l], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want exactly %v", got, want)
	}
	if math.Abs(total-2.03) > 1e-9 {
		t.Errorf("total = %gs, want 2.03s", total)
	}
}

func TestFoldTopRejectsGarbage(t *testing.T) {
	if _, _, err := foldTop("not a pprof listing\n"); err == nil {
		t.Error("listing without a header: no error")
	}
	if _, _, err := foldTop("      flat  flat%   sum%        cum   cum%\n  1.2parsecs 1% 1% 1s 1% f\n"); err == nil {
		t.Error("bad duration: no error")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/prefetch.(*Buffer).Access":        "prefetch",
		"repro/internal/server.(*Server).handleSubmit":    "server",
		"repro/internal/mem.(*System).Tick":               "mem",
		"repro/internal/memctrl.(*Controller).Harvest":    "memctrl",
		"repro/internal/metrics.(*Registry).Snapshot":     "other",
		"repro/internal/x.F[go.shape.struct { a/b.T }]":   "other",
		"repro/internal/stack.(*HWCache[go.shape.int]).M": "stack",
		"runtime.mallocgc":                                "runtime",
		"internal/runtime/maps.NewEmptyMap":               "runtime",
		"runtime/internal/atomic.Load":                    "runtime",
		"encoding/json.(*decodeState).object":             "other",
		"main.run":                                        "other",
		"memeqbody":                                       "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParsePprofDuration(t *testing.T) {
	for s, want := range map[string]float64{
		"0": 0, "1.21s": 1.21, "10ms": 0.01, "250us": 250e-6, "3µs": 3e-6, "7ns": 7e-9, "1.50mins": 90, "2hrs": 7200,
	} {
		got, err := parsePprofDuration(s)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parsePprofDuration(%q) = %g, %v, want %g", s, got, err, want)
		}
	}
}
