package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// layers are the repository modules the traced run attributes CPU time to,
// in the order the benchmark prints them: engine, processors, components,
// input and verification, glue, serving.
var layers = []string{
	"sim",
	"core", "ssmc", "simt", "multicore",
	"corelet", "prefetch", "cache", "mem", "memctrl", "dram", "stack",
	"datagen", "layout", "workloads", "mapreduce",
	"harness",
	"server", "jobs", "rescache", "router",
}

// Buckets for CPU time outside the listed modules.
const (
	layerRuntime = "runtime" // the Go runtime: scheduler, allocator, GC
	layerOther   = "other"   // everything else: stdlib, this benchmark, unlisted packages
)

// layerOf maps a pprof function name (a leaf frame) to its layer.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return layerOther // assembly stubs and other unqualified symbols
	}
	pkg := fn[:slash+1+dot]
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return layerRuntime
	}
	if name, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		for _, l := range layers {
			if l == name {
				return l
			}
		}
	}
	return layerOther
}

// foldTop folds a `go tool pprof -top` listing by layer: each function's
// flat (self) time goes to the layer of its package. It returns seconds per
// layer and the total.
func foldTop(listing string) (map[string]float64, float64, error) {
	out := map[string]float64{}
	var total float64
	header := false
	sc := bufio.NewScanner(strings.NewReader(listing))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := parsePprofDuration(f[0])
		if err != nil {
			return nil, 0, fmt.Errorf("pprof listing: %q: %w", sc.Text(), err)
		}
		out[layerOf(f[5])] += flat
		total += flat
	}
	if !header {
		return nil, 0, fmt.Errorf("pprof listing: no flat/cum header")
	}
	return out, total, sc.Err()
}

// parsePprofDuration parses a pprof time cell such as "0", "10ms", "1.21s"
// or "2.50mins" into seconds.
func parsePprofDuration(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("unknown duration %q", s)
}

// cpuProfile records a CPU profile to path until the returned stop is called.
func cpuProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// foldProfile runs the toolchain's pprof over a CPU profile and folds its
// flat listing by layer.
func foldProfile(path string) (map[string]float64, float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-symbolize=none", path)
	cmd.Stderr = os.Stderr
	listing, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(string(listing))
}
