package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict compares one metric's runs of two builds. worse is the median's
// relative change in the metric's bad direction. A spread (interquartile
// range over median) on either side wider than the bound leaves the metric
// unresolved, unless every new run beats every base run.
func verdict(base, next []float64, better string, bound float64) (worse, spr float64, v string) {
	bm, nm := median(base), median(next)
	worse = ratio(nm-bm, bm)
	beats := func(a, b float64) bool { return a < b }
	if better == "higher" {
		worse = -worse
		beats = func(a, b float64) bool { return a > b }
	}
	spr = max(spread(base), spread(next))
	switch {
	case spr > bound:
		for _, n := range next {
			for _, b := range base {
				if !beats(n, b) {
					return worse, spr, "unresolved"
				}
			}
		}
		return worse, spr, "better"
	case worse > bound:
		return worse, spr, "REGRESSED"
	}
	return worse, spr, "ok"
}

// compareRecords prints, for each workload, every end-to-end metric's
// change from base to next against its BENCHMARK.json bound. It fails on a
// regression, on an incorrect run, and on any simulated-output digest that
// differs between the two builds for the same workload, seed and shape.
func compareRecords(specPath, basePath, nextPath string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	var base, next []record
	if err == nil {
		base, err = readRecords(basePath)
	}
	if err == nil {
		next, err = readRecords(nextPath)
	}
	if err != nil {
		fmt.Fprintln(stderr, "millibench: compare:", err)
		return 2
	}
	return compare(spec, base, next, stdout)
}

func compare(spec benchSpec, base, next []record, stdout io.Writer) int {
	code := 0
	type key struct {
		workload string
		seed     uint64
		trace    bool
		passes   int
	}
	digests := map[key]string{}
	for _, r := range base {
		digests[key{r.Workload, r.Seed, r.Trace, r.Passes}] = r.Digest
	}
	for _, rs := range [][]record{base, next} {
		for _, r := range rs {
			if !r.Correct {
				fmt.Fprintf(stdout, "FAIL: %s seed %d reported incorrect output\n", r.Workload, r.Seed)
				code = 1
			}
		}
	}
	matched := 0
	for _, r := range next {
		d, ok := digests[key{r.Workload, r.Seed, r.Trace, r.Passes}]
		if !ok {
			continue
		}
		matched++
		if d != r.Digest {
			fmt.Fprintf(stdout, "FAIL: %s seed %d sim_digest differs: %s vs %s\n", r.Workload, r.Seed, d, r.Digest)
			code = 1
		}
	}
	fmt.Fprintf(stdout, "sim_digest: %d same-seed pairs compared\n", matched)

	fmt.Fprintf(stdout, "%-8s %9s", "workload", "runs")
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(stdout, "  %-28s", fmt.Sprintf("%s (bound %g%%)", m.Name, 100*m.Bound))
	}
	fmt.Fprintln(stdout)
	for _, w := range spec.Workloads {
		untraced := func(rs []record) []record {
			var out []record
			for _, r := range rs {
				if r.Workload == w.Name && !r.Trace {
					out = append(out, r)
				}
			}
			return out
		}
		bs, ns := untraced(base), untraced(next)
		fmt.Fprintf(stdout, "%-8s %9s", w.Name, fmt.Sprintf("%d/%d", len(bs), len(ns)))
		for _, m := range spec.EndToEnd {
			b, n := column(bs, m.Name), column(ns, m.Name)
			if len(b) == 0 || len(n) == 0 {
				fmt.Fprintf(stdout, "  %-28s", "no runs")
				continue
			}
			worse, spr, v := verdict(b, n, m.Better, m.Bound)
			if v == "REGRESSED" {
				code = 1
			}
			fmt.Fprintf(stdout, "  %-28s", fmt.Sprintf("%+.1f%% ±%.1f%% %s", 100*worse, 100*spr, v))
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintln(stdout, "cells: median change in the worse direction, larger interquartile spread / median, verdict")
	return code
}

// column returns one metric's values across records.
func column(rs []record, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}
