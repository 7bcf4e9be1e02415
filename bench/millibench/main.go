// Command millibench is the repository's benchmark: it runs one named
// workload per process, checks that every output is correct, and prints
// every metric by name with its unit. The last line of its standard output
// is one JSON object with the keys correct, attempted, failed and metrics.
//
//	millibench -workload mimd -seed 1 -seconds 15 -trace 0
//	millibench -workload serve -seed 1 -trace 1   # per-layer metrics
//	millibench -compare base.jsonl new.jsonl      # A/B of two -record files
//
// Workloads (see bench/README.md for why each exists):
//
//	mimd     millipede and ssmc on all eight BMLA kernels
//	simt     gpgpu, vws and vws-row on all eight kernels
//	backing  millipede behind a slow backing store (hwcache, memcache at
//	         dataset/stack = 4) plus the multicore baseline
//	serve    an in-process millid cluster (router, two workers, shared
//	         store) under two closed-loop clients, cold and warm requests
//
// With -trace 0 the run measures untraced passes and prints the end-to-end
// metrics. With -trace 1 it runs one untraced pass, one traced pass (spans
// around each layer call plus a CPU profile folded by package) and an
// untraced twin of the traced pass whose digest must match, and prints the
// per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// size is how much work one pass does.
type size struct {
	mimdScale, simtScale       float64 // input scale of the mimd and simt runs
	stackScale, multicoreScale float64 // input scale of backing's stack and multicore runs
	keys, requests             int     // serve: distinct jobs and requests per pass
	jobScale                   float64 // serve: input scale of each ablation job
}

// fullSize makes each pass take about nominalPass on a 2-CPU host.
var fullSize = size{
	mimdScale: 0.4, simtScale: 0.6,
	stackScale: 0.27, multicoreScale: 0.12,
	keys: 360, requests: 7200, jobScale: 0.01,
}

// nominalPass is the pass length -seconds is divided by to get the pass
// count. Fixing the count, rather than stopping on a clock, keeps the sample
// count the same on every run.
const nominalPass = 3 * time.Second

// setupsPerPass is how many times an untraced run sets up before each pass;
// setup_s is the median of them all, sampled across the whole run.
const setupsPerPass = 10

// workloadNames lists the workloads in presentation order.
var workloadNames = []string{"mimd", "simt", "backing", "serve"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics untraced runs print; every other metric in
// unitOf is a per-layer metric of traced runs.
var endToEnd = []string{"setup_s", "pass_s", "op_geomean_ms", "live_heap_mb"}

// unitOf is the unit of every metric the benchmark prints.
var unitOf = func() map[string]string {
	u := map[string]string{
		"setup_s": "s", "pass_s": "s", "op_geomean_ms": "ms", "live_heap_mb": "MB",

		"trace.pass_s": "s", "trace.overhead_frac": "ratio", "profile.cpu_s": "s", "host.probe_s": "s", "op.tail_ms": "ms",
		"build.wall_frac": "ratio", "sim.run.wall_frac": "ratio", "workloads.verify.wall_frac": "ratio", "mapreduce.reduce.wall_frac": "ratio",
		"router.post.wall_frac": "ratio", "router.poll.wall_frac": "ratio", "router.result.wall_frac": "ratio",
		"jobs.wait_frac": "ratio", "jobs.run_frac": "ratio",
		"sim.cycles_per_s": "1/s", "run.cycles_per_s": "1/s",
		"runtime.gc_cycles": "count", "runtime.alloc_mb": "MB",

		"run.cycles": "count", "run.insts": "count", "corelet.idle_frac": "ratio", "corelet.retry_cycles": "count",
		"prefetch.starved": "count", "prefetch.premature_evicts": "count", "prefetch.flow_blocks": "count",
		"cache.hit_rate": "ratio", "l1.hit_rate": "ratio", "l2.hit_rate": "ratio",
		"simt.divergence_rate": "ratio", "simt.lane_idle": "count",
		"dram.row_hit_rate": "ratio", "dram.requests": "count", "mem.stall_cycles": "count", "mem.rejected": "count",
		"stack.hit_rate": "ratio", "stack.fills": "count", "stack.backing.reads": "count",
		"sim.skipped_edges": "count", "sim.skip_windows": "count", "sim.cycle_allocs": "count", "stack.cycle_allocs": "count",

		"server.sims_run": "count", "server.jobs_rejected": "count", "rescache.hit_rate": "ratio",
		"rescache.shared_frac": "ratio", "router.retries": "count", "client.polls_per_cold": "ratio", "client.joins": "count",
	}
	for _, l := range append(layers, layerRuntime, layerOther) {
		u[l+".self_frac"] = "ratio"
	}
	return u
}()

// options selects one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // traced runs write their span trace and CPU profile here
	sz       size
}

// passResult is what one pass measured.
type passResult struct {
	wall              time.Duration
	latencies         []float64 // per completed operation, ms
	attempted, failed int
	problems          []string
	layer             map[string]float64 // per-layer counts of the pass
	runRates          []float64          // simulated cycles per second of each RunReduced call
	loopRates         []float64          // traced: simulated cycles per second of each engine loop
	heapMB            float64            // live heap at the end of the pass, after a collection
}

func (p *passResult) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 10 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// report is one run's outcome. The first four fields are the JSON line the
// benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	digest   string
	passes   int
	scale    float64 // host normalization applied to the time metrics
	problems []string
}

func (r *report) add(p passResult) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.problems = append(r.problems, p.problems...)
}

func (r *report) put(values map[string]float64, names []string) {
	r.Metrics = map[string]metric{}
	for _, n := range names {
		v := values[n]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[n] = metric{Value: v, Unit: unitOf[n]}
	}
}

// prepare returns the workload's set-up and pass functions. A pass with a
// nil recorder is untraced.
func prepare(name string, sz size) (setup func() error, pass func(seed uint64, rec *recorder, d *digest) passResult, err error) {
	switch name {
	case "serve":
		setup = serveSetup
		pass = func(seed uint64, rec *recorder, d *digest) passResult { return servePass(sz, seed, rec, d) }
	case "mimd", "simt", "backing":
		var runs []runSpec
		setup = func() (err error) {
			runs, err = simPlan(name, sz)
			return err
		}
		pass = func(seed uint64, rec *recorder, d *digest) passResult {
			if rec != nil {
				return tracedSimPass(runs, seed, rec, d)
			}
			return simPass(runs, seed, d)
		}
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return setup, pass, nil
}

// passSeed is the dataset seed of pass i: every pass generates, simulates
// and verifies fresh data, as a new user sweep does.
func passSeed(seed uint64, i int) uint64 {
	if s := seed + uint64(i); s != 0 {
		return s
	}
	return harness.Seed // zero would select the canonical seed anyway
}

// measure runs the end-to-end measurement. It times the host probe before
// the first pass and after every pass and scales every time metric by
// probeRef over the probes' median.
func measure(o options, stderr io.Writer) (report, error) {
	setup, pass, err := prepare(o.workload, o.sz)
	if err != nil {
		return report{}, err
	}
	rep := report{passes: max(1, int(math.Round(o.seconds/nominalPass.Seconds())))}
	d := newDigest()
	probes := []float64{hostProbe().Seconds()}
	var setups, walls, ops []float64
	var heap float64
	for i := 0; i < rep.passes; i++ {
		for j := 0; j < setupsPerPass; j++ {
			runtime.GC() // every set-up starts from the same heap
			t := time.Now()
			if err := setup(); err != nil {
				return report{}, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t).Seconds())
		}
		p := pass(passSeed(o.seed, i), nil, d)
		probes = append(probes, hostProbe().Seconds())
		fmt.Fprintf(stderr, "millibench: pass %d: %.3fs, %d ops, %d failed, probe %.1fms\n",
			i, p.wall.Seconds(), p.attempted, p.failed, 1000*probes[i+1])
		rep.add(p)
		walls = append(walls, p.wall.Seconds())
		ops = append(ops, geomean(p.latencies))
		heap = max(heap, p.heapMB)
	}
	rep.scale = probeRef.Seconds() / median(probes)
	rep.digest = d.hex()
	rep.put(map[string]float64{
		"setup_s":       median(setups) * rep.scale,
		"pass_s":        median(walls) * rep.scale,
		"op_geomean_ms": median(ops) * rep.scale,
		"live_heap_mb":  heap,
	}, endToEnd)
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// measureTraced runs the per-layer measurement in four untraced-or-traced
// passes on three seeds. The golden reference is memoized per seed, so only
// the first pass on a seed pays it; the passes are ordered so the two that
// are timed against each other both do:
//
//	seed+0  untraced  warms the process; supplies the simulated counts
//	seed+1  untraced  the baseline for tracing overhead
//	seed+2  traced    spans and a CPU profile: the time shares
//	seed+2  untraced  twin of the traced pass; their digests must match
func measureTraced(o options, stderr io.Writer) (report, error) {
	setup, pass, err := prepare(o.workload, o.sz)
	if err != nil {
		return report{}, err
	}
	if err := setup(); err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return report{}, err
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	rep := report{passes: 4}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	counted := pass(passSeed(o.seed, 0), nil, newDigest())
	runtime.ReadMemStats(&m1)
	rep.add(counted)
	p1 := hostProbe()
	ref := pass(passSeed(o.seed, 1), nil, newDigest())
	rep.add(ref)
	p2 := hostProbe()

	rec := newRecorder()
	stop, err := cpuProfile(base + ".cpu.pprof")
	if err != nil {
		return report{}, err
	}
	dt := newDigest()
	traced := pass(passSeed(o.seed, 2), rec, dt)
	if err := stop(); err != nil {
		return report{}, err
	}
	p3 := hostProbe()
	rep.add(traced)
	twin := newDigest()
	rep.add(pass(passSeed(o.seed, 2), nil, twin))
	rep.Attempted++
	if dt.hex() != twin.hex() {
		rep.Failed++
		rep.problems = append(rep.problems, "traced pass digest differs from its untraced twin")
	}
	rep.digest = dt.hex()
	fmt.Fprintf(stderr, "millibench: untraced pass %.3fs, traced pass %.3fs\n", ref.wall.Seconds(), traced.wall.Seconds())

	if err := rec.writeChrome(base + ".trace.json"); err != nil {
		return report{}, err
	}
	cpu, total, err := foldProfile(base + ".cpu.pprof")
	if err != nil {
		return report{}, err
	}

	v := map[string]float64{}
	for k, x := range counted.layer {
		v[k] = x
	}
	for _, l := range append(layers, layerRuntime, layerOther) {
		v[l+".self_frac"] = ratio(cpu[l], total)
	}
	self := rec.selfSeconds()
	wall := traced.wall.Seconds()
	for _, n := range []string{"build", "sim.run", "workloads.verify", "mapreduce.reduce"} {
		v[n+".wall_frac"] = self[n] / wall
	}
	// Client spans partition each request, so their self times sum to the
	// summed request latency.
	reqTotal := self["request"] + self["router.post"] + self["router.poll"] + self["router.result"]
	for _, n := range []string{"router.post", "router.poll", "router.result"} {
		v[n+".wall_frac"] = ratio(self[n], reqTotal)
	}
	v["trace.pass_s"] = wall
	// Each timed pass is normalized by the probes around it.
	v["trace.overhead_frac"] = wall/math.Sqrt(p2.Seconds()*p3.Seconds())/(ref.wall.Seconds()/math.Sqrt(p1.Seconds()*p2.Seconds())) - 1
	v["profile.cpu_s"] = total
	v["host.probe_s"] = p2.Seconds()
	v["op.tail_ms"], _ = tailPercentile(append(counted.latencies, ref.latencies...))
	v["sim.cycles_per_s"] = geomean(traced.loopRates)
	v["run.cycles_per_s"] = geomean(ref.runRates)
	v["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	v["runtime.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)

	var names []string
	for n := range unitOf {
		if !slices.Contains(endToEnd, n) {
			names = append(names, n)
		}
	}
	rep.put(v, names)
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// record is one run's line in a -record file, the input of -compare.
type record struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Trace    bool              `json:"trace"`
	Passes   int               `json:"passes"`
	Digest   string            `json:"sim_digest"`
	Correct  bool              `json:"correct"`
	Metrics  map[string]metric `json:"metrics"`
}

func appendRecord(path string, r record) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("millibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; pass i uses seed+i")
	seconds := fs.Float64("seconds", 15, "measurement length; sets the pass count at one pass per "+nominalPass.String())
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	recordPath := fs.String("record", "", "append this run's metrics and digest as a JSON line to `file`")
	outDir := fs.String("out", filepath.Join(".bench_build", "traces"), "`dir` for the traced run's span trace and CPU profile")
	compare := fs.Bool("compare", false, "compare two -record files: millibench -compare base.jsonl new.jsonl")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition with the bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "millibench: -compare needs two record files")
			return 2
		}
		return compareRecords(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, sz: fullSize}
	measureFn := measure
	if o.trace {
		measureFn = measureTraced
	}
	rep, err := measureFn(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "millibench:", err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "millibench: FAIL:", p)
	}
	fmt.Fprintf(stdout, "millibench: workload=%s seed=%d trace=%d passes=%d ops=%d failed=%d host_scale=%.4f sim_digest=%s\n",
		o.workload, o.seed, *trace, rep.passes, rep.Attempted, rep.Failed, rep.scale, rep.digest)
	if *recordPath != "" {
		err := appendRecord(*recordPath, record{Workload: o.workload, Seed: o.seed, Trace: o.trace,
			Passes: rep.passes, Digest: rep.digest, Correct: rep.Correct, Metrics: rep.Metrics})
		if err != nil {
			fmt.Fprintln(stderr, "millibench: record:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "millibench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}
