// Package core assembles the Millipede processor — the paper's primary
// contribution (Section IV). A processor is 32 simple MIMD corelets sharing
// one row-oriented, flow-controlled prefetch buffer in front of a
// die-stacked DRAM channel, with optional coarse-grain compute-memory
// rate-matching driving the compute clock.
//
// The processor also doubles as the ablation points the paper evaluates:
// constructing it with FlowControl disabled yields Millipede-no-flow-control
// and RateMatch toggles the Section IV-F DFS controller. The plain SSMC
// baseline (cache-block prefetch into per-core L1 D-caches) lives in
// internal/ssmc.
package core

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/corelet"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Launch describes one kernel execution.
type Launch struct {
	Prog *isa.Program
	// Interleave selects the intra-row layout; Millipede uses slab
	// interleaving by default (wider columns, Section IV-C).
	Interleave layout.Interleave
	// Streams are the per-thread packed record streams (len == threads),
	// fully materialized. Leave nil and set Sources for streamed input.
	Streams [][]uint32
	// Sources are per-thread streaming generators (len == threads), used
	// when Streams is nil: the DRAM image is packed chunk-by-chunk through
	// a bounded buffer, so launch memory stays constant in the per-thread
	// record count.
	Sources []*datagen.Source
	// Args is the kernel argument block written to every corelet's local
	// memory at address 0 (the workload layer appends layout walk
	// parameters and constants).
	Args []uint32
	// Table is an optional second input operand placed after the streamed
	// region. It models the paper's Section III-D non-compact case (e.g.,
	// join's second table): accesses to it bypass the row prefetch buffer
	// and pay demand DRAM fetches, because the corelets can be near only
	// one large operand.
	Table []uint32
}

// StreamLen returns the per-thread input stream length in words, from
// whichever of Streams/Sources is set. It errors on an empty or ragged
// input, so the architecture models share one validation.
func (l Launch) StreamLen() (int, error) {
	if len(l.Streams) > 0 {
		n := len(l.Streams[0])
		for t, s := range l.Streams {
			if len(s) != n {
				return 0, fmt.Errorf("stream %d has %d words, stream 0 has %d", t, len(s), n)
			}
		}
		if n == 0 {
			return 0, fmt.Errorf("empty streams")
		}
		return n, nil
	}
	if len(l.Sources) == 0 {
		return 0, fmt.Errorf("launch has neither streams nor sources")
	}
	n := l.Sources[0].Words()
	for t, s := range l.Sources {
		if s.Words() != n {
			return 0, fmt.Errorf("source %d has %d words, source 0 has %d", t, s.Words(), n)
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("empty sources")
	}
	return n, nil
}

// PackInput builds the flat DRAM image of the launch input for lay:
// materialized streams go through lay.Pack, Sources through lay.PackFrom's
// bounded-buffer path. Both produce identical bytes for identical data.
func (l Launch) PackInput(lay layout.Layout) ([]uint32, error) {
	if len(l.Streams) > 0 {
		return lay.Pack(l.Streams)
	}
	n, err := l.StreamLen()
	if err != nil {
		return nil, err
	}
	if len(l.Sources) != lay.Threads() {
		return nil, fmt.Errorf("layout: %d sources for %d threads", len(l.Sources), lay.Threads())
	}
	return lay.PackFrom(n, func(t int, buf []uint32) int { return l.Sources[t].Next(buf) })
}

// Result aggregates one run: the node-level counters every model shares
// plus Millipede's own.
type Result struct {
	arch.RunStats
	Cores    corelet.Stats
	Prefetch prefetch.Stats
	// DFS is the rate-matching controller's clock trajectory (only
	// frequency changes are recorded); empty unless RateMatch was enabled.
	DFS []DFSSample
	// Timeline holds the cycle-sampled gauge series when EnableTimeline was
	// called before Run; nil otherwise.
	Timeline *metrics.Timeline
}

// Processor is one Millipede processor plus its memory side.
type Processor struct {
	P       arch.Params
	EP      energy.Params
	node    *arch.Node
	lay     layout.Layout
	ownerOf func(addr uint32) (corelet, slot int)
	// cluster holds every corelet's hot state in one structure-of-arrays
	// image; its Tick sweeps live corelets in registration order, which keeps
	// shared-buffer access order — and therefore timing — identical to the
	// per-corelet object model.
	cluster   *corelet.Cluster
	buf       *prefetch.Buffer
	rate      *dfs.Controller
	tableBase uint32 // start of the optional non-compact table region
	ticks     uint64
	// lastStarved is DFS sampling state.
	lastStarved uint64
	// Software-barrier coordination (Section IV-C ablation). Arrivals
	// collect in barWaiters; a release swaps in barSpare. Both are pre-sized
	// to barTarget, so a barrier never allocates in the cycle loop.
	barWaiters, barSpare []func()
	barTarget            int
	// dfsTrace records (cycle, Hz) at every controller decision when rate
	// matching is enabled, for convergence analysis.
	dfsTrace []DFSSample
	timeline *metrics.Timeline
	traceLog *trace.Log
}

// NewProcessor builds and loads a Millipede processor for one launch.
func NewProcessor(p arch.Params, ep energy.Params, l Launch) (*Processor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ep.Validate(); err != nil {
		return nil, err
	}
	if l.Prog == nil {
		return nil, fmt.Errorf("core: nil program")
	}
	if l.Interleave == layout.Split {
		return nil, fmt.Errorf("core: Millipede requires a row-shared interleaving (Slab or Word)")
	}
	lay := layout.Layout{
		Base:       0,
		RowBytes:   p.DRAM.RowBytes,
		Corelets:   p.Corelets,
		Contexts:   p.Contexts,
		Interleave: l.Interleave,
	}
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	flat, err := l.PackInput(lay)
	if err != nil {
		return nil, err
	}
	tableBase := len(flat) * 4
	capacity := tableBase + (len(l.Table)*4/p.DRAM.RowBytes+1)*p.DRAM.RowBytes
	node, err := arch.NewNode(p, capacity)
	if err != nil {
		return nil, err
	}
	node.DRAM.LoadWords(0, flat)
	pr := &Processor{P: p, EP: ep, node: node, lay: lay, ownerOf: lay.OwnerFunc()}
	if len(l.Table) > 0 {
		node.DRAM.LoadWords(uint32(tableBase), l.Table)
		pr.tableBase = uint32(tableBase)
	}

	bcfg := prefetch.Config{
		Entries:     p.PrefetchEntries,
		Corelets:    p.Corelets,
		RowBytes:    p.DRAM.RowBytes,
		FlowControl: p.FlowControl,
		MaxWaiters:  p.Corelets * p.Contexts,
	}
	pr.buf, err = prefetch.New(bcfg, node.Port)
	if err != nil {
		return nil, err
	}

	read := func(addr uint32) uint32 { return node.DRAM.ReadWord(addr) }
	code, err := corelet.Decode(l.Prog, p.Latencies)
	if err != nil {
		return nil, err
	}
	ports := make([]corelet.GlobalPort, p.Corelets)
	for c := 0; c < p.Corelets; c++ {
		ports[c] = &port{pr: pr, corelet: c}
	}
	ccfg := corelet.Config{
		Corelets:   p.Corelets,
		Contexts:   p.Contexts,
		LocalBytes: p.LocalBytes,
		Latencies:  p.Latencies,
	}
	pr.cluster, err = corelet.NewCluster(ccfg, code, ports, read)
	if err != nil {
		return nil, err
	}
	for c := 0; c < p.Corelets; c++ {
		for i, w := range l.Args {
			pr.cluster.WriteLocal(c, uint32(i*4), w)
		}
	}

	pr.barTarget = p.Corelets * p.Contexts
	pr.barWaiters = make([]func(), 0, pr.barTarget)
	pr.barSpare = make([]func(), 0, pr.barTarget)
	pr.cluster.SetBarrier(pr.barrierArrive)

	if p.RateMatch {
		pr.rate, err = dfs.New(p.ComputeHz, p.DFSStepPct, p.DFSMinHz, p.DFSMaxHz)
		// Pre-size the decision trace so recording clock steps does not
		// allocate inside the cycle loop (it only grows past this for
		// pathologically oscillating runs).
		pr.dfsTrace = make([]DFSSample, 0, 64)
		if err != nil {
			return nil, err
		}
	}

	node.Metrics.Counter("core.cycles", func() uint64 { return pr.ticks })
	corelet.RegisterStats(node.Metrics, "corelet", pr.cluster.Stats)
	pr.buf.RegisterMetrics(node.Metrics, "prefetch")
	if pr.rate != nil {
		pr.rate.RegisterMetrics(node.Metrics, "dfs")
	}

	if err := node.AttachCompute(pr); err != nil {
		return nil, err
	}
	if err := pr.buf.Start(0, len(flat)*4); err != nil {
		return nil, err
	}
	return pr, nil
}

// port adapts the shared prefetch buffer to one corelet's GlobalPort,
// translating addresses into (corelet, slab-slot) pairs via the layout and
// asserting the kernel only touches its own slab.
type port struct {
	pr      *Processor
	corelet int
	// tableBlock is a one-line stream latch for the table region: demand
	// fetches are 64 B, and sequential scans reuse the latched block.
	tableBlock uint32
	tableValid bool
}

func (pt *port) Read(ctx int, addr uint32, ready func()) corelet.Status {
	if pt.pr.tableBase > 0 && addr >= pt.pr.tableBase {
		// Second-operand access (Section III-D's non-compact case): no row
		// prefetch, just a one-block stream latch in front of demand 64 B
		// DRAM fetches. The table is re-streamed on every pass — the
		// bandwidth cost no PNM architecture can hide.
		blk := addr &^ 63
		if pt.tableValid && pt.tableBlock == blk {
			return corelet.Done
		}
		ok := pt.pr.node.Port.Enqueue(mem.Request{Addr: blk, Bytes: 64,
			Done: func(int64, bool) {
				pt.tableBlock = blk
				pt.tableValid = true
				ready()
			}})
		if !ok {
			return corelet.Retry
		}
		return corelet.Pending
	}
	c, slot := pt.pr.ownerOf(addr)
	if c != pt.corelet {
		panic(fmt.Sprintf("core: corelet %d touched corelet %d's slab at %#x (kernel addressing bug)", pt.corelet, c, addr))
	}
	if pt.pr.buf.Access(c, slot, addr, ready) == prefetch.Ready {
		return corelet.Done
	}
	return corelet.Pending
}

// Tick advances every live corelet one compute cycle and runs the DFS
// controller at its sampling interval.
func (pr *Processor) Tick(now sim.Time) {
	pr.ticks++
	pr.cluster.Tick()
	pr.buf.Pump()
	if pr.rate != nil && pr.P.DFSIntervalCycles > 0 && pr.ticks%uint64(pr.P.DFSIntervalCycles) == 0 {
		// Section IV-F: the controller reacts to the leading corelet
		// finding the buffers empty (no filled-but-unconsumed rows: the
		// processor outruns memory, step the clock down) or full (memory
		// outruns the processor, step up toward nominal).
		occ := pr.buf.Occupancy()
		bs := pr.buf.Stats()
		starvedDelta := bs.Starved - pr.lastStarved
		pr.lastStarved = bs.Starved
		var starved, full uint64
		switch {
		case occ == 0 && starvedDelta > 0:
			// Buffers empty while corelets wait on fills: memory-bound.
			starved = 1
		case occ >= pr.P.PrefetchEntries-1:
			full = 1
		}
		hz := pr.rate.Update(starved, full)
		if n := len(pr.dfsTrace); n == 0 || pr.dfsTrace[n-1].Hz != hz {
			pr.dfsTrace = append(pr.dfsTrace, DFSSample{Cycle: pr.ticks, Hz: hz})
			if pr.traceLog != nil {
				pr.traceLog.Add(trace.Event{Cycle: pr.ticks, Corelet: -1, Context: -1,
					Kind: trace.DFSStep, Detail: fmt.Sprintf("%.0f MHz", hz/1e6)})
			}
		}
		if err := pr.node.Compute.SetPeriod(sim.PeriodFromHz(hz)); err != nil {
			panic(err) // unreachable: DFS bounds guarantee a valid period
		}
	}
	if pr.timeline != nil {
		pr.timeline.Tick(pr.ticks)
	}
}

// NextWork implements sim.NextWorker: the earliest future compute edge at
// which Tick could change state. The cluster's issue bound supplies the
// base; windows are clamped to the next DFS sampling tick and the next
// timeline sample so those observers run live (the DFS may retune the
// clock; the sampler records gauge values), keeping every skipped tick a
// provable no-op.
func (pr *Processor) NextWork(sim.Time) sim.Time {
	t := int64(pr.ticks)
	if pr.buf.PumpPending() > 0 && !pr.buf.PumpStalled() {
		// A bounced fetch may get through on the very next pump. When every
		// pending fetch faces a still-full channel queue the retries are
		// provable no-ops until the next channel work tick (which ends any
		// window), so a stalled pump does not pin the clock.
		return pr.node.Compute.TimeOfTick(uint64(t + 1))
	}
	w := int64(1<<63 - 1)
	if n := pr.cluster.NextWorkTicks(); n != corelet.NeverTicks {
		if n <= 1 {
			return pr.node.Compute.TimeOfTick(uint64(t + 1))
		}
		w = t + n
	}
	if pr.rate != nil && pr.P.DFSIntervalCycles > 0 {
		iv := int64(pr.P.DFSIntervalCycles)
		if next := t - t%iv + iv; next < w {
			w = next
		}
	}
	if pr.timeline != nil {
		ev := int64(pr.timeline.Every())
		if next := t - t%ev + ev; next < w {
			w = next
		}
	}
	if w == 1<<63-1 {
		return sim.Never
	}
	return pr.node.Compute.TimeOfTick(uint64(w))
}

// SkipTicks implements sim.NextWorker: replays n dead compute ticks —
// cycle counters, idle tallies, and the stalled pump's per-cycle reject
// bookkeeping (NextWork guarantees the DFS sample and timeline sample
// paths stay untouched in the window, and that a pump with a reachable
// queue pins the clock instead of skipping).
func (pr *Processor) SkipTicks(n int64) {
	pr.ticks += uint64(n)
	pr.cluster.SkipTicks(n)
	pr.buf.SkipPumpTicks(n)
}

// barrierArrive collects BAR arrivals and releases everyone when the last
// context arrives (kernels only barrier while all threads are live).
func (pr *Processor) barrierArrive(release func()) {
	pr.barWaiters = append(pr.barWaiters, release)
	if len(pr.barWaiters) >= pr.barTarget {
		ws := pr.barWaiters
		pr.barWaiters, pr.barSpare = pr.barSpare[:0], ws
		for _, w := range ws {
			w()
		}
	}
}

// Halted reports whether every corelet has finished.
func (pr *Processor) Halted() bool { return pr.cluster.Halted() }

// Run executes to completion and returns aggregated results.
func (pr *Processor) Run(limit sim.Time) (Result, error) {
	rs, err := pr.node.Run(limit)
	if err != nil {
		return Result{}, err
	}
	r := Result{RunStats: rs, Cores: pr.cluster.Stats(), Prefetch: pr.buf.Stats(),
		DFS: pr.dfsTrace, Timeline: pr.timeline}
	r.ComputeCycles = pr.ticks
	r.Insts, r.CondBranches = r.Cores.Instructions, r.Cores.CondBranches
	r.FinalHz = pr.P.ComputeHz
	if pr.rate != nil {
		r.FinalHz = pr.rate.Hz()
	}
	r.Energy = pr.energy(r)
	return r, nil
}

// energy converts the run's event counts into the Figure 4 breakdown.
// Millipede core energy: per-instruction execute + per-core instruction
// fetch (MIMD pays fetch per corelet), local-memory words, prefetch-buffer
// slice reads, and idle dynamic from imperfect clock gating.
func (pr *Processor) energy(r Result) energy.Breakdown {
	ep := pr.EP
	var b energy.Breakdown
	b.CorePJ = float64(r.Cores.Instructions)*(ep.InstPJ+ep.IFetchMIMDPJ) +
		float64(r.Cores.LocalAccess)*ep.LocalPJ +
		float64(r.Cores.GlobalReads)*ep.LocalPJ +
		float64(r.Cores.IdleCycles)*ep.IdlePJ
	b.DRAMPJ = ep.DRAM(r.DRAM.RowMisses, r.DRAM.BytesRead)
	b.LeakPJ = ep.Leakage(pr.P.Corelets, float64(r.Time)/1e12)
	return b
}

// InjectMemoryJitter enables deterministic DRAM completion jitter (fault
// injection). Call before Run.
func (pr *Processor) InjectMemoryJitter(max int64, seed uint64) {
	pr.node.InjectMemoryJitter(max, seed)
}

// ReadState reads a word of a corelet's local memory after the run — the
// host-side access the final Reduce uses (Section IV-D).
func (pr *Processor) ReadState(coreletID int, addr uint32) uint32 {
	return pr.cluster.ReadLocal(coreletID, addr)
}

// PrefetchBuffer exposes the shared row buffer, so invariant tests can check
// its flow-control state directly after a run.
func (pr *Processor) PrefetchBuffer() *prefetch.Buffer { return pr.buf }

// Layout returns the layout used for the input region.
func (pr *Processor) Layout() layout.Layout { return pr.lay }

// TableBase returns the byte address of the optional table region.
func (pr *Processor) TableBase() uint32 { return pr.tableBase }

// DFSSample is one rate-matching controller decision.
type DFSSample struct {
	Cycle uint64
	Hz    float64
}

// EnableTimeline samples observability gauges every everyCycles compute
// cycles into a timeline returned in Result.Timeline. Call before Run. The
// sampler reads state the cycle loop already maintains, so it does not
// perturb timing.
func (pr *Processor) EnableTimeline(everyCycles uint64) {
	t := metrics.NewTimeline(everyCycles)
	t.Probe("prefetch-occupancy", func() float64 { return float64(pr.buf.Occupancy()) })
	t.Probe("row-hit-rate", func() float64 {
		ds := pr.node.Mem.DRAMStats()
		total := ds.RowHits + ds.RowMisses
		if total == 0 {
			return 0
		}
		return float64(ds.RowHits) / float64(total)
	})
	t.Probe("queue-depth", func() float64 { return float64(pr.node.Mem.Pending()) })
	t.Probe("clock-mhz", func() float64 {
		if pr.rate != nil {
			return pr.rate.Hz() / 1e6
		}
		return pr.P.ComputeHz / 1e6
	})
	pr.timeline = t
}

// EnableTrace records the instruction stream of one corelet and the shared
// prefetch buffer's events into l. Call before Run.
func (pr *Processor) EnableTrace(l *trace.Log, coreletID int) {
	// A traced run replays every edge: the fabric tracer fires on rejected
	// enqueues, which the quiescence fast-forward tallies without events.
	pr.node.Engine.SetSkip(false)
	pr.traceLog = l
	if coreletID < 0 || coreletID >= pr.cluster.Corelets() {
		coreletID = 0
	}
	pr.cluster.SetTracer(coreletID, func(cycle int64, ctx, pc int, in isa.Inst) {
		l.Add(trace.Event{Cycle: uint64(cycle), Corelet: coreletID, Context: ctx,
			Kind: trace.Exec, PC: pc, Detail: in.String()})
	})
	kinds := map[string]trace.Kind{
		"prefetch": trace.Prefetch, "flow-block": trace.FlowBlock,
		"starve": trace.Starve, "evict": trace.Evict,
	}
	pr.buf.SetTracer(func(kind string, row int64) {
		l.Add(trace.Event{Cycle: pr.ticks, Corelet: -1, Context: -1,
			Kind: kinds[kind], Detail: fmt.Sprintf("row %d", row)})
	})
	memKinds := [...]trace.Kind{
		mem.TraceIssue: trace.MemIssue, mem.TraceReject: trace.MemReject,
		mem.TraceRowOpen: trace.RowOpen, mem.TraceRowClose: trace.RowClose,
	}
	pr.node.Mem.SetTracer(func(ch int, ev mem.TraceEvent, addr uint32, bank int, row int64) {
		var detail string
		switch ev {
		case mem.TraceIssue, mem.TraceReject:
			detail = fmt.Sprintf("ch %d addr %#x", ch, addr)
		default:
			detail = fmt.Sprintf("ch %d bank %d row %d", ch, bank, row)
		}
		l.Add(trace.Event{Cycle: pr.ticks, Corelet: -1, Context: -1,
			Kind: memKinds[ev], Detail: detail})
	})
}
