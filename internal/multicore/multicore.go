// Package multicore models the conventional Xeon-like system of the paper's
// Section VI-C comparison (Figure 5): 8 cores at 3.6 GHz with 4-way SMT and
// a 4-wide issue width, 64 KB L1 and 1 MB-per-core L2 caches, and off-chip
// DRAM at one quarter of the die-stacked bandwidth, charged at 70 pJ/bit.
//
// The core is an in-order-SMT approximation of the paper's out-of-order
// pipeline: each core cycle offers four issue slots filled from the four
// SMT contexts in round-robin order, and the non-blocking cache hierarchy
// supplies the memory-level parallelism an OoO window would. The paper
// itself flags this comparison as coarse — its point is the thread-count
// and off-chip-energy gap, which this model reproduces — while the
// controlled comparisons are the PNM ones.
package multicore

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/corelet"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/layout"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Config is the conventional-multicore configuration.
type Config struct {
	Cores      int     // 8
	SMT        int     // 4
	IssueWidth int     // 4
	ClockHz    float64 // 3.6 GHz
	L1Bytes    int     // 64 KB
	L2Bytes    int     // 1 MB per core
	LineBytes  int     // 128
	L2Latency  int     // core cycles added to an L1 miss that hits in L2
	LocalBytes int     // live-state scratch (cache-resident state assumption)
	// Off-chip DRAM: one quarter of the die-stacked channel bandwidth.
	DRAM          dram.Params
	MemClockHz    float64
	MemQueueDepth int
	Latencies     corelet.Latencies
	// NoSkip disables the engine's quiescence time skipping (see
	// arch.Params.NoSkip): a speed knob, never a model change.
	NoSkip bool
}

// DefaultConfig returns the Section VI-C parameters.
func DefaultConfig() Config {
	d := dram.DefaultParams()
	d.ChannelBytes = 4 // quarter bandwidth at the same 1.2 GHz channel clock
	lat := corelet.DefaultLatencies()
	lat.GlobalHit = 3
	return Config{
		Cores:         8,
		SMT:           4,
		IssueWidth:    4,
		ClockHz:       3.6e9,
		L1Bytes:       65536,
		L2Bytes:       1 << 20,
		LineBytes:     128,
		L2Latency:     12,
		LocalBytes:    4096,
		DRAM:          d,
		MemClockHz:    1.2e9,
		MemQueueDepth: 32,
		Latencies:     lat,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0 || c.SMT <= 0 || c.IssueWidth <= 0:
		return fmt.Errorf("multicore: bad geometry")
	case c.ClockHz <= 0 || c.MemClockHz <= 0:
		return fmt.Errorf("multicore: bad clocks")
	case c.L1Bytes <= 0 || c.L2Bytes <= 0 || c.LineBytes <= 0:
		return fmt.Errorf("multicore: bad cache sizes")
	case c.MemQueueDepth <= 0:
		return fmt.Errorf("multicore: bad queue depth")
	}
	return c.DRAM.Validate()
}

// Threads returns the hardware thread count.
func (c Config) Threads() int { return c.Cores * c.SMT }

// nodeParams derives the arch.Node configuration: one off-chip channel with
// the config's queue depth and DRAM, ClockHz as the compute clock and
// MemClockHz as the channel clock. The node reads nothing else; the rest is
// Table III's, which keeps the params valid.
func (c Config) nodeParams() arch.Params {
	p := arch.Default()
	p.DRAM = c.DRAM
	p.Channels = 1
	p.MemQueueDepth = c.MemQueueDepth
	p.ComputeHz = c.ClockHz
	p.ChannelHz = c.MemClockHz
	p.NoSkip = c.NoSkip
	return p
}

type delayed struct {
	due uint64
	fn  func()
}

// delayLine defers callbacks by core cycles, modeling L2 hit latency on top
// of the synchronous cache stack. It also owns the freelist of delayCtx
// records so the per-request Done plumbing allocates nothing in steady state.
type delayLine struct {
	now  uint64
	q    []delayed
	free []*delayCtx
}

// delayCtx carries one request's completion through the delay line. Both of
// its closures are built once at allocation and reused for every request the
// context serves.
type delayCtx struct {
	d     *delayLine
	delay int
	done  func(int64, bool)
	cycle int64
	hit   bool
	wrap  func(int64, bool) // handed to the inner port as Done
	fire  func()            // runs after the delay; recycles the ctx
}

func (d *delayLine) newCtx() *delayCtx {
	ctx := &delayCtx{d: d}
	ctx.wrap = func(cycle int64, hit bool) {
		ctx.cycle, ctx.hit = cycle, hit
		ctx.d.after(ctx.delay, ctx.fire)
	}
	ctx.fire = func() {
		if ctx.done != nil {
			ctx.done(ctx.cycle, ctx.hit)
		}
		ctx.done = nil
		ctx.d.free = append(ctx.d.free, ctx)
	}
	return ctx
}

func (d *delayLine) getCtx(delay int, done func(int64, bool)) *delayCtx {
	n := len(d.free)
	if n == 0 {
		d.free = append(d.free, d.newCtx())
		n = 1
	}
	ctx := d.free[n-1]
	d.free = d.free[:n-1]
	ctx.delay, ctx.done = delay, done
	return ctx
}

func (d *delayLine) putCtx(ctx *delayCtx) {
	ctx.done = nil
	d.free = append(d.free, ctx)
}

func (d *delayLine) after(cycles int, fn func()) {
	d.q = append(d.q, delayed{due: d.now + uint64(cycles), fn: fn})
}

func (d *delayLine) tick() {
	d.now++
	rest := d.q[:0]
	for _, e := range d.q {
		if e.due <= d.now {
			e.fn()
		} else {
			rest = append(rest, e)
		}
	}
	d.q = rest
}

// delayedPort adds a fixed completion delay to an inner memory port (the L2
// hit/fill latency on top of the synchronous cache stack).
type delayedPort struct {
	inner mem.Port
	d     *delayLine
	delay int
}

func (b delayedPort) Enqueue(r mem.Request) bool {
	ctx := b.d.getCtx(b.delay, r.Done)
	r.Done = ctx.wrap
	ok := b.inner.Enqueue(r)
	if !ok {
		b.d.putCtx(ctx)
	}
	return ok
}

func (b delayedPort) Tick() { b.inner.Tick() }

func (b delayedPort) Idle() bool { return b.inner.Idle() }

// Result is the shared node result plus the multicore's core and cache
// counters.
type Result struct {
	arch.RunStats
	Cores  corelet.Stats
	L1, L2 cache.Stats
}

// System is the 8-core conventional machine.
type System struct {
	C    Config
	EP   energy.Params
	node *arch.Node
	// cluster holds every core's hot state in one structure-of-arrays image.
	// The multicore clock hands each core IssueWidth issue slots per system
	// cycle, so the cores are advanced individually (Advance) rather than as
	// a cluster sweep.
	cluster *corelet.Cluster
	// live is the active set of non-halted core indices, compacted in
	// registration order as cores halt (cores never un-halt).
	live  []int32
	l1s   []*cache.Cache
	l2s   []*cache.Cache
	delay *delayLine
	lay   layout.Layout
	ticks uint64
}

type port struct{ c *cache.Cache }

func (p port) Read(ctx int, addr uint32, ready func()) corelet.Status {
	switch p.c.Access(addr, ready) {
	case cache.Hit:
		return corelet.Done
	case cache.Miss:
		return corelet.Pending
	default:
		return corelet.Retry
	}
}

// New builds the system for one launch. The launch must use the Split
// layout (contiguous per-thread partitions — the natural MapReduce sharding
// for a cache hierarchy).
func New(c Config, ep energy.Params, l core.Launch) (*System, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := ep.Validate(); err != nil {
		return nil, err
	}
	if l.Prog == nil {
		return nil, fmt.Errorf("multicore: nil program")
	}
	if l.Interleave != layout.Split {
		return nil, fmt.Errorf("multicore: requires the Split layout")
	}
	streamWords, err := l.StreamLen()
	if err != nil {
		return nil, fmt.Errorf("multicore: %v", err)
	}
	lay := layout.Layout{
		RowBytes: c.DRAM.RowBytes, Corelets: c.Cores, Contexts: c.SMT,
		Interleave: layout.Split, StreamWords: streamWords,
	}
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	flat, err := l.PackInput(lay)
	if err != nil {
		return nil, err
	}
	// Conventional off-chip DRAM: one channel (no die-stack vault fan-out).
	node, err := arch.NewNode(c.nodeParams(), len(flat)*4)
	if err != nil {
		return nil, err
	}
	node.DRAM.LoadWords(0, flat)
	s := &System{C: c, EP: ep, node: node, lay: lay}
	s.delay = &delayLine{q: make([]delayed, 0, 256)}
	// Outstanding delayed completions are bounded by the L1s' collective
	// MSHR capacity; pre-seed past it so the cycle loop never grows the list.
	s.delay.free = make([]*delayCtx, 0, 32*c.Cores)
	for i := 0; i < 16*c.Cores; i++ {
		s.delay.free = append(s.delay.free, s.delay.newCtx())
	}

	read := func(addr uint32) uint32 { return node.DRAM.ReadWord(addr) }
	code, err := corelet.Decode(l.Prog, c.Latencies)
	if err != nil {
		return nil, err
	}
	ports := make([]corelet.GlobalPort, c.Cores)
	for i := 0; i < c.Cores; i++ {
		l2, err := cache.New(cache.Config{
			SizeBytes: c.L2Bytes, LineBytes: c.LineBytes, Assoc: 8, PrefetchDepth: 2,
		}, node.Port, 16)
		if err != nil {
			return nil, err
		}
		l1, err := cache.New(cache.Config{
			SizeBytes: c.L1Bytes, LineBytes: c.LineBytes, Assoc: 4, PrefetchDepth: 2,
		}, delayedPort{inner: l2, d: s.delay, delay: c.L2Latency}, 8)
		if err != nil {
			return nil, err
		}
		ports[i] = port{c: l1}
		s.l1s = append(s.l1s, l1)
		s.l2s = append(s.l2s, l2)
	}
	s.cluster, err = corelet.NewCluster(corelet.Config{
		Corelets:   c.Cores,
		Contexts:   c.SMT,
		LocalBytes: c.LocalBytes,
		Latencies:  c.Latencies,
	}, code, ports, read)
	if err != nil {
		return nil, err
	}
	for i := 0; i < c.Cores; i++ {
		for j, w := range l.Args {
			s.cluster.WriteLocal(i, uint32(j*4), w)
		}
		s.live = append(s.live, int32(i))
	}

	node.Metrics.Counter("core.cycles", func() uint64 { return s.ticks })
	corelet.RegisterStats(node.Metrics, "corelet", s.cluster.Stats)
	cache.RegisterStats(node.Metrics, "l1", func() cache.Stats { return s.cacheStats(s.l1s) })
	cache.RegisterStats(node.Metrics, "l2", func() cache.Stats { return s.cacheStats(s.l2s) })

	if err := node.AttachCompute(coresTicker{s}); err != nil {
		return nil, err
	}
	return s, nil
}

// coresTicker registers the core clock with the node, including the
// quiescence protocol (the System's exported method set stays the model
// API).
type coresTicker struct{ s *System }

func (t coresTicker) Tick(now sim.Time) { t.s.tick(now) }

func (t coresTicker) Halted() bool { return t.s.Halted() }

// NextWork reports the earliest future core-clock tick at which the system
// tick could change state: the earliest delayed completion due to fire, or
// the earliest cycle any live core needs its slots stepped in lockstep. Each
// system tick advances a core IssueWidth corelet cycles, so a core whose
// next lockstep cycle is d corelet cycles away (CoreNextWork) first needs
// the sweep ceil(d/IssueWidth) system ticks from now.
func (t coresTicker) NextWork(sim.Time) sim.Time {
	s := t.s
	tk := int64(s.ticks)
	iw := int64(s.C.IssueWidth)
	w := int64(1<<63 - 1)
	for _, e := range s.delay.q {
		if due := int64(e.due); due < w {
			if due <= tk+1 {
				return s.node.Compute.TimeOfTick(uint64(tk + 1))
			}
			w = due
		}
	}
	for _, co := range s.live {
		d := s.cluster.CoreNextWork(int(co), tk*iw)
		if d == corelet.NeverTicks {
			continue
		}
		if d <= iw {
			return s.node.Compute.TimeOfTick(uint64(tk + 1))
		}
		if n := tk + (d+iw-1)/iw; n < w {
			w = n
		}
	}
	if w == 1<<63-1 {
		return sim.Never
	}
	return s.node.Compute.TimeOfTick(uint64(w))
}

// SkipTicks replays n dead system ticks: the tick counter and delay-line
// clock advance, and every live core burns its idle issue slots up to the
// new tick's last slot, exactly as the dispatched loop would have.
func (t coresTicker) SkipTicks(n int64) {
	s := t.s
	s.ticks += uint64(n)
	s.delay.now += uint64(n)
	to := int64(s.ticks) * int64(s.C.IssueWidth)
	for _, co := range s.live {
		s.cluster.SkipCore(int(co), to)
	}
}

// tick gives each core IssueWidth issue slots per cycle by advancing it to
// the cycle's last slot (corelet.Cluster.Advance). A core that halts
// mid-cycle still receives its remaining slots (as with the full scan, which
// only checked Halted at the top of the cycle) and drops out the next cycle.
func (s *System) tick(sim.Time) {
	s.ticks++
	s.delay.tick()
	to := int64(s.ticks) * int64(s.C.IssueWidth)
	live := s.live
	n := 0
	for i, co := range live {
		s.cluster.Advance(int(co), to)
		if !s.cluster.CoreHalted(int(co)) {
			if n != i {
				live[n] = co // only move on an actual halt
			}
			n++
		}
	}
	s.live = live[:n]
}

// Halted reports whether all cores finished.
func (s *System) Halted() bool { return len(s.live) == 0 }

// Run executes to completion.
func (s *System) Run(limit sim.Time) (Result, error) {
	rs, err := s.node.Run(limit)
	if err != nil {
		return Result{}, err
	}
	r := Result{RunStats: rs, Cores: s.cluster.Stats(), L1: s.cacheStats(s.l1s), L2: s.cacheStats(s.l2s)}
	r.ComputeCycles = s.ticks
	r.Insts, r.CondBranches = r.Cores.Instructions, r.Cores.CondBranches
	r.FinalHz = s.C.ClockHz
	r.Energy = s.energyOf(r)
	return r, nil
}

// cacheStats aggregates one cache level's counters.
func (s *System) cacheStats(level []*cache.Cache) cache.Stats {
	var agg cache.Stats
	for _, c := range level {
		agg.Add(c.Stats())
	}
	return agg
}

// ooIInstFactor is the per-instruction energy premium of a 4-wide
// out-of-order core (rename, wakeup/select, ROB, load-store queue) over the
// simple in-order corelet datapath — the "power-hungry superscalar cores"
// the paper contrasts against (Section V).
const oooInstFactor = 6.0

// leakMWPerOoOCore is leakage per big core in milliwatts.
const leakMWPerOoOCore = 25.0

func (s *System) energyOf(r Result) energy.Breakdown {
	ep := s.EP
	var b energy.Breakdown
	b.CorePJ = float64(r.Cores.Instructions)*(ep.InstPJ+ep.IFetchMIMDPJ)*oooInstFactor +
		float64(r.Cores.LocalAccess+r.Cores.GlobalReads)*ep.L1LargePJ +
		float64(r.L2.Hits+r.L2.Misses)*ep.L2PJ +
		float64(r.Cores.IdleCycles)*ep.IdlePJ*oooInstFactor
	b.DRAMPJ = ep.OffChip(r.DRAM.BytesRead)
	b.LeakPJ = leakMWPerOoOCore * float64(s.C.Cores) * 1e-3 * (float64(r.Time) / 1e12) * 1e12
	return b
}

// ReadState reads a word of a core's local state after the run.
func (s *System) ReadState(coreID int, addr uint32) uint32 {
	return s.cluster.ReadLocal(coreID, addr)
}

// Layout returns the input layout.
func (s *System) Layout() layout.Layout { return s.lay }
