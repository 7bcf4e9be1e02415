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
	"math"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/corelet"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/layout"
	"repro/internal/mem"
	"repro/internal/memctrl"
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
	// NoSkip has no effect: the multicore model takes no part in the
	// engine's quiescence time skipping, which cost it wall time (see
	// DESIGN.md). The field stays for callers that still set it.
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
	return p
}

type delayed struct {
	due uint64
	fn  func()
}

// delayLine defers one core's callbacks by core cycles, modeling L2 hit
// latency on top of the synchronous cache stack. Each core has its own line:
// a line's callbacks fill only its core's L1 and wake only its contexts, so
// the order in which the lines fire within a cycle changes nothing, and the
// line's earliest due cycle bounds when the core can next be woken (see
// park). It also owns the freelist of delayCtx records so the per-request
// Done plumbing allocates nothing in steady state.
type delayLine struct {
	now uint64
	q   []delayed
	// next is the earliest due cycle in q (math.MaxUint64 when empty).
	next uint64
	free []*delayCtx
}

// newDelayLine pre-seeds the freelist past the core's outstanding delayed
// completions, which its L1's MSHRs bound, so the cycle loop never grows it.
func newDelayLine() *delayLine {
	d := &delayLine{q: make([]delayed, 0, 32), next: math.MaxUint64, free: make([]*delayCtx, 0, 32)}
	for i := 0; i < 16; i++ {
		d.free = append(d.free, d.newCtx())
	}
	return d
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
	due := d.now + uint64(cycles)
	d.q = append(d.q, delayed{due: due, fn: fn})
	d.next = min(d.next, due)
}

func (d *delayLine) tick() {
	d.now++
	if d.now < d.next {
		return
	}
	rest := d.q[:0]
	d.next = math.MaxUint64
	for _, e := range d.q {
		if e.due <= d.now {
			e.fn()
		} else {
			rest = append(rest, e)
			d.next = min(d.next, e.due)
		}
	}
	d.q = rest
}

// nextDue returns the cycle at whose tick the line's next callback fires,
// or math.MaxInt64 when none is queued.
func (d *delayLine) nextDue() int64 {
	if d.next > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(max(d.next, d.now+1))
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
	ports []*port
	l1s   []*cache.Cache
	l2s   []*cache.Cache
	lay   layout.Layout
	ticks uint64
}

// port is one core's global port: its L1, behind it the delay line, its L2
// and the off-chip fabric (the node has no stack backend, so the fabric is
// the L2's backing), plus the retry memo that parks the core (park).
type port struct {
	l1, l2 *cache.Cache
	delay  *delayLine
	fabric *mem.System
	// bounced is the mask of contexts whose load bounced since the core last
	// changed its hierarchy's state (any access that did not bounce may
	// have). level and addr record where each bounced — 1 at the L1, 2 at
	// the L2, 3 at the controller — and the address.
	bounced uint64
	level   []uint8
	addr    []uint32
	// retries receives the per-context retry counts of a parked run.
	retries []uint64
}

func (p *port) Read(ctx int, addr uint32, ready func()) corelet.Status {
	switch p.l1.Access(addr, ready) {
	case cache.Hit:
		p.bounced = 0
		return corelet.Done
	case cache.Miss:
		p.bounced = 0
		return corelet.Pending
	}
	level := uint8(1)
	if p.l1.Refused() {
		level = 2
		if p.l2.Refused() {
			level = 3
		}
	}
	p.bounced |= 1 << uint(ctx)
	p.level[ctx], p.addr[ctx] = level, addr
	return corelet.Retry
}

// replay accounts for n re-issues of context k's bounced load without
// walking the hierarchy: each would bounce where the last one did, moving
// the L1's counters, the L2's below it and the controller's rejects below
// that.
func (p *port) replay(k int, n uint64) {
	p.l1.TallyRetries(n)
	if p.level[k] > 1 {
		p.l2.TallyRetries(n)
	}
	if p.level[k] > 2 {
		p.fabric.TallyRejects(p.addr[k], n)
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
		d := newDelayLine()
		l1, err := cache.New(cache.Config{
			SizeBytes: c.L1Bytes, LineBytes: c.LineBytes, Assoc: 4, PrefetchDepth: 2,
		}, delayedPort{inner: l2, d: d, delay: c.L2Latency}, 8)
		if err != nil {
			return nil, err
		}
		p := &port{l1: l1, l2: l2, delay: d, fabric: node.Mem,
			level: make([]uint8, c.SMT), addr: make([]uint32, c.SMT), retries: make([]uint64, c.SMT)}
		ports[i] = p
		s.ports = append(s.ports, p)
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

// coresTicker registers the core clock with the node (the System's exported
// method set stays the model API).
type coresTicker struct{ s *System }

func (t coresTicker) Tick(now sim.Time) { t.s.tick(now) }

func (t coresTicker) Halted() bool { return t.s.Halted() }

// tick gives each core IssueWidth issue slots per cycle by advancing it to
// the cycle's last slot (corelet.Cluster.Advance). A core that halts
// mid-cycle still receives its remaining slots (as with the full scan, which
// only checked Halted at the top of the cycle) and drops out the next cycle.
// A core that steps in lockstep and ends the step with a bounced load or a
// waiting context is parked (park).
func (s *System) tick(now sim.Time) {
	s.ticks++
	for _, p := range s.ports {
		p.delay.tick()
	}
	to := int64(s.ticks) * int64(s.C.IssueWidth)
	live := s.live
	n := 0
	for i, co := range live {
		if c := int(co); s.cluster.Cycle(c) < to {
			p := s.ports[c]
			p.bounced = 0
			s.cluster.Advance(c, to)
			if p.bounced != 0 || s.cluster.Waiting(c) {
				s.park(c, p, now)
			}
		}
		if !s.cluster.CoreHalted(int(co)) {
			if n != i {
				live[n] = co // only move on an actual halt
			}
			n++
		}
	}
	s.live = live[:n]
}

// park runs core co ahead to its horizon after its lockstep step in the
// system cycle at engine time now. The horizon is the earliest system cycle
// in which anything could wake one of its contexts or change the answer one
// of its bounced loads got:
//
//   - its delay line's next due cycle: the line is the only source of its
//     L1 fills and of its wakes;
//   - the first cycle at or after the memory fabric's next work cycle
//     (mem.System.NextWorkCycle): the fabric is the only source of its L2
//     fills and of room in the controller queue. A fill the fabric delivers
//     reaches the L1 only through the delay line, so when no load bounced
//     the fabric's bound is L2Latency-1 cycles later.
//
// Before the horizon the core runs in bursts, waiting contexts included, and
// each re-issue of a bounced load is replayed from the memo instead of
// walking the hierarchy (corelet RunParked, port.replay). DESIGN.md
// ("Parking the multicore's cores") gives the argument.
func (s *System) park(co int, p *port, now sim.Time) {
	h := p.delay.nextDue()
	if m := s.node.Mem.NextWorkCycle(); m != memctrl.NeverCycle {
		t := s.node.MemDomain.TimeOfTick(uint64(m))
		per := s.node.Compute.Period()
		j := int64(s.ticks) + int64((t-now+per-1)/per)
		if p.bounced == 0 {
			j += int64(max(s.C.L2Latency-1, 0))
		}
		h = min(h, j)
	}
	if h == math.MaxInt64 {
		return // nothing in flight to bound the horizon: stay in lockstep
	}
	s.cluster.RunParked(co, (h-1)*int64(s.C.IssueWidth), p.bounced, p.retries)
	for k, n := range p.retries {
		if n != 0 {
			p.replay(k, n)
			p.retries[k] = 0
		}
	}
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
