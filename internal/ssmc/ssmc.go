// Package ssmc models the paper's plain "sea of simple MIMD cores"
// baseline: the same corelets as Millipede, but with each core's 5 KB L1
// D-cache and sequential cache-block prefetch in place of the shared
// row-oriented prefetch buffer (Section V: "SSMC representing previous
// multicores without row-orientedness").
//
// Because each core fetches cache blocks on its own schedule, cores that
// stray from each other interleave requests to different DRAM rows in the
// 16-deep FR-FCFS window, degrading row locality — the row-miss-rate column
// of Table IV and the bandwidth loss behind Figure 3's SSMC bars.
//
// Live state stays cache-resident (the paper stipulates BMLA state
// "completely fits"), so the L1 here filters only the streaming input; the
// corelet's local accesses are charged at L1 energy in the breakdown.
package ssmc

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/corelet"
	"repro/internal/energy"
	"repro/internal/layout"
	"repro/internal/sim"
)

// Processor is one SSMC processor plus its memory side.
type Processor struct {
	P    arch.Params
	EP   energy.Params
	node *arch.Node
	lay  layout.Layout
	// cluster holds every core's hot state in one structure-of-arrays image;
	// its Tick sweeps live cores in registration order, preserving the
	// memory-access order of the per-core object model.
	cluster *corelet.Cluster
	caches  []*cache.Cache
	ticks   uint64
}

// Result is the shared node result plus the SSMC counters: cache stats in
// place of Millipede's prefetch stats.
type Result struct {
	arch.RunStats
	Cores corelet.Stats
	Cache cache.Stats
}

// NewProcessor builds and loads an SSMC processor for one launch.
func NewProcessor(p arch.Params, ep energy.Params, l core.Launch) (*Processor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ep.Validate(); err != nil {
		return nil, err
	}
	if l.Prog == nil {
		return nil, fmt.Errorf("ssmc: nil program")
	}
	streamWords, err := l.StreamLen()
	if err != nil {
		return nil, fmt.Errorf("ssmc: %v", err)
	}
	lay := layout.Layout{
		Base:        0,
		RowBytes:    p.DRAM.RowBytes,
		Corelets:    p.Corelets,
		Contexts:    p.Contexts,
		Interleave:  l.Interleave,
		StreamWords: streamWords,
	}
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	flat, err := l.PackInput(lay)
	if err != nil {
		return nil, err
	}
	node, err := arch.NewNode(p, len(flat)*4)
	if err != nil {
		return nil, err
	}
	node.DRAM.LoadWords(0, flat)

	pr := &Processor{P: p, EP: ep, node: node, lay: lay}
	backing := node.Port
	ccfg := cache.Config{
		SizeBytes:     p.SSMCL1Bytes,
		LineBytes:     p.SSMCLineBytes,
		Assoc:         p.CacheAssoc,
		PrefetchDepth: p.PrefetchDepth,
	}
	if l.Interleave != layout.Split {
		// Under a row-shared interleaving, a core's slab recurs once per
		// DRAM row: its stream prefetcher strides a whole row ahead, and
		// the set index is hashed so the strided stream uses all sets.
		ccfg.PrefetchStrideBlocks = p.DRAM.RowBytes / p.SSMCLineBytes
		ccfg.HashSets = true
	}
	read := func(addr uint32) uint32 { return node.DRAM.ReadWord(addr) }
	code, err := corelet.Decode(l.Prog, p.Latencies)
	if err != nil {
		return nil, err
	}
	pr.caches = make([]*cache.Cache, p.Corelets)
	ports := make([]corelet.GlobalPort, p.Corelets)
	for c := 0; c < p.Corelets; c++ {
		pr.caches[c], err = cache.New(ccfg, backing, 8)
		if err != nil {
			return nil, err
		}
		ports[c] = &port{cache: pr.caches[c]}
	}
	clcfg := corelet.Config{
		Corelets:   p.Corelets,
		Contexts:   p.Contexts,
		LocalBytes: p.LocalBytes,
		Latencies:  p.Latencies,
	}
	pr.cluster, err = corelet.NewCluster(clcfg, code, ports, read)
	if err != nil {
		return nil, err
	}
	for c := 0; c < p.Corelets; c++ {
		for i, w := range l.Args {
			pr.cluster.WriteLocal(c, uint32(i*4), w)
		}
	}

	node.Metrics.Counter("core.cycles", func() uint64 { return pr.ticks })
	corelet.RegisterStats(node.Metrics, "corelet", pr.cluster.Stats)
	cache.RegisterStats(node.Metrics, "cache", pr.cacheStats)

	if err := node.AttachCompute(pr); err != nil {
		return nil, err
	}
	return pr, nil
}

// cacheStats aggregates the private L1 D-cache counters.
func (pr *Processor) cacheStats() cache.Stats {
	var agg cache.Stats
	for _, ch := range pr.caches {
		agg.Add(ch.Stats())
	}
	return agg
}

// port adapts a private L1 D-cache to the corelet's GlobalPort.
type port struct{ cache *cache.Cache }

func (pt *port) Read(ctx int, addr uint32, ready func()) corelet.Status {
	switch pt.cache.Access(addr, ready) {
	case cache.Hit:
		return corelet.Done
	case cache.Miss:
		return corelet.Pending
	default:
		return corelet.Retry
	}
}

// Tick advances every live core one compute cycle.
func (pr *Processor) Tick(now sim.Time) {
	pr.ticks++
	pr.cluster.Tick()
}

// Halted reports whether every core has finished.
func (pr *Processor) Halted() bool { return pr.cluster.Halted() }

// NextWork implements sim.NextWorker: the SSMC tick is the cluster sweep
// alone (the caches are event-driven), so the cluster's issue bound is the
// whole story.
func (pr *Processor) NextWork(sim.Time) sim.Time {
	n := pr.cluster.NextWorkTicks()
	if n == corelet.NeverTicks {
		return sim.Never
	}
	return pr.node.Compute.TimeOfTick(pr.ticks + uint64(n))
}

// SkipTicks implements sim.NextWorker.
func (pr *Processor) SkipTicks(n int64) {
	pr.ticks += uint64(n)
	pr.cluster.SkipTicks(n)
}

// Run executes to completion and returns aggregated results.
func (pr *Processor) Run(limit sim.Time) (Result, error) {
	rs, err := pr.node.Run(limit)
	if err != nil {
		return Result{}, err
	}
	r := Result{RunStats: rs, Cores: pr.cluster.Stats(), Cache: pr.cacheStats()}
	r.ComputeCycles = pr.ticks
	r.Insts, r.CondBranches = r.Cores.Instructions, r.Cores.CondBranches
	r.FinalHz = pr.P.ComputeHz
	r.Energy = pr.energy(r)
	return r, nil
}

// energy: SSMC cores pay the same MIMD instruction costs as Millipede, but
// both the live state and the streaming input go through the 5 KB L1
// D-cache rather than a local SRAM + prefetch-buffer slice.
func (pr *Processor) energy(r Result) energy.Breakdown {
	ep := pr.EP
	var b energy.Breakdown
	b.CorePJ = float64(r.Cores.Instructions)*(ep.InstPJ+ep.IFetchMIMDPJ) +
		float64(r.Cores.LocalAccess)*ep.L1SmallPJ +
		float64(r.Cores.GlobalReads)*ep.L1SmallPJ +
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

// ReadState reads a word of a core's local state after the run.
func (pr *Processor) ReadState(coreID int, addr uint32) uint32 {
	return pr.cluster.ReadLocal(coreID, addr)
}

// Layout returns the layout used for the input region.
func (pr *Processor) Layout() layout.Layout { return pr.lay }
