package arch

import (
	"fmt"
	"runtime"

	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stack"
)

// ComputeUnit is a processor model driven at the compute clock.
type ComputeUnit interface {
	Tick(now sim.Time)
	Halted() bool
}

// DRAMStats is the fabric's row-buffer and bandwidth counter block,
// aggregated across channels.
type DRAMStats struct {
	RowHits, RowMisses uint64
	BytesRead          uint64
	Requests           uint64
}

// RowMissRate returns misses / (hits + misses).
func (d DRAMStats) RowMissRate() float64 {
	t := d.RowHits + d.RowMisses
	if t == 0 {
		return 0
	}
	return float64(d.RowMisses) / float64(t)
}

// MemStats is the memory-controller counter block, aggregated across
// channels (MaxOccupancy is the max over channels).
type MemStats struct {
	StallCycles  uint64
	MaxOccupancy int
	Rejected     uint64
}

// RunStats is the result every processor model shares: each model's Result
// embeds it. Node.Run fills the time, the memory-side counters, the engine's
// allocation and skip counters and the metrics snapshot; the model fills
// ComputeCycles, Insts, CondBranches, FinalHz and Energy.
type RunStats struct {
	Time          sim.Time
	ComputeCycles uint64
	Insts         uint64
	CondBranches  uint64
	FinalHz       float64
	DRAM          DRAMStats
	Mem           MemStats
	// Stack is the die-stacked capacity backend's counter block; zero (Mode
	// "") when the node runs the paper's pass-through machine.
	Stack  stack.Stats
	Energy energy.Breakdown
	// Metrics is the registry snapshot taken at run end: the fabric, the
	// stack backend and every probe the model registered.
	Metrics metrics.Snapshot
	// Allocs and AllocBytes are the heap allocations (count and bytes, from
	// runtime.MemStats, all goroutines) made inside the cycle loop. The
	// models are designed to allocate nothing in steady state, and
	// TestCycleLoopAllocFree in internal/harness holds them to zero.
	Allocs     uint64
	AllocBytes uint64
	// SkippedEdges and SkipWindows report how much of the run the quiescence
	// fast-forward elided (informational only: results are bit-identical
	// with skipping on or off).
	SkippedEdges uint64
	SkipWindows  uint64
}

// Node is one PNM node: the two clock domains and the die-stacked memory
// system (N row-interleaved channels, each an FR-FCFS controller over its
// own bank set). Every architecture model builds on it and reaches memory
// only through Mem's Port interface; DRAM is the functional word store
// behind the fabric.
type Node struct {
	Params Params
	Engine *sim.Engine
	Mem    *mem.System
	DRAM   *dram.DRAM // functional backing store (Mem.Store())
	// Port is the memory system as processor-side clients must see it. In
	// the paper's machine (the default) it is Mem itself; when Params selects
	// a die-stacked capacity discipline it is the internal/stack backend
	// wrapping Mem, and Stack is non-nil.
	Port      mem.Port
	Stack     stack.Backend
	Compute   *sim.Domain
	MemDomain *sim.Domain
	// Metrics holds lazy getter closures over the component stats; it is
	// evaluated only when Run ends, never on the cycle path. NewNode
	// registers the fabric and the stack backend; each model adds its own.
	Metrics *metrics.Registry
	unit    ComputeUnit
}

// NewNode builds the memory side; AttachCompute must be called before Run.
func NewNode(p Params, capacityBytes int) (*Node, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m, err := mem.New(p.DRAM, p.Channels, p.MemQueueDepth, capacityBytes)
	if err != nil {
		return nil, err
	}
	n := &Node{Params: p, Engine: sim.NewEngine(), Mem: m, DRAM: m.Store(), Port: m,
		Metrics: metrics.NewRegistry()}
	n.Engine.SetSkip(!p.NoSkip)
	m.RegisterMetrics(n.Metrics)
	// A capacity discipline wraps the fabric only when it changes behavior:
	// hwcache/memcache always do; memory mode only once the dataset spills
	// past the stack. The pass-through path below is byte-for-byte today's
	// machine — same objects, same ticker — so the paper's results stay
	// bit-identical by construction.
	mode, err := stack.ParseMode(p.StackMode)
	if err != nil {
		return nil, err
	}
	if mode != stack.ModeMemory || (p.StackBytes > 0 && p.StackBytes < capacityBytes) {
		if p.BackingBytes > 0 && p.BackingBytes < capacityBytes {
			return nil, fmt.Errorf("arch: dataset needs %d B but planar backing is %d B", capacityBytes, p.BackingBytes)
		}
		cfg := stack.Config{
			StackBytes: p.StackBytes,
			LineBytes:  p.DRAM.RowBytes,
			PageBytes:  p.DRAM.RowBytes,
			Backing: stack.BackingParams{
				LatencyCycles: p.BackingLatency,
				CapacityBytes: p.BackingBytes,
			},
		}
		n.Stack, err = stack.New(mode, cfg, m)
		if err != nil {
			return nil, err
		}
		n.Port = n.Stack
		stack.RegisterMetrics(n.Metrics, n.Stack)
	}
	// The memory clock registers through a quiescence-aware ticker so the
	// engine sees the fabric's probes (a bare TickFunc would opt the domain
	// out of time skipping). The stack backend, when present, ticks the
	// fabric from inside its own Tick.
	if n.Stack != nil {
		st := &stack.Ticker{B: n.Stack}
		n.MemDomain, err = n.Engine.AddDomain("mem", sim.PeriodFromHz(p.ChannelHz), st)
		if err != nil {
			return nil, err
		}
		st.Domain = n.MemDomain
		return n, nil
	}
	mt := &mem.Ticker{Sys: m}
	n.MemDomain, err = n.Engine.AddDomain("mem", sim.PeriodFromHz(p.ChannelHz), mt)
	if err != nil {
		return nil, err
	}
	mt.Domain = n.MemDomain
	return n, nil
}

// InjectMemoryJitter enables deterministic DRAM completion jitter of up to
// max channel cycles on every channel (fault injection for robustness
// tests).
func (n *Node) InjectMemoryJitter(max int64, seed uint64) { n.Mem.SetJitter(max, seed) }

// AttachCompute registers the processor on the compute clock.
func (n *Node) AttachCompute(unit ComputeUnit) error {
	if n.unit != nil {
		return fmt.Errorf("arch: compute unit already attached")
	}
	var err error
	n.Compute, err = n.Engine.AddDomain("compute", sim.PeriodFromHz(n.Params.ComputeHz), unit)
	if err != nil {
		return err
	}
	n.unit = unit
	return nil
}

// Run advances the simulation until the compute unit halts and returns the
// node's share of the result. The limit guards against kernel deadlocks in
// development; pass 0 for the default (10 simulated seconds).
func (n *Node) Run(limit sim.Time) (RunStats, error) {
	if n.unit == nil {
		return RunStats{}, fmt.Errorf("arch: no compute unit attached")
	}
	if limit == 0 {
		limit = 10 * sim.Second
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0, b0 := ms.Mallocs, ms.TotalAlloc
	t, err := n.Engine.Run(limit, n.unit.Halted)
	if err != nil {
		return RunStats{}, err
	}
	runtime.ReadMemStats(&ms)
	ds, cs := n.Mem.DRAMStats(), n.Mem.CtlStats()
	r := RunStats{
		Time:         t,
		DRAM:         DRAMStats{RowHits: ds.RowHits, RowMisses: ds.RowMisses, BytesRead: ds.BytesRead, Requests: ds.Requests},
		Mem:          MemStats{StallCycles: cs.StallCycles, MaxOccupancy: cs.MaxOccupancy, Rejected: cs.Rejected},
		Allocs:       ms.Mallocs - m0,
		AllocBytes:   ms.TotalAlloc - b0,
		SkippedEdges: n.Engine.SkippedEdges(),
		SkipWindows:  n.Engine.SkipWindows(),
	}
	if n.Stack != nil {
		r.Stack = n.Stack.Stats()
	}
	r.Metrics = n.Metrics.Snapshot()
	return r, nil
}
