package arch

import (
	"fmt"
	"runtime"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stack"
)

// ComputeUnit is a processor model driven at the compute clock.
type ComputeUnit interface {
	Tick(now sim.Time)
	Halted() bool
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
	// RunAllocs and RunBytes are the heap allocations (count and bytes, from
	// runtime.MemStats, all goroutines) made inside the last Run's cycle
	// loop. The interpreter is designed to allocate nothing in steady state;
	// benchreport records these per run so a regression is visible in the
	// benchmark trajectory.
	RunAllocs uint64
	RunBytes  uint64
	// RunSkippedEdges and RunSkipWindows report how much of the last Run the
	// quiescence fast-forward elided (informational only: tick totals and
	// results are bit-identical with skipping on or off).
	RunSkippedEdges uint64
	RunSkipWindows  uint64
	unit            ComputeUnit
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
	n := &Node{Params: p, Engine: sim.NewEngine(), Mem: m, DRAM: m.Store(), Port: m}
	n.Engine.SetSkip(!p.NoSkip)
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

// Run advances the simulation until the compute unit halts. The limit
// guards against kernel deadlocks in development; pass 0 for the default
// (10 simulated seconds).
func (n *Node) Run(limit sim.Time) (sim.Time, error) {
	if n.unit == nil {
		return 0, fmt.Errorf("arch: no compute unit attached")
	}
	if limit == 0 {
		limit = 10 * sim.Second
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0, b0 := ms.Mallocs, ms.TotalAlloc
	t, err := n.Engine.Run(limit, n.unit.Halted)
	runtime.ReadMemStats(&ms)
	n.RunAllocs, n.RunBytes = ms.Mallocs-m0, ms.TotalAlloc-b0
	n.RunSkippedEdges, n.RunSkipWindows = n.Engine.SkippedEdges(), n.Engine.SkipWindows()
	return t, err
}
