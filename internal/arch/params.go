// Package arch holds the Table III hardware configuration shared by every
// PNM architecture model (Millipede, SSMC, GPGPU, VWS) plus the shared
// node-level plumbing: the two clock domains, the die-stacked DRAM channel,
// and the FR-FCFS memory controller. Keeping the configuration in one place
// enforces the paper's methodology: all architectures get the same number of
// cores, the same on-processor-die memory budget (160 KB per processor),
// the same pipeline latencies, and identical die-stacking.
package arch

import (
	"fmt"

	"repro/internal/corelet"
	"repro/internal/dram"
	"repro/internal/stack"
)

// Params is the Table III configuration.
type Params struct {
	// Processor geometry (identical across PNM architectures).
	Corelets int // corelets / lanes / cores per processor or SM: 32
	Contexts int // hardware multithreading contexts / warps: 4

	// Clocks.
	ComputeHz float64 // 700 MHz nominal
	ChannelHz float64 // 1.2 GHz

	// Per-corelet resources (Millipede).
	LocalBytes      int // 4 KB local memory
	PrefetchEntries int // 16 row entries
	FlowControl     bool
	RateMatch       bool

	// SSMC.
	SSMCL1Bytes int // 5 KB per core (matches Millipede's 4 KB + 1 KB slice)
	// SSMCLineBytes is the SSMC L1D line size. Table III lists 128 B, but
	// under the interleaved layout a corelet's per-row slab is 64 B, so a
	// 128 B line would double-fetch the neighbouring core's slab from the
	// private caches; the model uses layout-matched 64 B lines (see
	// DESIGN.md substitutions).
	SSMCLineBytes  int
	CacheLineBytes int // 128 B (GPGPU L1D, multicore hierarchy)
	CacheAssoc     int
	PrefetchDepth  int // sequential cache-block prefetch depth

	// GPGPU SM.
	GPGPUL1Bytes   int // 32 KB
	SharedMemBytes int // 128 KB
	VWSWarpWidth   int // 4 (Variable Warp Sizing picks 4-wide for BMLAs)

	// Memory system.
	DRAM          dram.Params
	Channels      int // simulated die-stack channels (row-interleaved): 1
	MemQueueDepth int // FR-FCFS depth per channel: 16

	// Pipeline latencies (identical simple in-order pipelines everywhere).
	Latencies corelet.Latencies

	// NoSkip disables the engine's quiescence time skipping, forcing
	// edge-by-edge dispatch. It is not a model parameter: results are
	// bit-identical either way, and it exists for the gates that prove it
	// (milliexp -skip=off, the Skip* tests). Only the models that implement
	// sim.NextWorker skip at all.
	NoSkip bool

	// Rate matching (Section IV-F).
	DFSStepPct         float64 // 0.05
	DFSIntervalCycles  int     // compute cycles between controller updates
	DFSMinHz, DFSMaxHz float64

	// Die-stacked capacity discipline (internal/stack): how the stack
	// relates to a larger, slower planar backing store when the dataset
	// outgrows it. The zero value is the paper's machine — the stack IS the
	// memory and the dataset is entirely stack-resident (strict
	// pass-through, bit-identical to a bare fabric).
	StackMode      string // "", "memory", "hwcache", "memcache"
	StackBytes     int    // stack capacity in bytes (row multiple); 0 = unbounded
	BackingBytes   int    // planar backing capacity; 0 = sized to the dataset
	BackingLatency int    // planar access latency in channel cycles; 0 = default
}

// Default returns the paper's Table III configuration.
func Default() Params {
	return Params{
		Corelets:          32,
		Contexts:          4,
		ComputeHz:         700e6,
		ChannelHz:         1.2e9,
		LocalBytes:        4096,
		PrefetchEntries:   16,
		FlowControl:       true,
		RateMatch:         false,
		SSMCL1Bytes:       5120,
		SSMCLineBytes:     64,
		CacheLineBytes:    128,
		CacheAssoc:        4,
		PrefetchDepth:     2,
		GPGPUL1Bytes:      32768,
		SharedMemBytes:    131072,
		VWSWarpWidth:      4,
		DRAM:              dram.DefaultParams(),
		Channels:          1,
		MemQueueDepth:     16,
		Latencies:         corelet.DefaultLatencies(),
		DFSStepPct:        0.05,
		DFSIntervalCycles: 256,
		DFSMinHz:          175e6,
		DFSMaxHz:          700e6, // DFS cannot exceed nominal at fixed voltage
	}
}

// Validate checks internal consistency.
func (p Params) Validate() error {
	switch {
	case p.Corelets <= 0 || p.Contexts <= 0:
		return fmt.Errorf("arch: bad geometry %dx%d", p.Corelets, p.Contexts)
	case p.ComputeHz <= 0 || p.ChannelHz <= 0:
		return fmt.Errorf("arch: bad clocks")
	case p.LocalBytes <= 0 || p.SSMCL1Bytes <= 0 || p.GPGPUL1Bytes <= 0:
		return fmt.Errorf("arch: bad memory sizes")
	case p.PrefetchEntries < 2:
		return fmt.Errorf("arch: need >= 2 prefetch entries")
	case p.Channels <= 0:
		return fmt.Errorf("arch: bad channel count %d", p.Channels)
	case p.MemQueueDepth <= 0:
		return fmt.Errorf("arch: bad memory queue depth")
	case p.SSMCLineBytes <= 0 || p.CacheLineBytes <= 0:
		return fmt.Errorf("arch: bad cache line sizes")
	case p.DRAM.RowBytes/4%p.Corelets != 0:
		return fmt.Errorf("arch: row words %d not divisible by %d corelets", p.DRAM.RowBytes/4, p.Corelets)
	}
	if _, err := stack.ParseMode(p.StackMode); err != nil {
		return err
	}
	switch {
	case p.StackBytes < 0 || p.BackingBytes < 0 || p.BackingLatency < 0:
		return fmt.Errorf("arch: negative stack/backing sizing (stack %d B, backing %d B, latency %d)",
			p.StackBytes, p.BackingBytes, p.BackingLatency)
	case p.StackBytes > 0 && p.StackBytes%p.DRAM.RowBytes != 0:
		return fmt.Errorf("arch: stack bytes %d not a multiple of the %d B DRAM row",
			p.StackBytes, p.DRAM.RowBytes)
	case (p.StackMode == string(stack.ModeHWCache) || p.StackMode == string(stack.ModeMemCache)) && p.StackBytes == 0:
		return fmt.Errorf("arch: stack mode %q needs StackBytes > 0 (cache capacity)", p.StackMode)
	}
	return p.DRAM.Validate()
}

// Threads returns hardware threads per processor.
func (p Params) Threads() int { return p.Corelets * p.Contexts }

// WithSize returns a copy scaled to n corelets per processor with
// proportionally scaled memory bandwidth, as in the paper's system-size
// sensitivity study (Figure 6: 32 -> 64 cores, 2x bandwidth). Bandwidth
// scales the way a die-stacked part's does — by engaging more channels —
// so a 64-lane system gets 2 row-interleaved channels, each with Table III
// timing. corelets must be a multiple of 32.
func (p Params) WithSize(corelets int) Params {
	q := p
	q.Corelets = corelets
	scale := float64(corelets) / 32.0
	q.Channels = p.Channels * corelets / 32
	// Per-lane on-die memory budgets are held constant, so SM-wide
	// structures scale with the lane count.
	q.SharedMemBytes = int(float64(p.SharedMemBytes) * scale)
	q.GPGPUL1Bytes = int(float64(p.GPGPUL1Bytes) * scale)
	return q
}

// WithSizeWidthScaled is the pre-fabric scaling model, kept as a printed
// cross-check in Figure 6: instead of adding channels it doubles the single
// channel's clock, an idealization with no extra bank-level parallelism and
// no interleave effects.
func (p Params) WithSizeWidthScaled(corelets int) Params {
	q := p
	q.Corelets = corelets
	scale := float64(corelets) / 32.0
	q.ChannelHz = p.ChannelHz * scale
	q.SharedMemBytes = int(float64(p.SharedMemBytes) * scale)
	q.GPGPUL1Bytes = int(float64(p.GPGPUL1Bytes) * scale)
	return q
}
