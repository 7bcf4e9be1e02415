// Package stack models the die stack as one level of a memory hierarchy
// instead of the whole memory. The paper stipulates that BMLA datasets fit
// in the stack; this package asks what happens when they do not, following
// the three disciplines of Bakhshalipour et al. ("Die-Stacked DRAM: Memory,
// Cache, or MemCache?"):
//
//   - Memory:   the stack is the fast part of a flat address space; addresses
//     below StackBytes hit the stacked DRAM fabric, the rest go straight to a
//     larger, slower planar backing store (OS/allocator placement, no tags).
//   - HWCache:  the stack is a hardware-managed, set-associative, writeback
//     DRAM cache in front of the backing store: misses fill a whole line at
//     backing latency/bandwidth, dirty victims are written back, and an
//     MSHR-style table merges requests to in-flight lines.
//   - MemCache: a software-managed cache in the style of memcached — pages are
//     classified hot or cold, hot pages are pinned in-stack, cold pages are
//     served from the backing store at full latency; every access pays a small
//     software lookup but there is no fill-on-miss amplification.
//
// All three conform to mem.Port plus the stall-prober and quiescence hooks
// the rest of the simulator relies on, so they drop in wherever a bare
// *mem.System does. The pass-through configuration (stack at least as large
// as the dataset, Memory mode) is not built from this package at all —
// arch.NewNode keeps the raw *mem.System on that path so the paper's
// machine stays bit-identical.
package stack

import (
	"fmt"

	"repro/internal/mem"
)

// Mode selects the capacity discipline.
type Mode string

const (
	// ModeMemory is the part-of-memory discipline (default).
	ModeMemory Mode = "memory"
	// ModeHWCache is the hardware-managed DRAM-cache discipline.
	ModeHWCache Mode = "hwcache"
	// ModeMemCache is the software-managed hot/cold pinning discipline.
	ModeMemCache Mode = "memcache"
)

// ParseMode maps the user-facing string (arch.Params.StackMode) to a Mode.
// The empty string means ModeMemory, the paper's machine.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", string(ModeMemory):
		return ModeMemory, nil
	case string(ModeHWCache):
		return ModeHWCache, nil
	case string(ModeMemCache):
		return ModeMemCache, nil
	}
	return "", fmt.Errorf("stack: unknown mode %q (want %q, %q, or %q)",
		s, ModeMemory, ModeHWCache, ModeMemCache)
}

// Defaults for the knobs that stay internal to the package. Only mode,
// stack capacity, and backing capacity/latency are exposed as arch.Params;
// the rest are structural properties of the modeled parts.
const (
	// DefaultBackingLatency is the planar access latency in channel cycles
	// (~100 ns at the 1.2 GHz channel clock: a full off-package DDR access).
	DefaultBackingLatency = 120
	// DefaultBackingBytesPerCycle pins the planar pin bandwidth at a quarter
	// of one stacked channel's 16 B/cycle — the "4-8x" bandwidth gap the
	// die-stacking literature assumes.
	DefaultBackingBytesPerCycle = 4
	// DefaultBackingOutstanding bounds in-flight planar reads (MC queue depth).
	DefaultBackingOutstanding = 8
	// DefaultAssoc is the HWCache associativity (Alloy-style DRAM caches are
	// direct-mapped; 8 ways is the tag-in-DRAM upper end).
	DefaultAssoc = 8
	// DefaultMSHRs bounds outstanding HWCache line fills.
	DefaultMSHRs = 8
	// DefaultLookupCycles is the MemCache software key-lookup cost charged to
	// every access before it is routed hot or cold.
	DefaultLookupCycles = 8
	// delayQueueCap bounds MemCache accesses inside the lookup pipeline.
	delayQueueCap = 64
	// pendingCap is the initial capacity of the fabric-retry FIFO.
	pendingCap = 64
)

// BackingParams sizes the shared planar backing-store model.
type BackingParams struct {
	LatencyCycles int // access latency in channel cycles (0 = default)
	BytesPerCycle int // pin bandwidth (0 = default)
	Outstanding   int // max in-flight reads (0 = default)
	CapacityBytes int // informational; 0 = sized to the dataset
}

func (p BackingParams) withDefaults() BackingParams {
	if p.LatencyCycles == 0 {
		p.LatencyCycles = DefaultBackingLatency
	}
	if p.BytesPerCycle == 0 {
		p.BytesPerCycle = DefaultBackingBytesPerCycle
	}
	if p.Outstanding == 0 {
		p.Outstanding = DefaultBackingOutstanding
	}
	return p
}

// Config sizes a backend. StackBytes is required; the granularities default
// to the stacked DRAM row size (callers pass it via LineBytes/PageBytes).
type Config struct {
	StackBytes   int
	LineBytes    int // HWCache line / fill granularity
	Assoc        int // HWCache ways (0 = DefaultAssoc)
	MSHRs        int // HWCache outstanding fills (0 = DefaultMSHRs)
	PageBytes    int // MemCache pinning granularity
	LookupCycles int // MemCache software lookup (0 = DefaultLookupCycles)
	Backing      BackingParams
}

// Stats is the uniform per-backend counter block. StackServed counts
// requests answered by the stacked fabric, BackingServed requests that paid
// planar latency; the remaining counters are mode-specific and stay zero
// where they do not apply.
type Stats struct {
	Mode          string
	Accesses      uint64
	StackServed   uint64
	BackingServed uint64
	Misses        uint64 // HWCache primary misses (== line fills started)
	MSHRJoins     uint64 // HWCache requests merged into an in-flight fill
	Fills         uint64 // HWCache lines installed
	Evictions     uint64 // HWCache valid victims replaced
	Writebacks    uint64 // HWCache dirty victims written to backing
	Rejected      uint64 // requests bounced at the backend's front door
	ResidentBytes uint64 // bytes currently held in-stack
	Backing       BackingStats
}

// HitRate is the fraction of accepted accesses served at stack speed.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.StackServed) / float64(s.Accesses)
}

// Backend is a mem.Port with the stall-prober contract (prefetch's skip
// windows elide retries only while WouldAccept stays false, so it must
// mirror Enqueue exactly), the quiescence hooks, and stats/metrics.
type Backend interface {
	mem.Port
	WouldAccept(addr uint32) bool
	TallyRejects(addr uint32, n uint64)
	NextWorkCycle() int64
	SkipCycles(n int64)
	Stats() Stats
	Mode() Mode
}

// New builds the backend for mode over the stacked fabric inner.
func New(mode Mode, cfg Config, inner *mem.System) (Backend, error) {
	switch mode {
	case ModeMemory:
		return NewMemory(cfg, inner)
	case ModeHWCache:
		return NewHWCache(cfg, inner)
	case ModeMemCache:
		return NewMemCache(cfg, inner)
	}
	return nil, fmt.Errorf("stack: unknown mode %q", mode)
}

// base carries the parts every backend shares: the stacked fabric, the
// backing store, and a FIFO of requests destined for the fabric that bounced
// off a full channel queue (retried in order each tick so fabric arrival
// order stays deterministic).
type base struct {
	inner *mem.System
	bk    *backing
	st    Stats

	pending  []mem.Request
	pendHead int
}

// newBase builds the shared parts over the stacked fabric inner, with the
// fabric-retry FIFO pre-sized.
func newBase(inner *mem.System, p BackingParams) base {
	return base{inner: inner, bk: newBacking(p), pending: make([]mem.Request, 0, pendingCap)}
}

// pushInner queues r for the fabric. The FIFO reuses its backing array:
// a full one with drained slots at the front is compacted instead of
// grown, so the queue allocates only when its occupancy exceeds every
// earlier peak.
func (b *base) pushInner(r mem.Request) {
	b.pending = pushFIFO(b.pending, &b.pendHead, r)
}

// pushFIFO appends v to the FIFO q[*head:], first sliding the live entries
// to the front when q is full but its head has advanced.
func pushFIFO[T any](q []T, head *int, v T) []T {
	if len(q) == cap(q) && *head > 0 {
		n := copy(q, q[*head:])
		clear(q[n:])
		q, *head = q[:n], 0
	}
	return append(q, v)
}

func (b *base) pendingLen() int { return len(b.pending) - b.pendHead }

// drainPending forwards queued fabric requests in order, stopping at the
// first rejection to preserve arrival order.
func (b *base) drainPending() {
	for b.pendHead < len(b.pending) {
		if !b.inner.Enqueue(b.pending[b.pendHead]) {
			return
		}
		b.pending[b.pendHead] = mem.Request{}
		b.pendHead++
	}
	b.pending = b.pending[:0]
	b.pendHead = 0
}
