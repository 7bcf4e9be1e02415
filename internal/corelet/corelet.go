// Package corelet models the simple MIMD cores of the paper's SSMC skeleton
// (Section IV-A): single-issue, in-order pipelines with 4-way hardware
// multithreading to cover short hazards, a small register file per context,
// a 4 KB corelet-local memory holding kernel arguments and the partially
// reduced live state, and an L1 I-cache fed by a one-time code broadcast.
//
// The corelet is memory-system agnostic: LDG timing goes through a
// GlobalPort, which the Millipede processor backs with the shared row
// prefetch buffer and the SSMC processor backs with a per-core L1 D-cache.
// Functional data always comes from the Reader (the DRAM word store), so
// results are identical across architectures by construction.
//
// A processor's corelets live together in a Cluster: every hot word of
// per-corelet state (PCs, register files, ready bitmaps, issue cooldowns,
// local memories) is an entry in a structure-of-arrays image indexed by
// (corelet, context), swept in corelet order once per cycle. The sweep steps
// a corelet in lockstep only through instructions that touch shared state or
// could fault; between them, a corelet with no waiting context runs ahead in
// one burst (see Advance), which changes no simulated event. The interpreter
// runs over a predecoded Code image shared read-only by the whole cluster
// (the paper's one-time code broadcast): each instruction carries its class
// and issue latency resolved at decode time and the datapath is evaluated in
// a single dispatch switch, so the steady-state cycle loop performs no table
// lookups, no per-corelet virtual calls, and no allocations.
package corelet

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/isa"
)

// Status of a timing access to the global memory system.
type Status int

const (
	// Done: data available this cycle (hit).
	Done Status = iota
	// Pending: the context must sleep; the ready callback wakes it.
	Pending
	// Retry: structural stall (queue full); re-issue next cycle.
	Retry
)

// GlobalPort is the timing interface to die-stacked memory.
type GlobalPort interface {
	// Read models the timing of a global load by context ctx at addr.
	// ready is invoked when a Pending access completes.
	Read(ctx int, addr uint32, ready func()) Status
}

// Reader supplies functional data for global loads.
type Reader func(addr uint32) uint32

// Tracer observes every issued instruction when installed (nil = off).
type Tracer func(cycle int64, ctx int, pc int, in isa.Inst)

// BarrierFunc coordinates a processor-wide software barrier: the corelet
// calls it when a context executes BAR, passing the callback that releases
// the context once every participant has arrived. A nil coordinator makes
// BAR a no-op.
type BarrierFunc func(release func())

// Latencies in corelet cycles per instruction class; these are the simple
// energy-efficient pipeline depths the paper assumes, covered by 4-way
// multithreading.
type Latencies struct {
	ALU, Mul, Div, FPU, FDiv, Local, GlobalHit, TakenBranch int
}

// DefaultLatencies returns the model defaults.
func DefaultLatencies() Latencies {
	return Latencies{ALU: 1, Mul: 3, Div: 12, FPU: 4, FDiv: 14, Local: 2, GlobalHit: 2, TakenBranch: 2}
}

// Stats counts per-corelet execution events (the raw material for Table IV
// and the energy model).
type Stats struct {
	Instructions uint64
	CondBranches uint64
	TakenCond    uint64
	LocalAccess  uint64
	GlobalReads  uint64
	IdleCycles   uint64 // ticks with no ready context (memory stall / drained)
	BusyCycles   uint64 // ticks that issued an instruction
	RetryCycles  uint64 // structural stalls on the global port
	ClassCounts  [10]uint64
}

// dinst is one predecoded instruction: the hot fields of isa.Inst plus the
// class, issue latency and run-ahead mark resolved at decode time, packed to
// 16 bytes so the fetch is a single shift-indexed load with no dependent
// table lookups.
type dinst struct {
	op           isa.Op
	class        isa.Class
	rd, rs1, rs2 uint8
	mark         uint8
	lat          uint16
	imm          int32
	_            uint32 // pad to 16 bytes: power-of-two stride for ops[pc]
}

// Run-ahead marks (dinst.mark). A burst never issues a markLockstep
// instruction: it touches shared state (LDG, LDS, BAR), halts a context
// (HALT), or always faults (STG, an unhandled op, CSRR of an unknown CSR), so
// the lockstep sweep issues it at its own (cycle, corelet) slot. A markLocal
// instruction (LW, SW) faults only on a bad address, which the burst checks
// before issuing it.
const (
	markLockstep uint8 = 1 << iota
	markLocal
)

// Code is a program predecoded against one latency configuration. A
// processor decodes its kernel once and shares the image read-only across
// all its corelets (the paper's one-time code broadcast), keeping the
// interpreter's instruction fetches within one small array.
type Code struct {
	prog *isa.Program
	ops  []dinst
	// takenLat and hitLat are the two latencies the decoded lat field cannot
	// carry (they depend on the dynamic outcome, not the opcode).
	takenLat int64
	hitLat   int64
}

// Decode predecodes prog against lat. The result is immutable and safe to
// share across corelets and goroutines.
func Decode(prog *isa.Program, lat Latencies) (*Code, error) {
	if prog == nil || len(prog.Insts) == 0 {
		return nil, fmt.Errorf("corelet: empty program")
	}
	code := &Code{
		prog:     prog,
		ops:      make([]dinst, len(prog.Insts)),
		takenLat: int64(lat.TakenBranch),
		hitLat:   int64(lat.GlobalHit),
	}
	for i, in := range prog.Insts {
		class := isa.Classify(in.Op)
		l := latencyFor(lat, class)
		if in.Op == isa.LDG || in.Op == isa.LDS {
			l = lat.GlobalHit
		}
		if l < 0 || l > math.MaxUint16 {
			return nil, fmt.Errorf("corelet: latency %d for %v out of range", l, in.Op)
		}
		var mark uint8
		switch {
		case class == isa.ClassGlobalMem, class == isa.ClassHalt, in.Op == isa.BAR,
			!in.Op.Valid(), in.Op == isa.CSRR && !knownCSR(in.Imm):
			mark = markLockstep
		case class == isa.ClassLocalMem:
			mark = markLocal
		}
		code.ops[i] = dinst{
			op:    in.Op,
			class: class,
			rd:    in.Rd & (isa.NumRegs - 1),
			rs1:   in.Rs1 & (isa.NumRegs - 1),
			rs2:   in.Rs2 & (isa.NumRegs - 1),
			mark:  mark,
			lat:   uint16(l),
			imm:   in.Imm,
		}
	}
	return code, nil
}

// Program returns the source program the code was decoded from.
func (cd *Code) Program() *isa.Program { return cd.prog }

func latencyFor(l Latencies, class isa.Class) int {
	switch class {
	case isa.ClassMul:
		return l.Mul
	case isa.ClassDiv:
		return l.Div
	case isa.ClassFPU:
		return l.FPU
	case isa.ClassFDiv:
		return l.FDiv
	case isa.ClassLocalMem:
		return l.Local
	default:
		return l.ALU
	}
}

// IDs carries the CSR-visible identity of a corelet within its processor.
type IDs struct {
	Corelet, NumCorelets, NumContexts int
}

// counters are the cluster's raw execution counters; Stats derives the
// public aggregates from them.
type counters struct {
	condBranches uint64
	takenCond    uint64
	idleCycles   uint64
	retryCycles  uint64
	// classCounts is sized to 16 so the (4-bit) class index needs no bounds
	// check on the hot path.
	classCounts [16]uint64
}

// Config sizes a Cluster.
type Config struct {
	// Corelets and Contexts give the cluster geometry (Table III: 32x4).
	Corelets, Contexts int
	// LocalBytes is each corelet's local SRAM size.
	LocalBytes int
	// Latencies configures issue latencies (must match the Code's decode).
	Latencies Latencies
}

// ctxHot is one context's scheduler-visible state: the program counter and
// the cycle at which the context may issue again, packed so a corelet's
// contexts (4 by default) share one cache line and the issue-scan read and
// the retire-time writes touch the same line.
type ctxHot struct {
	pc      int32
	_       uint32
	readyAt int64
}

// coreHot is one corelet's scheduler header: the runnable-context bitmap,
// the corelet-local cycle count (ahead of the sweep while the corelet runs
// ahead; the multicore model also ticks cores unevenly), the round-robin
// pointer, and the halted-context count, packed into half a cache line.
type coreHot struct {
	ready  uint64 // bitmap of runnable contexts (waiting/halted bits clear)
	cycle  int64
	rr     int32
	haltCt int32
	// earliest is a lower bound on the next cycle any runnable context can
	// issue, recorded when a scan comes up empty; until then the per-cycle
	// scan is skipped outright. Wakes reset it to zero (a woken context is
	// issueable immediately).
	earliest int64
}

// Cluster is a processor's full set of corelets in structure-of-arrays
// form, indexed by ctx = corelet*Contexts + context. One Tick sweeps every
// live corelet in registration order, which keeps shared-port access order
// — and therefore timing — identical to the per-corelet object model it
// replaces.
type Cluster struct {
	// now is the cluster cycle: the number of Ticks and skipped ticks.
	// Every active corelet's cycle is at least now, and above it while the
	// corelet runs ahead.
	now  int64
	code *Code
	ops  []dinst // == code.ops, one indexed load off the cluster
	// Hot state, SoA: per-context and per-corelet headers plus the packed
	// register files.
	ctxs  []ctxHot
	cores []coreHot
	regs  []uint32 // register files, NumRegs words per context
	wakes []func() // prebuilt wake callbacks handed to the memory system
	// active is the bitmap of corelets with at least one non-halted context;
	// the sweep walks its set bits via TrailingZeros64, so fully finished
	// corelets cost nothing.
	active      []uint64
	haltedCores int

	nctx       int
	ncore      int
	localWords int
	locals     []uint32 // corelet-local SRAMs, localWords each
	ports      []GlobalPort
	read       Reader
	lat        Latencies
	ctxMask    uint64
	// coreletBase and numCore define the CSR-visible processor geometry:
	// a standalone Corelet wrapper is a 1-corelet cluster positioned at
	// coreletBase within a numCore-corelet processor.
	coreletBase int
	numCore     int
	barrier     BarrierFunc
	tracers     []Tracer // nil until SetTracer; indexed by corelet
	st          counters
}

// NewCluster builds the corelets of one processor over a shared predecoded
// code image. ports supplies each corelet's timing port (len must equal
// cfg.Corelets); read supplies functional data for global loads.
func NewCluster(cfg Config, code *Code, ports []GlobalPort, read Reader) (*Cluster, error) {
	switch {
	case code == nil || len(code.ops) == 0:
		return nil, fmt.Errorf("corelet: empty program")
	case cfg.Corelets <= 0:
		return nil, fmt.Errorf("corelet: bad corelet count %d", cfg.Corelets)
	case cfg.Contexts <= 0 || cfg.Contexts > 64:
		return nil, fmt.Errorf("corelet: bad context count %d", cfg.Contexts)
	case cfg.LocalBytes <= 0 || cfg.LocalBytes%4 != 0:
		return nil, fmt.Errorf("corelet: bad local memory size %d", cfg.LocalBytes)
	case len(ports) != cfg.Corelets:
		return nil, fmt.Errorf("corelet: %d ports for %d corelets", len(ports), cfg.Corelets)
	case read == nil:
		return nil, fmt.Errorf("corelet: nil reader")
	}
	for _, p := range ports {
		if p == nil {
			return nil, fmt.Errorf("corelet: nil port")
		}
	}
	nc, nk := cfg.Corelets, cfg.Contexts
	cl := &Cluster{
		code:       code,
		ops:        code.ops,
		ctxs:       make([]ctxHot, nc*nk),
		cores:      make([]coreHot, nc),
		regs:       make([]uint32, nc*nk*isa.NumRegs),
		wakes:      make([]func(), nc*nk),
		active:     make([]uint64, (nc+63)/64),
		nctx:       nk,
		ncore:      nc,
		localWords: cfg.LocalBytes / 4,
		locals:     make([]uint32, nc*cfg.LocalBytes/4),
		ports:      append([]GlobalPort(nil), ports...),
		read:       read,
		lat:        cfg.Latencies,
		ctxMask:    uint64(1)<<uint(nk) - 1,
		numCore:    nc,
	}
	for c := 0; c < nc; c++ {
		cl.cores[c].ready = cl.ctxMask
		cl.active[c/64] |= 1 << uint(c%64)
		for k := 0; k < nk; k++ {
			idx := c*nk + k
			bit := uint64(1) << uint(k)
			cc := c
			cl.wakes[idx] = func() {
				cl.cores[cc].ready |= bit
				cl.cores[cc].earliest = 0
				cl.ctxs[idx].readyAt = 0 // wakes in the memory domain; issue next tick
			}
		}
	}
	return cl, nil
}

// Corelets returns the cluster geometry.
func (cl *Cluster) Corelets() int { return cl.ncore }

// Contexts returns the context count per corelet.
func (cl *Cluster) Contexts() int { return cl.nctx }

// Code returns the shared predecoded program.
func (cl *Cluster) Code() *Code { return cl.code }

// SetBarrier installs the processor-wide barrier coordinator.
func (cl *Cluster) SetBarrier(f BarrierFunc) { cl.barrier = f }

// SetTracer installs an instruction-issue observer on one corelet.
func (cl *Cluster) SetTracer(corelet int, t Tracer) {
	if cl.tracers == nil {
		cl.tracers = make([]Tracer, cl.ncore)
	}
	cl.tracers[corelet] = t
}

// Halted reports whether every context of every corelet has executed HALT.
func (cl *Cluster) Halted() bool { return cl.haltedCores == cl.ncore }

// CoreHalted reports whether every context of corelet c has halted.
func (cl *Cluster) CoreHalted(c int) bool { return int(cl.cores[c].haltCt) == cl.nctx }

// WriteLocal stores a word into a corelet's local memory (host-side, at
// launch).
func (cl *Cluster) WriteLocal(c int, addr uint32, v uint32) {
	cl.locals[c*cl.localWords+cl.localIndex(c, addr)] = v
}

// ReadLocal fetches a word of a corelet's local memory (host-side, for the
// final Reduce that drains the partially-reduced live state, Section IV-D).
func (cl *Cluster) ReadLocal(c int, addr uint32) uint32 {
	return cl.locals[c*cl.localWords+cl.localIndex(c, addr)]
}

// LocalWords returns the local memory size in words.
func (cl *Cluster) LocalWords() int { return cl.localWords }

// localIndex is kept small enough to inline on the LW/SW hot path; the
// cold fault diagnostics live in localFault (panicking via a deferred-format
// value keeps the fast path under the inlining budget).
func (cl *Cluster) localIndex(c int, addr uint32) int {
	i := int(addr >> 2)
	if addr&3 != 0 || i >= cl.localWords {
		panic(localFault{c: c, addr: addr, words: cl.localWords})
	}
	return i
}

// localFault is the panic value for an out-of-contract local access; the
// message is formatted lazily so localIndex stays inlinable.
type localFault struct {
	c     int
	addr  uint32
	words int
}

func (f localFault) String() string {
	if f.addr%4 != 0 {
		return fmt.Sprintf("corelet %d: unaligned local access %#x (pc trace in kernel)", f.c, f.addr)
	}
	return fmt.Sprintf("corelet %d: local access %#x beyond %d-word local memory", f.c, f.addr, f.words)
}

func (cl *Cluster) csr(c, ctx int, n int32) uint32 {
	switch n {
	case isa.CSRCoreletID:
		return uint32(cl.coreletBase + c)
	case isa.CSRContextID:
		return uint32(ctx)
	case isa.CSRNumCorelet:
		return uint32(cl.numCore)
	case isa.CSRNumContext:
		return uint32(cl.nctx)
	case isa.CSRThreadID:
		return uint32((cl.coreletBase+c)*cl.nctx + ctx)
	case isa.CSRNumThreads:
		return uint32(cl.numCore * cl.nctx)
	}
	panic(fmt.Sprintf("corelet: unknown CSR %d", n))
}

// knownCSR reports whether csr can read CSR n.
func knownCSR(n int32) bool {
	switch n {
	case isa.CSRCoreletID, isa.CSRContextID, isa.CSRNumCorelet,
		isa.CSRNumContext, isa.CSRThreadID, isa.CSRNumThreads:
		return true
	}
	return false
}

// Stats aggregates the cluster's execution counters. The aggregates that are
// fully determined by per-class counts are derived here rather than
// maintained with separate increments on the interpret hot path: every
// issued instruction bumps exactly one ClassCounts bucket (retries bump
// none), so Instructions and BusyCycles are the bucket sum, and
// GlobalReads/LocalAccess are the global/local-memory buckets (STG is
// rejected, so the global bucket is pure loads).
func (cl *Cluster) Stats() Stats {
	st := &cl.st
	s := Stats{
		CondBranches: st.condBranches,
		TakenCond:    st.takenCond,
		IdleCycles:   st.idleCycles,
		RetryCycles:  st.retryCycles,
	}
	copy(s.ClassCounts[:], st.classCounts[:])
	for _, n := range s.ClassCounts {
		s.Instructions += n
	}
	s.BusyCycles = s.Instructions
	s.GlobalReads = s.ClassCounts[isa.ClassGlobalMem]
	s.LocalAccess = s.ClassCounts[isa.ClassLocalMem]
	return s
}

// Tick advances the cluster one compute cycle: every active corelet is
// advanced to the new cluster cycle in index order (see Advance). A corelet
// that has run ahead is skipped until the cluster catches up; halted
// corelets are skipped via the active bitmap.
func (cl *Cluster) Tick() {
	cl.now++
	now := cl.now
	for w, word := range cl.active {
		base := w * 64
		for word != 0 {
			c := base + bits.TrailingZeros64(word)
			word &= word - 1
			if cl.cores[c].cycle < now {
				cl.Advance(c, now)
			}
		}
	}
}

// runAheadHorizon caps a burst at this many corelet cycles past the cycle
// Advance brought the corelet to, so a kernel that spins in registers
// forever still returns to the sweep, and the engine reaches its time limit
// at the same simulated instant as under lockstep.
const runAheadHorizon = 4096

// Advance brings corelet c to cycle to and then lets it run ahead. It steps
// the corelet in lockstep, one cycle at a time, until its cycle reaches to.
// Then, while no context waits on a memory wake or a barrier release, it
// keeps issuing with exactly the lockstep scheduler's choices, up to but not
// including the first cycle whose pick must stay in lockstep: a marked
// instruction (see markLockstep), a PC outside the program, or an LW/SW that
// would fault. The burst also stops runAheadHorizon cycles past to.
//
// A burst is bit-identical to lockstep because only three things change a
// corelet's state: its own issue, a memory wake and a barrier release, and
// the last two only target a waiting context. Until its next marked
// instruction a corelet without waiting contexts touches nothing but its own
// registers, local memory and scheduler headers, plus the cluster's summed
// counters; so every port access, barrier arrival and HALT still happens at
// the same cycle, in the same corelet order. A tracer on any corelet forces
// lockstep, because trace events interleave with other components' events
// by tick.
func (cl *Cluster) Advance(c int, to int64) {
	hd := &cl.cores[c]
	if hd.cycle >= to {
		return // still ahead from an earlier burst
	}
	cl.interpret(c, to, false)
	if m := hd.ready; m != cl.ctxMask && (m == 0 || bits.OnesCount64(m)+int(hd.haltCt) != cl.nctx) || cl.tracers != nil {
		return // a context waits (or all halted), or a tracer watches
	}
	cl.interpret(c, to+runAheadHorizon, true)
}

// localOK reports whether LW/SW in, issued by context k of corelet c,
// addresses an aligned word inside local memory (localIndex would not
// fault).
func (cl *Cluster) localOK(c, k int, in *dinst) bool {
	addr := uint32(int32(cl.regs[(c*cl.nctx+k)*isa.NumRegs+int(in.rs1&31)]) + in.imm)
	return addr&3 == 0 && int(addr>>2) < cl.localWords
}

// NeverTicks is the NextWorkTicks sentinel: every runnable context is
// blocked awaiting a memory wake, so only another domain's tick can create
// work.
const NeverTicks = int64(1<<63 - 1)

// NextWorkTicks returns the number of cluster ticks from now until the
// earliest tick at which any active corelet needs the sweep (coreNextWork):
// 1 means the very next tick (busy), NeverTicks means every context is
// parked on a wake.
func (cl *Cluster) NextWorkTicks() int64 {
	w := NeverTicks
	for wi, word := range cl.active {
		base := wi * 64
		for word != 0 {
			c := base + bits.TrailingZeros64(word)
			word &= word - 1
			e := cl.coreNextWork(c, cl.now)
			if e <= 1 {
				return 1
			}
			w = min(w, e)
		}
	}
	return w
}

// SkipTicks replays n dead cluster ticks on every active corelet
// (skipCore).
func (cl *Cluster) SkipTicks(n int64) {
	cl.now += n
	for wi, word := range cl.active {
		base := wi * 64
		for word != 0 {
			c := base + bits.TrailingZeros64(word)
			word &= word - 1
			cl.skipCore(c, cl.now)
		}
	}
}

// coreNextWork returns the distance in corelet cycles from now (the cycle
// the caller last advanced corelet c to) to the first cycle at which
// Advance must step the corelet in lockstep; values <= 1 mean the very next
// cycle. A corelet that has run ahead needs the sweep at its cycle+1. One in
// step with now cannot issue before cores[c].earliest, and is NeverTicks
// away when no context is runnable: wakes, which reset earliest, only run
// from memory-domain work ticks, and those end any skip window.
func (cl *Cluster) coreNextWork(c int, now int64) int64 {
	hd := &cl.cores[c]
	if hd.cycle > now {
		return hd.cycle + 1 - now
	}
	if hd.ready == 0 {
		return NeverTicks
	}
	return hd.earliest - now
}

// skipCore replays corelet c's dead cycles up to cycle to: its cycle
// counter advances and each elided cycle counts as idle, exactly as
// tickCore's dead paths would have tallied. Cycles a burst already
// simulated are not replayed; coreNextWork guarantees to stays short of
// any cycle the corelet could issue in.
func (cl *Cluster) skipCore(c int, to int64) {
	hd := &cl.cores[c]
	if n := to - hd.cycle; n > 0 {
		hd.cycle = to
		cl.st.idleCycles += uint64(n)
	}
}

// tickCore advances a single corelet one cycle in lockstep: it issues at
// most one instruction, from its next ready context in round-robin order.
func (cl *Cluster) tickCore(c int) { cl.interpret(c, cl.cores[c].cycle+1, false) }

// pick returns the context corelet c issues from at cycle cyc when its
// round-robin pointer is rr: the first runnable context with readyAt <= cyc
// in circular order after rr. If there is none it records the earliest
// readyAt among runnable contexts in hd.earliest and returns -1. hd.ready
// must be non-zero.
func (cl *Cluster) pick(c int, hd *coreHot, rr int, cyc int64) int {
	m := hd.ready
	n := cl.nctx
	low := int64(math.MaxInt64)
	if n == 4 {
		// Default geometry: a four-probe circular scan beats the bitmap
		// segment walk, and the fixed-size array view drops bounds checks.
		ctxs := (*[4]ctxHot)(cl.ctxs[c*4:])
		k := (rr + 1) & 3
		for i := 0; i < 4; i++ {
			if m>>uint(k)&1 != 0 {
				if r := ctxs[k].readyAt; r <= cyc {
					return k
				} else if r < low {
					low = r
				}
			}
			k = (k + 1) & 3
		}
		hd.earliest = low
		return -1
	}
	start := rr + 1
	if start >= n {
		start = 0
	}
	// Circular scan from start as two bitmap segments: [start..n-1], then
	// [0..start-1]. Each probe pops the lowest set bit, so only runnable
	// contexts are touched.
	ctxs := cl.ctxs[c*n : c*n+n]
	for seg := m >> uint(start) << uint(start); seg != 0; seg &= seg - 1 {
		k := bits.TrailingZeros64(seg)
		if r := ctxs[k].readyAt; r <= cyc {
			return k
		} else if r < low {
			low = r
		}
	}
	for seg := m & (1<<uint(start) - 1); seg != 0; seg &= seg - 1 {
		k := bits.TrailingZeros64(seg)
		if r := ctxs[k].readyAt; r <= cyc {
			return k
		} else if r < low {
			low = r
		}
	}
	hd.earliest = low
	return -1
}

// advanceStream steps the hardware stream walker (isa.LDS semantics).
func advanceStream(regs *[isa.NumRegs]uint32) {
	regs[isa.StreamAddr] += regs[isa.StreamStride]
	regs[isa.StreamCount]--
	if regs[isa.StreamCount] == 0 {
		regs[isa.StreamAddr] += regs[isa.StreamFix]
		regs[isa.StreamCount] = regs[isa.StreamChunk]
	}
}

// interpret runs corelet c's cycles from hd.cycle+1 up to cycle limit: each
// cycle issues at most one instruction, from the next ready context in
// round-robin order, and a cycle with no ready context is idle. In lockstep
// (burst false) every instruction issues, and a corelet without a runnable
// context idles straight to limit. A burst (see Advance) runs only while no
// context waits and stops, without issuing, before the first cycle whose pick
// must stay in lockstep.
//
// The interpreter is inline in the loop, so a burst pays no call per
// instruction: the datapath, branch conditions, and special cases all live
// in one switch over the predecoded opcode, each case ending the cycle with
// continue; class counting and issue latency come from the decoded fields.
// The cycle and round-robin pointer are committed to the header before the
// instruction runs, because a port access or barrier arrival may call back
// into the cluster (a wake) before it returns.
func (cl *Cluster) interpret(c int, limit int64, burst bool) {
	st := &cl.st
	hd := &cl.cores[c]
	n := cl.nctx
	ctxs := cl.ctxs[c*n : c*n+n]
	ops := cl.ops
	for hd.cycle < limit {
		cyc := hd.cycle + 1
		if hd.ready == 0 || hd.earliest > cyc {
			// No runnable context, or every runnable one still covering
			// issue latency (the scan cannot succeed before earliest;
			// wakes reset it): idle up to earliest, or to limit.
			to := limit
			if hd.ready != 0 {
				to = min(hd.earliest-1, limit)
			}
			st.idleCycles += uint64(to - hd.cycle)
			hd.cycle = to
			continue
		}
		// Streaming steady state first: every context runnable and the
		// round-robin successor ready, one probe; otherwise the full scan.
		k := int(hd.rr) + 1
		if k == n {
			k = 0
		}
		if hd.ready != cl.ctxMask || ctxs[k].readyAt > cyc {
			if k = cl.pick(c, hd, int(hd.rr), cyc); k < 0 {
				st.idleCycles++
				hd.cycle = cyc
				continue
			}
		}
		ct := &ctxs[k]
		pc := ct.pc
		if burst {
			if uint32(pc) >= uint32(len(ops)) {
				return // the lockstep sweep raises the bad-PC fault
			}
			if in := &ops[pc]; in.mark != 0 && (in.mark&markLockstep != 0 || !cl.localOK(c, k, in)) {
				return
			}
		}
		in := &ops[pc]
		hd.cycle = cyc
		hd.rr = int32(k)
		idx := c*n + k
		if cl.tracers != nil {
			if t := cl.tracers[c]; t != nil {
				t(cyc, k, int(pc), cl.code.prog.Insts[pc])
			}
		}
		// Register indices are masked to the register-file size (already
		// guaranteed by Decode), which lets the compiler elide bounds checks.
		regs := (*[isa.NumRegs]uint32)(cl.regs[idx*isa.NumRegs:])
		a := regs[in.rs1&31]
		b := regs[in.rs2&31]
		var v uint32

		switch in.op {
		case isa.NOP:
			v = 0
		case isa.HALT:
			st.classCounts[in.class&15]++
			hd.ready &^= 1 << uint(k)
			hd.haltCt++
			if int(hd.haltCt) == cl.nctx {
				cl.active[c/64] &^= 1 << uint(c%64)
				cl.haltedCores++
			}
			continue
		case isa.ADD:
			v = a + b
		case isa.SUB:
			v = a - b
		case isa.MUL:
			v = uint32(int32(a) * int32(b))
		case isa.DIV:
			ia, ib := int32(a), int32(b)
			switch {
			case ib == 0:
				v = ^uint32(0) // RISC-V semantics: -1 on divide by zero
			case ia == math.MinInt32 && ib == -1:
				v = a // overflow: result = dividend
			default:
				v = uint32(ia / ib)
			}
		case isa.REM:
			ia, ib := int32(a), int32(b)
			switch {
			case ib == 0:
				v = a
			case ia == math.MinInt32 && ib == -1:
				v = 0
			default:
				v = uint32(ia % ib)
			}
		case isa.AND:
			v = a & b
		case isa.OR:
			v = a | b
		case isa.XOR:
			v = a ^ b
		case isa.SLL:
			v = a << (b & 31)
		case isa.SRL:
			v = a >> (b & 31)
		case isa.SRA:
			v = uint32(int32(a) >> (b & 31))
		case isa.SLT:
			if int32(a) < int32(b) {
				v = 1
			}
		case isa.SLTU:
			if a < b {
				v = 1
			}
		case isa.MIN:
			v = b
			if int32(a) < int32(b) {
				v = a
			}
		case isa.MAX:
			v = b
			if int32(a) > int32(b) {
				v = a
			}
		case isa.ADDI:
			v = uint32(int32(a) + in.imm)
		case isa.ANDI:
			v = a & uint32(in.imm)
		case isa.ORI:
			v = a | uint32(in.imm)
		case isa.XORI:
			v = a ^ uint32(in.imm)
		case isa.SLLI:
			v = a << (uint32(in.imm) & 31)
		case isa.SRLI:
			v = a >> (uint32(in.imm) & 31)
		case isa.SRAI:
			v = uint32(int32(a) >> (uint32(in.imm) & 31))
		case isa.SLTI:
			if int32(a) < in.imm {
				v = 1
			}
		case isa.LUI:
			v = uint32(in.imm) << 12
		case isa.FADD:
			v = isa.Bits(isa.F32(a) + isa.F32(b))
		case isa.FSUB:
			v = isa.Bits(isa.F32(a) - isa.F32(b))
		case isa.FMUL:
			v = isa.Bits(isa.F32(a) * isa.F32(b))
		case isa.FDIV:
			v = isa.Bits(isa.F32(a) / isa.F32(b))
		case isa.FSQRT:
			v = isa.Bits(float32(math.Sqrt(float64(isa.F32(a)))))
		case isa.FMIN:
			v = isa.Bits(float32(math.Min(float64(isa.F32(a)), float64(isa.F32(b)))))
		case isa.FMAX:
			v = isa.Bits(float32(math.Max(float64(isa.F32(a)), float64(isa.F32(b)))))
		case isa.FLT:
			if isa.F32(a) < isa.F32(b) {
				v = 1
			}
		case isa.FLE:
			if isa.F32(a) <= isa.F32(b) {
				v = 1
			}
		case isa.FEQ:
			if isa.F32(a) == isa.F32(b) {
				v = 1
			}
		case isa.CVTIF:
			v = isa.Bits(float32(int32(a)))
		case isa.CVTFI:
			v = uint32(int32(isa.F32(a)))
		case isa.LW:
			addr := uint32(int32(a) + in.imm)
			v = cl.locals[c*cl.localWords+cl.localIndex(c, addr)]
		case isa.SW:
			addr := uint32(int32(a) + in.imm)
			cl.locals[c*cl.localWords+cl.localIndex(c, addr)] = b
			st.classCounts[in.class&15]++
			ct.pc = pc + 1
			ct.readyAt = cyc + int64(in.lat)
			continue
		case isa.LDG, isa.LDS:
			// A global load's timing is resolved before the instruction
			// retires: on Retry the context stays put and re-issues the same
			// instruction next cycle; on Pending it sleeps until the memory
			// system's callback.
			addr := uint32(int32(a) + in.imm)
			if in.op == isa.LDS {
				addr = regs[isa.StreamAddr]
			}
			stl := cl.ports[c].Read(k, addr, cl.wakes[idx])
			switch stl {
			case Retry:
				st.retryCycles++
				continue // PC unchanged; retry next cycle
			case Pending:
				hd.ready &^= 1 << uint(k)
			}
			if in.rd != 0 {
				regs[in.rd&31] = cl.read(addr)
			}
			if in.op == isa.LDS {
				advanceStream(regs)
			}
			st.classCounts[in.class&15]++
			ct.pc = pc + 1
			if stl == Done {
				ct.readyAt = cyc + int64(in.lat)
			}
			continue
		case isa.STG:
			// The PNM execution model keeps live state in local memory
			// (Section III-B); a global store in a kernel is a porting bug,
			// surfaced loudly rather than silently mis-timed.
			panic("corelet: STG not supported by the PNM kernels (live state must stay in local memory)")
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
			st.condBranches++
			var taken bool
			switch in.op {
			case isa.BEQ:
				taken = a == b
			case isa.BNE:
				taken = a != b
			case isa.BLT:
				taken = int32(a) < int32(b)
			case isa.BGE:
				taken = int32(a) >= int32(b)
			case isa.BLTU:
				taken = a < b
			default: // BGEU
				taken = a >= b
			}
			st.classCounts[in.class&15]++
			if taken {
				st.takenCond++
				ct.pc = in.imm
				ct.readyAt = cyc + cl.code.takenLat
				continue
			}
			ct.pc = pc + 1
			ct.readyAt = cyc + int64(in.lat)
			continue
		case isa.J:
			st.classCounts[in.class&15]++
			ct.pc = in.imm
			ct.readyAt = cyc + cl.code.takenLat
			continue
		case isa.JAL:
			st.classCounts[in.class&15]++
			if in.rd != 0 {
				regs[in.rd&31] = uint32(pc + 1)
			}
			ct.pc = in.imm
			ct.readyAt = cyc + cl.code.takenLat
			continue
		case isa.JR:
			st.classCounts[in.class&15]++
			ct.pc = int32(a)
			ct.readyAt = cyc + cl.code.takenLat
			continue
		case isa.CSRR:
			v = cl.csr(c, k, in.imm)
		case isa.BAR:
			if cl.barrier != nil {
				st.classCounts[in.class&15]++
				ct.pc = pc + 1
				hd.ready &^= 1 << uint(k)
				cl.barrier(cl.wakes[idx])
				continue
			}
			// No coordinator installed: BAR is a no-op that writes no register.
			st.classCounts[in.class&15]++
			ct.pc = pc + 1
			ct.readyAt = cyc + int64(in.lat)
			continue
		default:
			panic(fmt.Sprintf("corelet: unhandled op %v at pc %d", in.op, pc))
		}
		// Unconditional writeback: rd==0 means "discard", which the tail models
		// by letting the store land in r0 and re-zeroing it — two cheap stores
		// instead of a data-dependent branch on the hot path.
		regs[in.rd&31] = v
		regs[0] = 0
		st.classCounts[in.class&15]++
		ct.pc = pc + 1
		ct.readyAt = cyc + int64(in.lat)
	}
}
