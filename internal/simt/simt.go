// Package simt models the GPGPU-style PNM baselines of Section V: a 32-lane
// SM with 4-way warp multithreading (GPGPU), the Variable Warp Sizing
// configuration the paper reports always picks 4-wide warps for BMLAs
// (VWS: 8 independent 4-lane slices), and VWS-row — VWS augmented with
// Millipede's row-oriented, flow-controlled prefetch (the paper's
// generality experiment).
//
// Divergence is modeled with the classic immediate-post-dominator
// reconvergence stack, using the reconvergence PCs the assembler computes
// from the kernel CFG. Memory accesses by a warp's lanes coalesce into
// 128-byte transactions against the SM's L1 D-cache (with sequential
// cache-block prefetch); the live state lives in 32-bank word-interleaved
// shared memory with broadcast and bank-conflict serialization — exactly
// the mapping Section III-E prescribes for BMLAs on GPGPUs.
package simt

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// Variant selects the SM organization.
type Variant int

const (
	// GPGPU: 32-wide warps, L1D cache-block prefetch.
	GPGPU Variant = iota
	// VWS: 4-wide warps in independent slices, L1D cache-block prefetch.
	VWS
	// VWSRow: 4-wide warps with Millipede's row prefetch + flow control.
	VWSRow
)

func (v Variant) String() string {
	switch v {
	case VWS:
		return "vws"
	case VWSRow:
		return "vws-row"
	}
	return "gpgpu"
}

// sdinst is one predecoded instruction: the hot fields of isa.Inst plus the
// class latency resolved at construction, so the warp-issue path performs no
// table lookups. Register indices are pre-masked to the register-file size,
// which lets the lane loops index without bounds checks.
type sdinst struct {
	op           isa.Op
	rd, rs1, rs2 uint8
	lat          int16
	imm          int32
}

// Stats aggregates SM execution counters.
type Stats struct {
	WarpInsts    uint64 // issue slots used (instruction fetch/decode events)
	ThreadInsts  uint64 // per-lane executed instructions
	CondBranches uint64 // per-lane conditional branches
	Divergences  uint64 // warp splits
	SharedAcc    uint64 // shared-memory bank accesses
	BankConflict uint64 // extra cycles from bank conflicts
	Transactions uint64 // coalesced global transactions (cache accesses)
	LaneIdle     uint64 // lane-cycles without work (divergence + stalls); see counters
	Cycles       uint64
}

type stackEntry struct {
	rpc  int
	pc   int
	mask uint64
}

type warp struct {
	id      int // index into SM.warps / SM.gate
	slice   int // lane group: lanes [slice*width, (slice+1)*width)
	context int
	pc      int
	rpc     int
	mask    uint64 // relative to the slice's lanes (bit i = lane slice*width+i)
	stack   []stackEntry
	regs    [][isa.NumRegs]uint32 // per lane in slice
	readyAt int64
	// Outstanding memory state.
	outstanding int
	pendingBlk  []uint32 // coalesced transactions awaiting cache acceptance
	done        bool
	// memDone decrements outstanding; built once at construction so memory
	// accesses don't allocate a closure per transaction.
	memDone func()
}

func (w *warp) fullMask(width int) uint64 { return (uint64(1) << uint(width)) - 1 }

// SM is one streaming multiprocessor plus its memory side.
type SM struct {
	P       arch.Params
	EP      energy.Params
	V       Variant
	node    *arch.Node
	lay     layout.Layout
	ownerOf func(addr uint32) (corelet, slot int)
	prog    *isa.Program
	ops     []sdinst // predecoded prog.Insts
	width   int
	slices  int
	warps   []*warp
	shared  []uint32
	l1      *cache.Cache
	buf     *prefetch.Buffer
	rr      []int // per-slice round-robin pointer
	// maskAll is the all-lanes-active mask for this warp width; execute's
	// hot arms drop the per-lane mask test when a warp is not diverged.
	maskAll uint64
	// latTab maps isa.Class to issue latency (built at NewSM), so the
	// per-instruction latency pick is one indexed load.
	latTab [10]int64
	// slicePending counts warps per slice with coalesced transactions
	// bounced off a full L1 queue, so the per-tick retry scan is skipped
	// entirely in the common case of no structural stalls.
	slicePending []int
	// sliceNext[s] caches the earliest tick at which any warp gate in slice
	// s can open, recorded when an issue scan comes up empty; until then
	// the scan is skipped outright. Gate writes outside the scan (memory
	// wakes, retry drains) reset it to zero, which means "must rescan".
	sliceNext []int64
	ticks     uint64
	stats     Stats
	running   int
	// liveSlices holds the indices of slices with at least one non-done
	// warp, in ascending order (warps never un-halt, so Tick compacts the
	// list in place); sliceLive counts non-done warps per slice.
	liveSlices []int
	sliceLive  []int
	// Scratch buffers reused across memory accesses (hot path).
	scratchBlocks []uint32
	// seen stamps shared-memory words with the epoch of the access that last
	// touched them, giving O(lanes) distinct-address detection per banked
	// access instead of a quadratic scan.
	seen      []uint64
	seenEpoch uint64
	// gate[i] is the earliest tick warp i can issue, or gateBlocked while the
	// warp is done or waiting on memory (outstanding transactions or bounced
	// coalesced blocks). The per-slice issue scan reads this flat array
	// instead of chasing warp pointers; every transition that affects
	// issueability refreshes the entry.
	gate []int64
}

// gateBlocked marks a warp that cannot issue until a memory event (or never,
// once done); completions rewrite the gate with the warp's readyAt.
const gateBlocked = int64(math.MaxInt64)

// NewSM builds and loads an SM for one launch. The launch's interleave must
// be Word (the coalesceable layout the paper says GPGPUs require).
func NewSM(p arch.Params, ep energy.Params, v Variant, l core.Launch) (*SM, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ep.Validate(); err != nil {
		return nil, err
	}
	if l.Prog == nil {
		return nil, fmt.Errorf("simt: nil program")
	}
	if l.Interleave != layout.Word {
		return nil, fmt.Errorf("simt: SIMT models require the word-interleaved layout")
	}
	width := p.Corelets
	if v != GPGPU {
		width = p.VWSWarpWidth
	}
	if width <= 0 || width > 64 || p.Corelets%width != 0 {
		return nil, fmt.Errorf("simt: bad warp width %d for %d lanes", width, p.Corelets)
	}
	lay := layout.Layout{
		Base:       0,
		RowBytes:   p.DRAM.RowBytes,
		Corelets:   p.Corelets,
		Contexts:   p.Contexts,
		Interleave: layout.Word,
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

	m := &SM{
		P: p, EP: ep, V: v, node: node, lay: lay, ownerOf: lay.OwnerFunc(), prog: l.Prog,
		width:  width,
		slices: p.Corelets / width,
		shared: make([]uint32, p.SharedMemBytes/4),
	}
	m.maskAll = (&warp{}).fullMask(width)
	m.rr = make([]int, m.slices)
	m.slicePending = make([]int, m.slices)
	m.sliceNext = make([]int64, m.slices)
	m.seen = make([]uint64, len(m.shared))
	for cl := range m.latTab {
		m.latTab[cl] = int64(m.latencyOf(isa.Class(cl)))
	}
	m.ops = make([]sdinst, len(l.Prog.Insts))
	for i, in := range l.Prog.Insts {
		m.ops[i] = sdinst{
			op:  in.Op,
			rd:  in.Rd & (isa.NumRegs - 1),
			rs1: in.Rs1 & (isa.NumRegs - 1),
			rs2: in.Rs2 & (isa.NumRegs - 1),
			lat: int16(m.latTab[isa.Classify(in.Op)]),
			imm: in.Imm,
		}
	}
	for i, w := range l.Args {
		m.shared[i] = w
	}
	switch v {
	case VWSRow:
		bcfg := prefetch.Config{
			Entries:     p.PrefetchEntries,
			Corelets:    p.Corelets,
			RowBytes:    p.DRAM.RowBytes,
			FlowControl: p.FlowControl,
			MaxWaiters:  p.Corelets * p.Contexts,
		}
		m.buf, err = prefetch.New(bcfg, node.Port)
		if err != nil {
			return nil, err
		}
		if err := m.buf.Start(0, len(flat)*4); err != nil {
			return nil, err
		}
	default:
		ccfg := cache.Config{
			SizeBytes:     p.GPGPUL1Bytes,
			LineBytes:     p.CacheLineBytes,
			Assoc:         p.CacheAssoc,
			PrefetchDepth: p.PrefetchDepth,
		}
		m.l1, err = cache.New(ccfg, node.Port, 16)
		if err != nil {
			return nil, err
		}
	}
	for s := 0; s < m.slices; s++ {
		for c := 0; c < p.Contexts; c++ {
			w := &warp{id: len(m.warps), slice: s, context: c, rpc: len(l.Prog.Insts)}
			w.mask = w.fullMask(width)
			w.regs = make([][isa.NumRegs]uint32, width)
			// Pre-size the hot per-warp lists so the cycle loop never grows
			// them: a warp can hold at most one distinct block per lane, and
			// the divergence stack is bounded by nesting depth (generously,
			// the program length).
			w.pendingBlk = make([]uint32, 0, 2*width)
			w.stack = make([]stackEntry, 0, 16)
			w.memDone = func() {
				w.outstanding--
				if w.outstanding == 0 && len(w.pendingBlk) == 0 {
					m.gate[w.id] = w.readyAt
					m.sliceNext[w.slice] = 0
				}
			}
			m.warps = append(m.warps, w)
		}
	}
	m.gate = make([]int64, len(m.warps))
	m.scratchBlocks = make([]uint32, 0, 2*width)
	m.running = len(m.warps)
	m.liveSlices = make([]int, m.slices)
	m.sliceLive = make([]int, m.slices)
	for s := 0; s < m.slices; s++ {
		m.liveSlices[s] = s
		m.sliceLive[s] = p.Contexts
	}
	node.Metrics.Counter("core.cycles", func() uint64 { return m.ticks })
	RegisterStats(node.Metrics, "simt", m.counters)
	if m.l1 != nil {
		cache.RegisterStats(node.Metrics, "cache", m.l1.Stats)
	}
	if m.buf != nil {
		m.buf.RegisterMetrics(node.Metrics, "prefetch")
	}

	if err := node.AttachCompute(m); err != nil {
		return nil, err
	}
	return m, nil
}

// laneID returns the global lane (corelet) index of bit i in warp w.
func (m *SM) laneID(w *warp, i int) int { return w.slice*m.width + i }

func (m *SM) csr(w *warp, lane int, n int32) uint32 {
	gl := m.laneID(w, lane)
	switch n {
	case isa.CSRCoreletID:
		return uint32(gl)
	case isa.CSRContextID:
		return uint32(w.context)
	case isa.CSRNumCorelet:
		return uint32(m.P.Corelets)
	case isa.CSRNumContext:
		return uint32(m.P.Contexts)
	case isa.CSRThreadID:
		return uint32(gl*m.P.Contexts + w.context)
	case isa.CSRNumThreads:
		return uint32(m.P.Corelets * m.P.Contexts)
	}
	panic(fmt.Sprintf("simt: unknown CSR %d", n))
}

// Halted reports whether every warp has finished.
func (m *SM) Halted() bool { return m.running == 0 }

// Tick advances the SM one compute cycle: each slice retries pending memory
// and issues at most one warp instruction.
func (m *SM) Tick(now sim.Time) {
	m.ticks++
	m.stats.Cycles++
	if m.buf != nil {
		m.buf.Pump()
	}
	live := m.liveSlices
	k := 0
	for i, s := range live {
		m.tickSlice(s)
		if m.sliceLive[s] > 0 {
			if k != i {
				live[k] = s
			}
			k++
		}
	}
	m.liveSlices = live[:k]
}

// counters returns the execution counters with LaneIdle filled in. Every
// cycle offers each lane one issue slot and every executed lane-instruction
// fills one, so the idle lane-cycles follow from Cycles and ThreadInsts.
func (m *SM) counters() Stats {
	s := m.stats
	s.LaneIdle = uint64(m.P.Corelets)*s.Cycles - s.ThreadInsts
	return s
}

func (m *SM) tickSlice(s int) {
	n := m.P.Contexts
	base := s * n
	warps := m.warps[base : base+n]
	// Retry transactions bounced off full queues.
	if m.slicePending[s] > 0 {
		for _, w := range warps {
			if len(w.pendingBlk) > 0 {
				m.retryBlocks(w)
				if len(w.pendingBlk) == 0 {
					m.slicePending[s]--
					if w.outstanding == 0 {
						m.gate[w.id] = w.readyAt
						m.sliceNext[s] = 0
					}
				}
			}
		}
	}
	now := int64(m.ticks)
	if m.sliceNext[s] > now {
		// A previous empty scan proved no gate can open before sliceNext,
		// and every gate write since would have reset it.
		return
	}
	// The issue scan reads only the flat gate array; warp state is touched
	// just for the warp that actually issues.
	gates := m.gate[base : base+n]
	idx := m.rr[s] + 1
	low := int64(gateBlocked)
	for i := 0; i < n; i++ {
		if idx >= n {
			idx -= n
		}
		if g := gates[idx]; g > now {
			if g < low {
				low = g
			}
			idx++
			continue
		}
		m.rr[s] = idx
		w := warps[idx]
		m.execute(w)
		g := w.readyAt
		if w.done || w.outstanding > 0 || len(w.pendingBlk) > 0 {
			g = gateBlocked
		}
		gates[idx] = g
		return
	}
	m.sliceNext[s] = low
}

// reconverge pops the divergence stack while the warp sits at a
// reconvergence point.
func (w *warp) reconverge() {
	for len(w.stack) > 0 && w.pc == w.rpc {
		top := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		w.pc, w.mask, w.rpc = top.pc, top.mask, top.rpc
	}
}

// branchTaken builds the taken-lane mask for a conditional branch. The
// condition switch sits outside the lane loop, so each branch op runs a
// tight predictable loop over its active lanes.
func branchTaken(op isa.Op, regs [][isa.NumRegs]uint32, mask uint64, rs1, rs2 uint8) uint64 {
	var taken uint64
	switch op {
	case isa.BEQ:
		for l := range regs {
			if mask>>uint(l)&1 != 0 && regs[l][rs1&31] == regs[l][rs2&31] {
				taken |= 1 << uint(l)
			}
		}
	case isa.BNE:
		for l := range regs {
			if mask>>uint(l)&1 != 0 && regs[l][rs1&31] != regs[l][rs2&31] {
				taken |= 1 << uint(l)
			}
		}
	case isa.BLT:
		for l := range regs {
			if mask>>uint(l)&1 != 0 && int32(regs[l][rs1&31]) < int32(regs[l][rs2&31]) {
				taken |= 1 << uint(l)
			}
		}
	case isa.BGE:
		for l := range regs {
			if mask>>uint(l)&1 != 0 && int32(regs[l][rs1&31]) >= int32(regs[l][rs2&31]) {
				taken |= 1 << uint(l)
			}
		}
	case isa.BLTU:
		for l := range regs {
			if mask>>uint(l)&1 != 0 && regs[l][rs1&31] < regs[l][rs2&31] {
				taken |= 1 << uint(l)
			}
		}
	default: // BGEU
		for l := range regs {
			if mask>>uint(l)&1 != 0 && regs[l][rs1&31] >= regs[l][rs2&31] {
				taken |= 1 << uint(l)
			}
		}
	}
	return taken
}

// execute runs one warp instruction. The opcode dispatch happens once per warp instruction; every arm runs its
// own inline loop over the active lanes, so the per-lane work is a few
// straight-line operations with no calls and no table lookups.
func (m *SM) execute(w *warp) {
	w.reconverge()
	in := &m.ops[w.pc]
	active := bits.OnesCount64(w.mask)
	m.stats.WarpInsts++
	m.stats.ThreadInsts += uint64(active)
	lat := int64(in.lat)
	regs := w.regs
	mask := w.mask
	rd, rs1, rs2 := in.rd, in.rs1, in.rs2

	switch in.op {
	case isa.HALT:
		if len(w.stack) != 0 {
			panic("simt: HALT under divergence (kernel reconvergence bug)")
		}
		w.done = true
		m.running--
		m.sliceLive[w.slice]--
		return
	case isa.NOP:
		w.pc++
	case isa.CSRR:
		for l := range regs {
			if mask>>uint(l)&1 != 0 && rd != 0 {
				regs[l][rd&31] = m.csr(w, l, in.imm)
			}
		}
		w.pc++
	case isa.LW:
		lat += int64(m.sharedAccess(w, in, false))
		w.pc++
	case isa.SW:
		lat += int64(m.sharedAccess(w, in, true))
		w.pc++
	case isa.LDG, isa.LDS:
		lat += int64(m.globalLoad(w, in))
		w.pc++
	case isa.STG:
		panic("simt: STG not supported by the PNM kernels")
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		m.stats.CondBranches += uint64(active)
		taken := branchTaken(in.op, regs, mask, rs1, rs2)
		lat = int64(m.P.Latencies.TakenBranch)
		switch {
		case taken == 0:
			w.pc++
		case taken == mask:
			w.pc = int(in.imm)
		default:
			m.stats.Divergences++
			r := m.prog.ReconvPC[w.pc]
			// Continuation at the reconvergence point, then the taken
			// path; execution proceeds on the fall-through path.
			w.stack = append(w.stack,
				stackEntry{rpc: w.rpc, pc: r, mask: mask},
				stackEntry{rpc: r, pc: int(in.imm), mask: taken},
			)
			w.mask &^= taken
			w.rpc = r
			w.pc++
		}
	case isa.J:
		w.pc = int(in.imm)
		lat = int64(m.P.Latencies.TakenBranch)
	case isa.JAL:
		if rd != 0 {
			link := uint32(w.pc + 1)
			for l := range regs {
				if mask>>uint(l)&1 != 0 {
					regs[l][rd&31] = link
				}
			}
		}
		w.pc = int(in.imm)
		lat = int64(m.P.Latencies.TakenBranch)
	case isa.JR:
		var target uint32
		first := true
		for l := range regs {
			if mask>>uint(l)&1 == 0 {
				continue
			}
			v := regs[l][rs1&31]
			if first {
				target, first = v, false
			} else if v != target {
				panic("simt: divergent JR targets unsupported")
			}
		}
		w.pc = int(target)
		lat = int64(m.P.Latencies.TakenBranch)
	// Hot ALU arms: the rd==0 (discard) test is loop-invariant and hoisted,
	// and an undiverged warp (mask == maskAll, the overwhelmingly common
	// case) runs a straight-line lane loop with no per-lane mask test.
	case isa.ADD:
		if rd != 0 {
			if mask == m.maskAll {
				for l := range regs {
					r := &regs[l]
					r[rd&31] = r[rs1&31] + r[rs2&31]
				}
			} else {
				for l := range regs {
					if mask>>uint(l)&1 != 0 {
						r := &regs[l]
						r[rd&31] = r[rs1&31] + r[rs2&31]
					}
				}
			}
		}
		w.pc++
	case isa.SUB:
		if rd != 0 {
			if mask == m.maskAll {
				for l := range regs {
					r := &regs[l]
					r[rd&31] = r[rs1&31] - r[rs2&31]
				}
			} else {
				for l := range regs {
					if mask>>uint(l)&1 != 0 {
						r := &regs[l]
						r[rd&31] = r[rs1&31] - r[rs2&31]
					}
				}
			}
		}
		w.pc++
	case isa.MUL:
		if rd != 0 {
			if mask == m.maskAll {
				for l := range regs {
					r := &regs[l]
					r[rd&31] = uint32(int32(r[rs1&31]) * int32(r[rs2&31]))
				}
			} else {
				for l := range regs {
					if mask>>uint(l)&1 != 0 {
						r := &regs[l]
						r[rd&31] = uint32(int32(r[rs1&31]) * int32(r[rs2&31]))
					}
				}
			}
		}
		w.pc++
	case isa.ADDI:
		if rd != 0 {
			if mask == m.maskAll {
				for l := range regs {
					r := &regs[l]
					r[rd&31] = uint32(int32(r[rs1&31]) + in.imm)
				}
			} else {
				for l := range regs {
					if mask>>uint(l)&1 != 0 {
						r := &regs[l]
						r[rd&31] = uint32(int32(r[rs1&31]) + in.imm)
					}
				}
			}
		}
		w.pc++
	case isa.SLLI:
		sh := uint32(in.imm) & 31
		if rd != 0 {
			if mask == m.maskAll {
				for l := range regs {
					r := &regs[l]
					r[rd&31] = r[rs1&31] << sh
				}
			} else {
				for l := range regs {
					if mask>>uint(l)&1 != 0 {
						r := &regs[l]
						r[rd&31] = r[rs1&31] << sh
					}
				}
			}
		}
		w.pc++
	case isa.SRLI:
		sh := uint32(in.imm) & 31
		if rd != 0 {
			if mask == m.maskAll {
				for l := range regs {
					r := &regs[l]
					r[rd&31] = r[rs1&31] >> sh
				}
			} else {
				for l := range regs {
					if mask>>uint(l)&1 != 0 {
						r := &regs[l]
						r[rd&31] = r[rs1&31] >> sh
					}
				}
			}
		}
		w.pc++
	case isa.FADD:
		if rd != 0 {
			if mask == m.maskAll {
				for l := range regs {
					r := &regs[l]
					r[rd&31] = isa.Bits(isa.F32(r[rs1&31]) + isa.F32(r[rs2&31]))
				}
			} else {
				for l := range regs {
					if mask>>uint(l)&1 != 0 {
						r := &regs[l]
						r[rd&31] = isa.Bits(isa.F32(r[rs1&31]) + isa.F32(r[rs2&31]))
					}
				}
			}
		}
		w.pc++
	case isa.FSUB:
		if rd != 0 {
			if mask == m.maskAll {
				for l := range regs {
					r := &regs[l]
					r[rd&31] = isa.Bits(isa.F32(r[rs1&31]) - isa.F32(r[rs2&31]))
				}
			} else {
				for l := range regs {
					if mask>>uint(l)&1 != 0 {
						r := &regs[l]
						r[rd&31] = isa.Bits(isa.F32(r[rs1&31]) - isa.F32(r[rs2&31]))
					}
				}
			}
		}
		w.pc++
	case isa.FMUL:
		if rd != 0 {
			if mask == m.maskAll {
				for l := range regs {
					r := &regs[l]
					r[rd&31] = isa.Bits(isa.F32(r[rs1&31]) * isa.F32(r[rs2&31]))
				}
			} else {
				for l := range regs {
					if mask>>uint(l)&1 != 0 {
						r := &regs[l]
						r[rd&31] = isa.Bits(isa.F32(r[rs1&31]) * isa.F32(r[rs2&31]))
					}
				}
			}
		}
		w.pc++
	case isa.FLT:
		if rd != 0 {
			for l := range regs {
				if mask>>uint(l)&1 != 0 {
					r := &regs[l]
					var v uint32
					if isa.F32(r[rs1&31]) < isa.F32(r[rs2&31]) {
						v = 1
					}
					r[rd&31] = v
				}
			}
		}
		w.pc++
	default:
		// Rare ops fall back to the shared scalar evaluator; the warp-wide
		// dispatch already happened, so this is one predictable call per
		// lane with the op fixed across the loop.
		for l := range regs {
			if mask>>uint(l)&1 == 0 {
				continue
			}
			r := &regs[l]
			v, ok := isa.EvalALUOp(in.op, in.imm, r[rs1&31], r[rs2&31])
			if !ok {
				panic(fmt.Sprintf("simt: unhandled op %v", in.op))
			}
			if rd != 0 {
				r[rd&31] = v
			}
		}
		w.pc++
	}
	w.readyAt = int64(m.ticks) + lat
}

func (m *SM) latencyOf(c isa.Class) int {
	l := m.P.Latencies
	switch c {
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
	case isa.ClassGlobalMem:
		return l.GlobalHit
	default:
		return l.ALU
	}
}

// sharedAccess performs a banked shared-memory access for all active lanes
// and returns the extra serialization cycles (conflict degree - 1). Lanes
// reading the same word broadcast for free. Distinct-word detection stamps
// an epoch per shared word — O(lanes) per access with no clearing pass,
// replacing the previous O(lanes^2) scratch-buffer scan.
func (m *SM) sharedAccess(w *warp, in *sdinst, store bool) int {
	epoch := m.seenEpoch + 1
	m.seenEpoch = epoch
	regs := w.regs
	mask := w.mask
	rd, rs1, rs2, imm := in.rd, in.rs1, in.rs2, in.imm
	var perBank [32]uint8
	distinct := 0
	worst := 1
	for l := range regs {
		if mask>>uint(l)&1 == 0 {
			continue
		}
		r := &regs[l]
		addr := uint32(int32(r[rs1&31]) + imm)
		if addr%4 != 0 {
			panic(fmt.Sprintf("simt: unaligned shared access %#x", addr))
		}
		word := int(addr / 4)
		if word >= len(m.shared) {
			panic(fmt.Sprintf("simt: shared access %#x beyond %d B shared memory", addr, len(m.shared)*4))
		}
		if store {
			m.shared[word] = r[rs2&31]
		} else if rd != 0 {
			r[rd&31] = m.shared[word]
		}
		if m.seen[word] != epoch {
			m.seen[word] = epoch
			distinct++
			b := word & 31
			perBank[b]++
			if int(perBank[b]) > worst {
				worst = int(perBank[b])
			}
		}
	}
	m.stats.SharedAcc += uint64(distinct)
	if worst > 1 {
		m.stats.BankConflict += uint64(worst - 1)
	}
	return worst - 1
}

// globalLoad performs the lanes' loads functionally, then models the timing:
// coalesce into cache-block transactions (GPGPU/VWS) or per-word prefetch
// buffer accesses (VWS-row). It returns the extra issue-slot cycles consumed
// by transactions beyond the first.
func (m *SM) globalLoad(w *warp, in *sdinst) int {
	regs := w.regs
	mask := w.mask
	rd, rs1, imm := in.rd, in.rs1, in.imm
	stream := in.op == isa.LDS
	if m.buf != nil {
		base := w.slice * m.width
		for l := range regs {
			if mask>>uint(l)&1 == 0 {
				continue
			}
			r := &regs[l]
			var addr uint32
			if stream {
				addr = r[isa.StreamAddr]
				advanceStream(r)
			} else {
				addr = uint32(int32(r[rs1&31]) + imm)
			}
			if rd != 0 {
				r[rd&31] = m.node.DRAM.ReadWord(addr)
			}
			c, slot := m.ownerOf(addr)
			if c != base+l {
				panic("simt: lane touched another lane's slab")
			}
			if m.buf.Access(c, slot, addr, w.memDone) == prefetch.Waiting {
				w.outstanding++
			}
		}
		m.stats.Transactions += uint64(bits.OnesCount64(mask))
		return 0
	}
	blocks := m.scratchBlocks[:0]
	lb := int64(m.P.CacheLineBytes)
	for l := range regs {
		if mask>>uint(l)&1 == 0 {
			continue
		}
		r := &regs[l]
		var addr uint32
		if stream {
			addr = r[isa.StreamAddr]
			advanceStream(r)
		} else {
			addr = uint32(int32(r[rs1&31]) + imm)
		}
		if rd != 0 {
			r[rd&31] = m.node.DRAM.ReadWord(addr)
		}
		blk := uint32(int64(addr) / lb * lb)
		dup := false
		for _, b := range blocks {
			if b == blk {
				dup = true
				break
			}
		}
		if !dup {
			blocks = append(blocks, blk)
		}
	}
	w.pendingBlk = append(w.pendingBlk, blocks...)
	n := len(blocks)
	m.scratchBlocks = blocks[:0]
	m.retryBlocks(w)
	if len(w.pendingBlk) > 0 {
		m.slicePending[w.slice]++
	}
	return n - 1
}

// retryBlocks issues as many pending coalesced transactions as the L1 will
// accept this cycle.
func (m *SM) retryBlocks(w *warp) {
	rest := w.pendingBlk[:0]
	for _, b := range w.pendingBlk {
		switch m.l1.Access(b, w.memDone) {
		case cache.Hit:
			m.stats.Transactions++
		case cache.Miss:
			m.stats.Transactions++
			w.outstanding++
		default: // Retry
			rest = append(rest, b)
		}
	}
	w.pendingBlk = rest
}

// Run executes to completion and returns aggregated results.
func (m *SM) Run(limit sim.Time) (Result, error) {
	rs, err := m.node.Run(limit)
	if err != nil {
		return Result{}, err
	}
	r := Result{RunStats: rs, SM: m.counters()}
	if m.l1 != nil {
		r.Cache = m.l1.Stats()
	}
	if m.buf != nil {
		r.Prefetch = m.buf.Stats()
	}
	r.ComputeCycles = m.ticks
	r.Insts, r.CondBranches = m.stats.ThreadInsts, m.stats.CondBranches
	r.FinalHz = m.P.ComputeHz
	r.Energy = m.energy(r)
	return r, nil
}

// Result is the shared node result plus the SM's execution counters and
// whichever of the L1 D-cache or row prefetch buffer the variant uses.
type Result struct {
	arch.RunStats
	SM       Stats
	Cache    cache.Stats
	Prefetch prefetch.Stats
}

// energy: SIMT amortizes instruction fetch over the warp but pays the
// shared-memory crossbar on every live-state access and idles lanes on
// divergence (Section VI-B's explanation of Figure 4).
func (m *SM) energy(r Result) energy.Breakdown {
	ep, s := m.EP, r.SM
	var b energy.Breakdown
	b.CorePJ = float64(s.WarpInsts)*ep.IFetchWarpPJ +
		float64(s.ThreadInsts)*ep.InstPJ +
		float64(s.SharedAcc)*ep.SharedMemPJ +
		float64(s.LaneIdle)*ep.IdlePJ
	if m.buf != nil {
		b.CorePJ += float64(s.Transactions) * ep.LocalPJ
	} else {
		b.CorePJ += float64(s.Transactions) * ep.L1LargePJ
	}
	b.DRAMPJ = ep.DRAM(r.DRAM.RowMisses, r.DRAM.BytesRead)
	b.LeakPJ = ep.Leakage(m.P.Corelets, float64(r.Time)/1e12)
	return b
}

// advanceStream steps a lane's hardware stream walker (isa.LDS semantics).
func advanceStream(regs *[isa.NumRegs]uint32) {
	regs[isa.StreamAddr] += regs[isa.StreamStride]
	regs[isa.StreamCount]--
	if regs[isa.StreamCount] == 0 {
		regs[isa.StreamAddr] += regs[isa.StreamFix]
		regs[isa.StreamCount] = regs[isa.StreamChunk]
	}
}

// InjectMemoryJitter enables deterministic DRAM completion jitter (fault
// injection). Call before Run.
func (m *SM) InjectMemoryJitter(max int64, seed uint64) { m.node.InjectMemoryJitter(max, seed) }

// ReadShared reads a word of SM shared memory after the run (host Reduce).
// The corelet argument is ignored: shared memory is SM-wide.
func (m *SM) ReadShared(_ int, addr uint32) uint32 { return m.shared[addr/4] }

// Layout returns the input layout.
func (m *SM) Layout() layout.Layout { return m.lay }
