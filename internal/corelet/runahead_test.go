package corelet

import (
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// lockstepTick is the sweep without run-ahead: one tickCore per active
// corelet, in index order, every cycle. It is the reference Tick must match.
func lockstepTick(cl *Cluster) {
	cl.now++
	for w, word := range cl.active {
		for word != 0 {
			c := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			cl.tickCore(c)
		}
	}
}

// splitmix is a tiny seeded generator (SplitMix64).
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// access is one port access as the fuzz rig logs it.
type access struct {
	cycle, now   int64
	corelet, ctx int
	addr         uint32
}

// arrival is one barrier arrival: the cluster cycle and the arriving
// context's index.
type arrival struct {
	now int64
	idx int
}

type timedWake struct {
	due int64
	fn  func()
}

// rig drives one cluster the way a processor and its memory domain do. Its
// port answers Done, Pending or Retry from a seeded stream and fires each
// Pending access's wake a few cycles later, between ticks; its barrier
// coordinator releases every context once all of them have arrived. Two
// rigs with the same seed answer identically as long as their clusters make
// identical accesses.
type rig struct {
	cl       *Cluster
	tick     func(*Cluster)
	answers  splitmix
	log      []access
	arrivals []arrival
	wakes    []timedWake
	barWait  []func()
	barIdx   []int
	atBar    map[int]bool
	// park, when set, holds the rig to the parking contract (parkPlan).
	park *parkPlan
}

type rigPort struct {
	r *rig
	c int
}

func (p rigPort) Read(ctx int, addr uint32, ready func()) Status {
	r := p.r
	if r.park != nil {
		return r.park.read(r, p.c, ctx, addr, ready)
	}
	r.log = append(r.log, access{r.cl.cores[p.c].cycle, r.cl.now, p.c, ctx, addr})
	switch x := r.answers.next(); x % 8 {
	case 0, 1, 2, 3:
		return Done
	case 4, 5, 6:
		r.wakes = append(r.wakes, timedWake{due: r.cl.now + 1 + int64(x>>8%6), fn: ready})
		return Pending
	default:
		return Retry
	}
}

// arrive is the barrier coordinator. It identifies the arriving context as
// the one waiting just past a BAR that has not arrived yet (generated
// kernels never put HALT right after BAR, so a halted context never looks
// like one waiting at the barrier).
func (r *rig) arrive(release func()) {
	cl := r.cl
	idx := -1
	for i, ct := range cl.ctxs {
		c, k := i/cl.nctx, i%cl.nctx
		if cl.cores[c].ready>>uint(k)&1 != 0 || r.atBar[i] || ct.pc < 1 || int(ct.pc) > len(cl.ops) {
			continue
		}
		if cl.ops[ct.pc-1].op == isa.BAR && (int(ct.pc) == len(cl.ops) || cl.ops[ct.pc].op != isa.HALT) {
			idx = i
			break
		}
	}
	r.atBar[idx] = true
	r.arrivals = append(r.arrivals, arrival{cl.now, idx})
	r.barWait = append(r.barWait, release)
	r.barIdx = append(r.barIdx, idx)
	if len(r.barWait) == cl.ncore*cl.nctx {
		ws, is := r.barWait, r.barIdx
		r.barWait, r.barIdx = nil, nil
		if r.park != nil {
			// Each release lands at the start of its corelet's next epoch;
			// until then its context still counts as arrived.
			for i, w := range ws {
				idx, w := is[i], w
				r.wakes = append(r.wakes, timedWake{due: r.park.next[idx/cl.nctx], fn: func() {
					delete(r.atBar, idx)
					w()
				}})
			}
			return
		}
		r.atBar = map[int]bool{}
		for _, w := range ws {
			w()
		}
	}
}

// parkPlan holds a rig to the contract a parked corelet relies on
// (RunParked, and the multicore's park). Each corelet's run is cut into
// epochs of 1 to maxGap ticks. A Pending access's wake and a barrier release
// land only at the start of the corelet's next epoch, and a load that
// bounced is answered Retry again, without a draw from the answer stream,
// until its corelet's epoch ends; so a twin that replays those retries
// instead of making them stays in step. Each tick is width cycles, as the
// multicore's issue width.
type parkPlan struct {
	width  int64
	gaps   splitmix
	maxGap int
	next   []int64 // per corelet: the tick that starts its next epoch
	epoch  []int64 // per corelet: epochs started
	marked []int64 // per context: 1 + the epoch its load last bounced in
	// memo is each corelet's mask of contexts whose load bounced since its
	// last other access, the multicore port's retry memo.
	memo []uint64
	// retries counts each context's Retry answers plus replayed retries.
	retries []uint64
}

func newParkPlan(cl *Cluster, seed uint64, width int64, maxGap int) *parkPlan {
	pp := &parkPlan{width: width, gaps: splitmix(seed), maxGap: maxGap,
		next: make([]int64, cl.ncore), epoch: make([]int64, cl.ncore),
		marked: make([]int64, cl.ncore*cl.nctx), memo: make([]uint64, cl.ncore),
		retries: make([]uint64, cl.ncore*cl.nctx)}
	for c := range pp.next {
		pp.next[c] = 1 + int64(pp.gaps.intn(maxGap))
	}
	return pp
}

// roll starts a new epoch on every corelet whose next epoch starts at tick.
func (pp *parkPlan) roll(tick int64) {
	for c, n := range pp.next {
		if n == tick {
			pp.epoch[c]++
			pp.next[c] = tick + 1 + int64(pp.gaps.intn(pp.maxGap))
		}
	}
}

func (pp *parkPlan) read(r *rig, c, ctx int, addr uint32, ready func()) Status {
	idx := c*r.cl.nctx + ctx
	if pp.marked[idx] == pp.epoch[c]+1 {
		pp.retries[idx]++
		pp.memo[c] |= 1 << uint(ctx)
		return Retry
	}
	r.log = append(r.log, access{r.cl.cores[c].cycle, r.cl.now, c, ctx, addr})
	switch r.answers.next() % 8 {
	case 0, 1, 2, 3:
		pp.memo[c] = 0
		return Done
	case 4, 5, 6:
		pp.memo[c] = 0
		r.wakes = append(r.wakes, timedWake{due: pp.next[c], fn: ready})
		return Pending
	default:
		pp.marked[idx] = pp.epoch[c] + 1
		pp.retries[idx]++
		pp.memo[c] |= 1 << uint(ctx)
		return Retry
	}
}

// lockstepWide is the lockstep sweep at width cycles a tick: each active
// corelet in index order steps width cycles (a corelet that halts
// mid-tick idles the rest), as the multicore's cores do.
func (pp *parkPlan) lockstepWide(cl *Cluster) {
	cl.now++
	for w, word := range cl.active {
		for word != 0 {
			c := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			for i := int64(0); i < pp.width; i++ {
				cl.tickCore(c)
			}
		}
	}
}

// parkedTick is the multicore's tick: each active corelet not already
// ahead clears its memo, advances to the tick's last cycle and, when a load
// bounced or a context waits, runs parked to the end of its epoch.
func (pp *parkPlan) parkedTick(cl *Cluster) {
	cl.now++
	to := cl.now * pp.width
	for w, word := range cl.active {
		for word != 0 {
			c := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if cl.Cycle(c) >= to {
				continue
			}
			pp.memo[c] = 0
			cl.Advance(c, to)
			if pp.memo[c] != 0 || cl.Waiting(c) {
				cl.RunParked(c, (pp.next[c]-1)*pp.width, pp.memo[c], pp.retries[c*cl.nctx:(c+1)*cl.nctx])
			}
		}
	}
}

// fireDue runs every wake due at or before cycle now, in scheduling order.
func (r *rig) fireDue(now int64) {
	rest := r.wakes[:0]
	var due []func()
	for _, w := range r.wakes {
		if w.due <= now {
			due = append(due, w.fn)
		} else {
			rest = append(rest, w)
		}
	}
	r.wakes = rest
	for _, f := range due {
		f()
	}
}

// run drives the cluster to completion. With probes != nil it acts like the
// engine with skipping on: at random cycles it asks NextWorkTicks and, when
// the answer is above 1, skips n-1 ticks, never past a pending wake's cycle.
func (r *rig) run(t *testing.T, probes *splitmix) {
	t.Helper()
	const maxTicks = 2_000_000
	for !r.cl.Halted() {
		if r.cl.now > maxTicks {
			t.Fatalf("no halt after %d ticks", maxTicks)
		}
		if probes != nil && probes.intn(4) == 0 {
			n := r.cl.NextWorkTicks()
			for _, w := range r.wakes {
				n = min(n, w.due-r.cl.now)
			}
			if n > 1 && n != NeverTicks {
				r.cl.SkipTicks(n - 1)
			}
		}
		if r.park != nil {
			r.park.roll(r.cl.now + 1)
		}
		r.fireDue(r.cl.now + 1)
		r.tick(r.cl)
	}
}

// fuzzCase is one cluster configuration: a program, its geometry, the
// local-memory image written to every corelet, and the functional reader.
type fuzzCase struct {
	prog               *isa.Program
	corelets, contexts int
	localBytes         int
	args               []uint32
	read               Reader
	seed               uint64
}

func newRig(t *testing.T, fc fuzzCase, tick func(*Cluster)) *rig {
	t.Helper()
	code, err := Decode(fc.prog, DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{tick: tick, answers: splitmix(fc.seed), atBar: map[int]bool{}}
	ports := make([]GlobalPort, fc.corelets)
	for c := range ports {
		ports[c] = rigPort{r, c}
	}
	r.cl, err = NewCluster(Config{Corelets: fc.corelets, Contexts: fc.contexts,
		LocalBytes: fc.localBytes, Latencies: DefaultLatencies()}, code, ports, fc.read)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < fc.corelets; c++ {
		for i, w := range fc.args {
			r.cl.WriteLocal(c, uint32(i*4), w)
		}
	}
	r.cl.SetBarrier(r.arrive)
	return r
}

// requireSameRun fails unless two rigs logged the same port accesses and
// barrier arrivals and ended in the same cluster state.
func requireSameRun(t *testing.T, name string, got, want *rig) {
	t.Helper()
	a, b := got.cl, want.cl
	for _, d := range []struct {
		what      string
		got, want any
	}{
		{"port accesses", got.log, want.log},
		{"barrier arrivals", got.arrivals, want.arrivals},
		{"stats", a.Stats(), b.Stats()},
		{"cluster cycle", a.now, b.now},
		{"corelet headers", a.cores, b.cores},
		{"context headers", a.ctxs, b.ctxs},
		{"registers", a.regs, b.regs},
		{"local memories", a.locals, b.locals},
	} {
		if !reflect.DeepEqual(d.got, d.want) {
			t.Fatalf("%s: %s differ from the lockstep sweep's:\n got %s\nwant %s",
				name, d.what, clip(d.got), clip(d.want))
		}
	}
}

func clip(v any) string {
	s := fmt.Sprint(v)
	if len(s) > 300 {
		s = s[:300] + "..."
	}
	return s
}

// Generated-kernel register use: r1 and r4..r7 are the stream walker, r2 is
// the address scratch, r8..r11 hold CSR identities, r12..r23 are data,
// r24..r26 are loop counters (one per nesting level) and r27 is the link
// register.
const (
	genLocalWords = 256 // generated kernels address 1 KB of local memory
	genFirstData  = 12
	genDataRegs   = 12
	genLoopReg    = 24
	genLink       = 27
)

// kernelGen builds a random valid kernel.
type kernelGen struct {
	r     splitmix
	prog  []isa.Inst
	nsubs int      // leaf subroutines, placed after HALT
	calls [][2]int // (JAL index, subroutine) pairs to patch
	leaf  bool     // generating a subroutine body: no calls
}

func (g *kernelGen) emit(in isa.Inst) int {
	g.prog = append(g.prog, in)
	return len(g.prog) - 1
}

func (g *kernelGen) dataReg() uint8 { return uint8(genFirstData + g.r.intn(genDataRegs)) }

// srcReg is a data register or a CSR identity.
func (g *kernelGen) srcReg() uint8 { return uint8(8 + g.r.intn(4+genDataRegs)) }

var (
	genALU  = []isa.Op{isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SLL, isa.SRL, isa.SRA, isa.SLT, isa.SLTU, isa.MIN, isa.MAX, isa.NOP}
	genALUI = []isa.Op{isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLLI, isa.SRLI, isa.SRAI, isa.SLTI, isa.LUI}
	genMul  = []isa.Op{isa.MUL, isa.DIV, isa.REM}
	genFPU  = []isa.Op{isa.FADD, isa.FSUB, isa.FMUL, isa.FMIN, isa.FMAX, isa.FLT, isa.FLE, isa.FEQ, isa.CVTIF, isa.CVTFI, isa.FDIV, isa.FSQRT}
	genCond = []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU}
	genCSRs = []int32{isa.CSRCoreletID, isa.CSRContextID, isa.CSRNumCorelet, isa.CSRNumContext, isa.CSRThreadID, isa.CSRNumThreads}
)

// block emits a straight-line mix with nested loops and branches down to
// nesting level maxDepth. BAR is emitted only where every context passes
// the same number of times (never under a data-dependent branch or in a
// subroutine), so barriers release; loops have constant trip counts, so
// the kernel halts.
func (g *kernelGen) block(depth, maxDepth int, bar bool) {
	n := 2 + g.r.intn(8)
	if depth == 0 {
		n = 10 + g.r.intn(30)
	}
	for ; n > 0; n-- {
		switch x := g.r.intn(20); {
		case x < 4:
			g.emit(isa.Inst{Op: genALU[g.r.intn(len(genALU))], Rd: g.dataReg(), Rs1: g.srcReg(), Rs2: g.srcReg()})
		case x < 6:
			g.emit(isa.Inst{Op: genALUI[g.r.intn(len(genALUI))], Rd: g.dataReg(), Rs1: g.srcReg(), Imm: int32(g.r.intn(64)) - 16})
		case x < 7:
			g.emit(isa.Inst{Op: genMul[g.r.intn(len(genMul))], Rd: g.dataReg(), Rs1: g.srcReg(), Rs2: g.srcReg()})
		case x < 9:
			g.emit(isa.Inst{Op: genFPU[g.r.intn(len(genFPU))], Rd: g.dataReg(), Rs1: g.srcReg(), Rs2: g.srcReg()})
		case x < 11: // in-bounds LW or SW: mask, then scale to a word address
			g.emit(isa.Inst{Op: isa.ANDI, Rd: 2, Rs1: g.srcReg(), Imm: genLocalWords - 1})
			g.emit(isa.Inst{Op: isa.SLLI, Rd: 2, Rs1: 2, Imm: 2})
			if g.r.intn(2) == 0 {
				g.emit(isa.Inst{Op: isa.LW, Rd: g.dataReg(), Rs1: 2})
			} else {
				g.emit(isa.Inst{Op: isa.SW, Rs1: 2, Rs2: g.srcReg()})
			}
		case x < 12:
			g.emit(isa.Inst{Op: isa.LDG, Rd: g.dataReg(), Rs1: g.srcReg(), Imm: int32(g.r.intn(256))})
		case x < 13:
			g.emit(isa.Inst{Op: isa.LDS, Rd: g.dataReg()})
		case x < 14:
			g.emit(isa.Inst{Op: isa.CSRR, Rd: g.dataReg(), Imm: genCSRs[g.r.intn(len(genCSRs))]})
		case x < 15 && bar:
			g.emit(isa.Inst{Op: isa.BAR})
			g.emit(isa.Inst{Op: isa.NOP}) // never HALT right after BAR
		case x < 17 && depth < maxDepth: // bounded loop
			rc := uint8(genLoopReg + depth)
			g.emit(isa.Inst{Op: isa.ADDI, Rd: rc, Imm: int32(1 + g.r.intn(6))})
			top := len(g.prog)
			g.block(depth+1, maxDepth, bar)
			g.emit(isa.Inst{Op: isa.ADDI, Rd: rc, Rs1: rc, Imm: -1})
			g.emit(isa.Inst{Op: isa.BNE, Rs1: rc, Imm: int32(top)})
		case x < 19 && depth < maxDepth: // data-dependent forward branch
			br := g.emit(isa.Inst{Op: genCond[g.r.intn(len(genCond))], Rs1: g.srcReg(), Rs2: g.srcReg()})
			g.block(depth+1, maxDepth, false)
			g.prog[br].Imm = int32(len(g.prog))
		case g.nsubs > 0 && !g.leaf:
			g.calls = append(g.calls, [2]int{len(g.prog), g.r.intn(g.nsubs)})
			g.emit(isa.Inst{Op: isa.JAL, Rd: genLink})
		default:
			j := g.emit(isa.Inst{Op: isa.J})
			g.prog[j].Imm = int32(len(g.prog))
		}
	}
}

// genKernel generates a valid kernel from seed: ALU, MUL, DIV, FPU and FDIV
// ops, in-bounds LW and SW, LDG and LDS, BAR, bounded loops, forward
// branches, J/JAL/JR, CSRR and HALT.
func genKernel(seed uint64) *isa.Program {
	g := &kernelGen{r: splitmix(seed)}
	g.nsubs = g.r.intn(3)
	for i, csr := range []int32{isa.CSRThreadID, isa.CSRContextID, isa.CSRCoreletID, isa.CSRNumThreads} {
		g.emit(isa.Inst{Op: isa.CSRR, Rd: uint8(8 + i), Imm: csr})
	}
	// Stream walker: address tid*256, stride 4, chunks of 3 words, +12 fixup.
	g.emit(isa.Inst{Op: isa.SLLI, Rd: isa.StreamAddr, Rs1: 8, Imm: 8})
	g.emit(isa.Inst{Op: isa.ADDI, Rd: isa.StreamStride, Imm: 4})
	g.emit(isa.Inst{Op: isa.ADDI, Rd: isa.StreamFix, Imm: 12})
	g.emit(isa.Inst{Op: isa.ADDI, Rd: isa.StreamChunk, Imm: 3})
	g.emit(isa.Inst{Op: isa.ADDI, Rd: isa.StreamCount, Imm: 3})
	for r := genFirstData; r < genFirstData+genDataRegs; r++ {
		g.emit(isa.Inst{Op: isa.ADDI, Rd: uint8(r), Rs1: uint8(8 + r%4), Imm: int32(g.r.intn(1000)) - 500})
	}
	g.block(0, 2, true)
	g.emit(isa.Inst{Op: isa.HALT})
	// Leaf subroutines: their loops use the third counter, and they return
	// through the link register.
	g.leaf = true
	entries := make([]int, g.nsubs)
	for i := range entries {
		entries[i] = len(g.prog)
		g.block(2, 3, false)
		g.emit(isa.Inst{Op: isa.JR, Rs1: genLink})
	}
	for _, call := range g.calls {
		g.prog[call[0]].Imm = int32(entries[call[1]])
	}
	return &isa.Program{Name: fmt.Sprintf("gen-%d", seed), Insts: g.prog}
}

// bmlaCase is BMLA kernel b over a Split layout at corelets x contexts with
// records records per thread, from the real seeded dataset.
func bmlaCase(t testing.TB, b *workloads.Benchmark, corelets, contexts, records int, seed uint64) fuzzCase {
	threads := corelets * contexts
	lay := layout.Layout{RowBytes: 4 * threads, Corelets: corelets, Contexts: contexts,
		Interleave: layout.Split, StreamWords: b.StreamWords(records)}
	const localBytes = 16384
	sl, err := kernels.LocalState(b.K, localBytes, contexts)
	if err != nil {
		t.Fatal(err)
	}
	image, err := lay.Pack(b.Streams(threads, records, seed))
	if err != nil {
		t.Fatal(err)
	}
	return fuzzCase{
		prog: b.K.Prog, corelets: corelets, contexts: contexts, localBytes: localBytes,
		args: kernels.ArgsAndConsts(b.K, lay.Walk(), sl, records),
		read: func(addr uint32) uint32 {
			if i := int(addr / 4); i < len(image) {
				return image[i]
			}
			return 0
		},
		seed: seed,
	}
}

// hashRead is the functional reader for generated kernels.
func hashRead(addr uint32) uint32 {
	s := splitmix(addr)
	return uint32(s.next())
}

// FuzzAdvanceMatchesLockstep runs one cluster through Tick (run-ahead) and
// a twin through the lockstep sweep, behind identical seeded ports and
// barrier coordinators, and requires the same port accesses (cycle,
// corelet, context, address), barrier arrivals, statistics and final state.
// kernel selects the program: 0 generates one from seed, 1..8 is a BMLA
// kernel over its real dataset. Geometries span 1-40 corelets and 1-12
// contexts, both sides of the burst loop's context bound. The run-ahead
// cluster also skips dead ticks at random cycles through
// NextWorkTicks/SkipTicks, and so does a second lockstep twin, so both skip
// paths are checked against the per-tick sweep.
func FuzzAdvanceMatchesLockstep(f *testing.F) {
	for i := range workloads.All() {
		f.Add(uint64(i+1), uint8(31), uint8(3), uint8(i+1)) // 32x4
	}
	for _, s := range []uint64{1, 2, 3, 7, 42, 99, 1234, 5555, 31337, 271828} {
		f.Add(s, uint8(s%40), uint8(s/7%8), uint8(0))
	}
	// Generated kernels on 4 corelets whose bursts both pick past a
	// round-robin successor still covering a DIV or FDIV latency and start
	// with a sibling halted and none waiting (a ready mask short of full):
	// seeds 198 and 92 at the default 4 contexts, 21 at 2. Seed 198 also
	// runs at 12 contexts, past burstContexts, where every corelet steps in
	// lockstep.
	f.Add(uint64(198), uint8(3), uint8(3), uint8(0))
	f.Add(uint64(92), uint8(3), uint8(3), uint8(0))
	f.Add(uint64(21), uint8(3), uint8(1), uint8(0))
	f.Add(uint64(198), uint8(3), uint8(11), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, corelets, contexts, kernel uint8) {
		nc, nk := int(corelets)%40+1, int(contexts)%12+1
		var fc fuzzCase
		if k := int(kernel) % 9; k > 0 {
			fc = bmlaCase(t, workloads.All()[k-1], nc, nk, 2, seed)
		} else {
			fc = fuzzCase{prog: genKernel(seed), corelets: nc, contexts: nk,
				localBytes: genLocalWords * 4, read: hashRead, seed: seed}
		}
		ref := newRig(t, fc, lockstepTick)
		ref.run(t, nil)
		probes := splitmix(seed ^ 0x5EED)
		ahead := newRig(t, fc, (*Cluster).Tick)
		ahead.run(t, &probes)
		requireSameRun(t, "run-ahead", ahead, ref)
		probes = splitmix(seed ^ 0x5EED)
		skip := newRig(t, fc, lockstepTick)
		skip.run(t, &probes)
		requireSameRun(t, "lockstep with skipping", skip, ref)
		// Parked runs behind a port that keeps the parking contract: ticks
		// of 1 to 4 cycles, epochs of 1 to 24 ticks.
		g := splitmix(seed ^ 0xBA11)
		width, maxGap := int64(1+g.intn(4)), 1+g.intn(24)
		parkedRig := func(parked bool) *rig {
			r := newRig(t, fc, nil)
			r.park = newParkPlan(r.cl, seed^0x6A95, width, maxGap)
			r.tick = r.park.lockstepWide
			if parked {
				r.tick = r.park.parkedTick
			}
			r.run(t, nil)
			return r
		}
		pref, parked := parkedRig(false), parkedRig(true)
		requireSameRun(t, "parked", parked, pref)
		if !reflect.DeepEqual(parked.park.retries, pref.park.retries) {
			t.Fatalf("parked: per-context retries %v, lockstep %v", clip(parked.park.retries), clip(pref.park.retries))
		}
	})
}

// parkPort leaves every access Pending and keeps the wakes for the test to
// fire.
type parkPort struct{ wakes []func() }

func (p *parkPort) Read(ctx int, addr uint32, ready func()) Status {
	p.wakes = append(p.wakes, ready)
	return Pending
}

// runToFault ticks cl until it halts, panics or passes cycle 1000, firing
// the parked wakes just before tick wakeAt, and returns the recovered panic
// value and the cluster cycle it surfaced at.
func runToFault(cl *Cluster, tick func(*Cluster), port *parkPort, wakeAt int64) (v any, at int64) {
	defer func() {
		v, at = recover(), cl.now
	}()
	for cl.now < 1000 && !cl.Halted() {
		if cl.now+1 == wakeAt {
			for _, w := range port.wakes {
				w()
			}
		}
		tick(cl)
	}
	return nil, cl.now
}

// TestRunAheadFaultsMatchLockstep: corelet 1 faults at cycle 50, inside a
// local-only stretch it could run ahead through, while corelet 0 faults at
// cycle 40 after its load's memory wake. The run-ahead sweep must surface
// the same fault as the lockstep sweep at the same cycle — corelet 0's —
// for every kind of fault corelet 1 meets; and with corelet 0 left parked,
// both must surface corelet 1's fault at cycle 50.
//
// At 2 and 4 contexts per corelet, corelet 1's contexts fork: its lead
// context (context 1, which issues first) runs the stretch and the faulting
// tail while its siblings spin in registers, runnable throughout. Each
// context issues once every nk cycles with no bubble, so a lead issues its
// i-th instruction at cycle nk*i+1: corelet 0's lead faults at cycle 39+nk,
// and corelet 1's with its siblings ready to issue, so the burst loop must
// stop exactly there, leaving lockstep the faulting context's pick.
func TestRunAheadFaultsMatchLockstep(t *testing.T) {
	const beyond = 1 << 20 // past any local memory
	cases := []struct {
		name string
		// stretch is how many 1-cycle ALU ops corelet 1 issues, from cycle
		// 4, before its faulting tail.
		stretch int
		tail    []isa.Inst
	}{
		{"local out of bounds", 45, []isa.Inst{{Op: isa.LUI, Rd: 3, Imm: beyond >> 12}, {Op: isa.LW, Rd: 4, Rs1: 3}}},
		{"JR past the program", 43, []isa.Inst{{Op: isa.ADDI, Rd: 3, Imm: 1000}, {Op: isa.JR, Rs1: 3}}},
		{"STG", 46, []isa.Inst{{Op: isa.STG}}},
		{"unknown CSR", 46, []isa.Inst{{Op: isa.CSRR, Rd: 4, Imm: 99}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := []isa.Inst{
				{Op: isa.CSRR, Rd: 1, Imm: isa.CSRCoreletID}, // cycle 1
				{Op: isa.BNE, Rs1: 1, Imm: 6},                // cycle 2; corelet 1 branches
				{Op: isa.LDG, Rd: 2},                         // corelet 0, cycle 3: parks
				{Op: isa.LUI, Rd: 3, Imm: beyond >> 12},      // cycle 39, after the wake
				{Op: isa.LW, Rd: 4, Rs1: 3},                  // cycle 40: faults
				{Op: isa.HALT},
			}
			for i := 0; i < tc.stretch; i++ {
				prog = append(prog, isa.Inst{Op: isa.ADDI, Rd: 5, Rs1: 5, Imm: 1})
			}
			prog = append(append(prog, tc.tail...), isa.Inst{Op: isa.HALT})
			code, err := Decode(&isa.Program{Name: tc.name, Insts: prog}, DefaultLatencies())
			if err != nil {
				t.Fatal(err)
			}
			contexts := 1
			run := func(tick func(*Cluster), wakeAt int64) (any, int64) {
				port := &parkPort{}
				cl, err := NewCluster(Config{Corelets: 2, Contexts: contexts, LocalBytes: 4096,
					Latencies: DefaultLatencies()}, code, []GlobalPort{port, port}, hashRead)
				if err != nil {
					t.Fatal(err)
				}
				return runToFault(cl, tick, port, wakeAt)
			}
			check := func(wakeAt, at int64, corelet int) {
				t.Helper()
				want, wantAt := run(lockstepTick, wakeAt)
				got, gotAt := run((*Cluster).Tick, wakeAt)
				if wantAt != at || want == nil {
					t.Fatalf("%d contexts: lockstep fault %v at cycle %d, want one at cycle %d", contexts, want, wantAt, at)
				}
				if lf, ok := want.(localFault); corelet == 0 && (!ok || lf.c != 0) {
					t.Fatalf("%d contexts: lockstep fault %v does not name corelet 0", contexts, want)
				}
				if !reflect.DeepEqual(got, want) || gotAt != wantAt {
					t.Fatalf("%d contexts: run-ahead fault %v at cycle %d, lockstep %v at cycle %d", contexts, got, gotAt, want, wantAt)
				}
			}
			for _, c := range []struct {
				wakeAt, at int64
				corelet    int
			}{{39, 40, 0}, {-1, 50, 1}} {
				check(c.wakeAt, c.at, c.corelet)
			}
			fork := append(append([]isa.Inst{}, prog[:6]...),
				isa.Inst{Op: isa.CSRR, Rd: 6, Imm: isa.CSRContextID}, // 6: corelet 1
				isa.Inst{Op: isa.ADDI, Rd: 7, Imm: 1},
				isa.Inst{Op: isa.BEQ, Rs1: 6, Rs2: 7, Imm: 11}, // the lead runs on
				isa.Inst{Op: isa.ADDI, Rd: 5, Rs1: 5, Imm: 1},  // 9: siblings spin
				isa.Inst{Op: isa.J, Imm: 9})
			if code, err = Decode(&isa.Program{Name: tc.name, Insts: append(fork, prog[6:]...)}, DefaultLatencies()); err != nil {
				t.Fatal(err)
			}
			// Corelet 1's lead faults at the issue-th instruction it issues
			// (from 0): the tail's last, or after a JR the fetch that
			// follows it.
			issue := int64(5 + tc.stretch + len(tc.tail) - 1)
			if tc.tail[len(tc.tail)-1].Op == isa.JR {
				issue++
			}
			for _, contexts = range []int{2, 4} {
				nk := int64(contexts)
				check(39, 39+nk, 0)
				check(-1, nk*issue+1, 1)
			}
		})
	}
}

// clusterDomain registers a cluster with a sim.Engine the way a processor
// does, quiescence protocol included.
type clusterDomain struct {
	cl   *Cluster
	tick func(*Cluster)
	d    *sim.Domain
}

func (x *clusterDomain) Tick(sim.Time) { x.tick(x.cl) }

func (x *clusterDomain) NextWork(sim.Time) sim.Time {
	n := x.cl.NextWorkTicks()
	if n == NeverTicks {
		return sim.Never
	}
	return x.d.TimeOfTick(uint64(x.cl.now + n))
}

func (x *clusterDomain) SkipTicks(n int64) { x.cl.SkipTicks(n) }

// quietDomain is a memory domain with nothing to do.
type quietDomain struct{}

func (quietDomain) Tick(sim.Time)              {}
func (quietDomain) NextWork(sim.Time) sim.Time { return sim.Never }
func (quietDomain) SkipTicks(int64)            {}

// TestRunAheadSpinHitsTimeLimit: a kernel that spins in registers forever
// must end in the engine's time-limit error with the same text and time as
// the lockstep sweep, skipping on or off, and a burst never runs more than
// runAheadHorizon cycles past the sweep.
func TestRunAheadSpinHitsTimeLimit(t *testing.T) {
	prog := &isa.Program{Name: "spin", Insts: []isa.Inst{
		{Op: isa.ADDI, Rd: 5, Rs1: 5, Imm: 1},
		{Op: isa.MUL, Rd: 6, Rs1: 5, Rs2: 5},
		{Op: isa.J, Imm: 0},
	}}
	code, err := Decode(prog, DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	const limit = 2 * sim.Millisecond
	run := func(tick func(*Cluster), skip bool) string {
		cl, err := NewCluster(Config{Corelets: 3, Contexts: 2, LocalBytes: 4096,
			Latencies: DefaultLatencies()}, code, []GlobalPort{&parkPort{}, &parkPort{}, &parkPort{}}, hashRead)
		if err != nil {
			t.Fatal(err)
		}
		e := sim.NewEngine()
		e.SetSkip(skip)
		if _, err := e.AddDomain("mem", sim.PeriodFromHz(1.2e9), quietDomain{}); err != nil {
			t.Fatal(err)
		}
		x := &clusterDomain{cl: cl, tick: tick}
		if x.d, err = e.AddDomain("compute", sim.PeriodFromHz(700e6), x); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		at, err := e.Run(limit, cl.Halted)
		if err == nil {
			t.Fatalf("spin ended without an error at t=%d", at)
		}
		if wall := time.Since(start); wall > 20*time.Second {
			t.Fatalf("spin took %v of wall time", wall)
		}
		for c := range cl.cores {
			if ahead := cl.cores[c].cycle - cl.now; ahead > runAheadHorizon {
				t.Fatalf("corelet %d ran %d cycles ahead, horizon %d", c, ahead, runAheadHorizon)
			}
		}
		return fmt.Sprintf("t=%d: %v", at, err)
	}
	want := run(lockstepTick, false)
	if !strings.Contains(want, "time limit") {
		t.Fatalf("lockstep spin: %s", want)
	}
	for _, skip := range []bool{false, true} {
		if got := run((*Cluster).Tick, skip); got != want {
			t.Errorf("run-ahead (skip %v): %s, lockstep: %s", skip, got, want)
		}
		if got := run(lockstepTick, skip); got != want {
			t.Errorf("lockstep (skip %v): %s, lockstep without skipping: %s", skip, got, want)
		}
	}
}
