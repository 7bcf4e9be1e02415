// Package kernels contains the eight BMLA benchmark kernels of Table II,
// written in the repository's assembly dialect, plus the launch conventions
// (argument block, state addressing) that make one kernel binary run
// unchanged on every architecture model.
//
// Layout portability: a kernel never hard-codes the data layout. The host
// passes the stream-walk parameters (layout.Walk) and the live-state
// addressing parameters in the argument block; the same code then walks
// slab-interleaved rows on Millipede, contiguous splits on SSMC and the
// multicore, and word-interleaved rows on the GPGPU, and addresses its
// per-thread state in corelet-local SRAM (stride 4) or in banked shared
// memory (stride 128, so lane i stays in bank i — Section III-E).
//
// The kernels are generated Go strings: fixed-dimension loops are unrolled
// exactly as a tuned CUDA kernel would be, which is what gives each
// benchmark its Table IV character (instructions per input word, branch
// frequency, data-dependent divergence).
package kernels

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/layout"
)

// Argument-block word indices (local/shared memory address = index*4).
const (
	ArgStreamBase  = 0  // byte address of the input region
	ArgCoreletMult = 1  // walk: corelet contribution to the first-word address
	ArgContextMult = 2  // walk: context contribution
	ArgStride      = 3  // walk: byte step between stream words
	ArgRowFix      = 4  // walk: extra byte step at chunk boundaries (RowStep - Stride)
	ArgChunkWords  = 5  // walk: words per chunk
	ArgRecords     = 6  // records per thread
	ArgStateShift  = 7  // log2 of the state element stride in bytes (2 local, 7 shared)
	ArgStateCMult  = 8  // state: corelet contribution to the state base
	ArgStateXMult  = 9  // state: context contribution
	ArgStateBase   = 10 // state: byte address of thread-state partitions
	ArgConstBase   = 11 // byte address of the read-only constants area
	ArgK0          = 12 // kernel-specific scalars
	ArgK1          = 13
	ArgK2          = 14
	ArgK3          = 15
	ArgWords       = 16
)

// Register conventions established by the prologue. Kernels may use
// r11..r23 freely.
//
//	r1  current stream word address     r8  records remaining
//	r4  stride                          r9  thread state base (bytes)
//	r5  row fixup (RowStep - Stride)    r10 constants base (bytes)
//	r6  chunk words                     r24 state element stride (1<<shift)
//	r7  chunk countdown                 r25 state shift
//	r26..r28 K0..K2                     r2, r3 prologue scratch
type conventions struct{} // documentation anchor

// Prologue returns the common kernel entry: it computes the thread's first
// stream address and state base from the argument block and CSRs, and jumps
// to "theend" (which every kernel must define before halt) when the thread
// has no records.
func Prologue() string {
	return `
	lw   r1, 0(r0)          ; stream base
	csrr r2, coreletid
	lw   r3, 4(r0)
	mul  r2, r2, r3
	add  r1, r1, r2
	csrr r2, contextid
	lw   r3, 8(r0)
	mul  r2, r2, r3
	add  r1, r1, r2
	lw   r4, 12(r0)         ; stride
	lw   r5, 16(r0)         ; row fixup
	lw   r6, 20(r0)         ; chunk words
	mv   r7, r6
	lw   r8, 24(r0)         ; records per thread
	lw   r25, 28(r0)        ; state shift
	lw   r9, 40(r0)         ; state base0
	csrr r2, coreletid
	lw   r3, 32(r0)
	mul  r2, r2, r3
	add  r9, r9, r2
	csrr r2, contextid
	lw   r3, 36(r0)
	mul  r2, r2, r3
	add  r9, r9, r2
	lw   r10, 44(r0)        ; const base
	li   r2, 1
	sll  r24, r2, r25       ; state element stride
	lw   r26, 48(r0)        ; K0
	lw   r27, 52(r0)        ; K1
	lw   r28, 56(r0)        ; K2
	beqz r8, theend
`
}

// NextWord emits the stream load: the lds instruction reads the next input
// word and advances the hardware stream walker (address += stride, with the
// row fixup at chunk boundaries) in the load unit, so streaming costs one
// instruction per word on every architecture.
func NextWord(dst string) string {
	return fmt.Sprintf("\tlds  %s\n", dst)
}

// Kernel bundles a benchmark's code and its state/constant geometry.
type Kernel struct {
	Name        string
	Source      string
	Prog        *isa.Program
	RecordWords int
	StateWords  int      // per-thread live state words
	Consts      []uint32 // read-only constants placed at ArgConstBase
	// K0..K3 scalar arguments.
	K [4]uint32
}

func build(name, body string, recordWords, stateWords int, consts []uint32, k [4]uint32) *Kernel {
	src := Prologue() + body
	return &Kernel{
		Name:        name,
		Source:      src,
		Prog:        assemble(name, src),
		RecordWords: recordWords,
		StateWords:  stateWords,
		Consts:      consts,
		K:           k,
	}
}

// progKey identifies one assembled kernel.
type progKey struct{ name, src string }

// progs memoizes assembled kernels. Every kernel body is a fixed string (a
// kernel's centroids travel in Consts and its scalars in K), so the memo
// holds one entry per kernel body, and a constructor called again returns a
// Kernel sharing the first call's Program. Sharing is safe: nothing outside
// internal/asm writes a Program's Insts, Labels or ReconvPC.
var progs = struct {
	sync.Mutex
	m map[progKey]*isa.Program
}{m: map[progKey]*isa.Program{}}

// assemble returns the memoized program for src, assembling it on first use.
func assemble(name, src string) *isa.Program {
	progs.Lock()
	defer progs.Unlock()
	k := progKey{name, src}
	p, ok := progs.m[k]
	if !ok {
		p = asm.MustAssemble(name, src)
		progs.m[k] = p
	}
	return p
}

// StateLayout describes where thread state lives in local/shared memory.
type StateLayout struct {
	Shift       int    // log2 element stride in bytes
	CoreletMult uint32 // byte contribution of the corelet/lane index
	ContextMult uint32 // byte contribution of the context/warp index
	Base0       uint32 // byte address of the first partition
	ConstBase   uint32 // byte address of constants
}

// LocalState lays out args + constants + per-context state partitions in a
// corelet's private local memory (Millipede, SSMC, multicore): element
// stride 4, contexts side by side, corelets independent.
func LocalState(k *Kernel, localBytes, contexts int) (StateLayout, error) {
	constBase := ArgWords * 4
	base0 := constBase + len(k.Consts)*4
	need := base0 + contexts*k.StateWords*4
	if need > localBytes {
		return StateLayout{}, fmt.Errorf("kernels: %s needs %d B local state, have %d", k.Name, need, localBytes)
	}
	return StateLayout{
		Shift:       2,
		CoreletMult: 0,
		ContextMult: uint32(k.StateWords * 4),
		Base0:       uint32(base0),
		ConstBase:   uint32(constBase),
	}, nil
}

// SharedState lays out args + constants + per-thread state in a GPGPU SM's
// banked shared memory: the element stride is one full lane row (lanes x
// 4 B; 128 bytes for the Table III SM) so that lane i's state always lives
// in bank i mod 32, giving conflict-free irregular access (Section III-E).
// Base0 is rounded to the lane-row boundary to keep the lane->bank
// identity. The lane count must be a power of two so the stride is a shift.
func SharedState(k *Kernel, sharedBytes, lanes, warps int) (StateLayout, error) {
	if lanes <= 0 || lanes&(lanes-1) != 0 {
		return StateLayout{}, fmt.Errorf("kernels: lane count %d not a power of two", lanes)
	}
	elem := lanes * 4
	shift := 0
	for 1<<shift < elem {
		shift++
	}
	constBase := ArgWords * 4
	base0 := constBase + len(k.Consts)*4
	if r := base0 % elem; r != 0 {
		base0 += elem - r
	}
	need := base0 + warps*k.StateWords*elem
	if need > sharedBytes {
		return StateLayout{}, fmt.Errorf("kernels: %s needs %d B shared state, have %d", k.Name, need, sharedBytes)
	}
	return StateLayout{
		Shift:       shift,
		CoreletMult: 4, // lane i -> bank i mod 32
		ContextMult: uint32(k.StateWords * elem),
		Base0:       uint32(base0),
		ConstBase:   uint32(constBase),
	}, nil
}

// Args assembles the full argument block for one launch.
func Args(k *Kernel, w layout.Walk, sl StateLayout, recordsPerThread int) []uint32 {
	a := make([]uint32, ArgWords)
	a[ArgStreamBase] = 0
	a[ArgCoreletMult] = uint32(w.CoreletMult)
	a[ArgContextMult] = uint32(w.ContextMult)
	a[ArgStride] = uint32(w.Stride)
	a[ArgRowFix] = uint32(w.RowStep - w.Stride)
	a[ArgChunkWords] = uint32(w.ChunkWords)
	a[ArgRecords] = uint32(recordsPerThread)
	a[ArgStateShift] = uint32(sl.Shift)
	a[ArgStateCMult] = sl.CoreletMult
	a[ArgStateXMult] = sl.ContextMult
	a[ArgStateBase] = sl.Base0
	a[ArgConstBase] = sl.ConstBase
	a[ArgK0] = k.K[0]
	a[ArgK1] = k.K[1]
	a[ArgK2] = k.K[2]
	return a
}

// ArgsAndConsts returns the argument block followed by the constants, i.e.
// the full image to write at local/shared address 0 before launch.
func ArgsAndConsts(k *Kernel, w layout.Walk, sl StateLayout, recordsPerThread int) []uint32 {
	a := Args(k, w, sl, recordsPerThread)
	return append(a, k.Consts...)
}

// --- Benchmark kernels ----------------------------------------------------

// Geometry shared with the workload generators.
const (
	CountBins    = 16 // rating>>4 over [0,256)
	RatingMax    = 256
	CountThresh  = 128 // data-dependent filter: the paper's ~70/30 split
	SampleProb16 = 6   // sample if 4-bit hash < 6 (~37%)
	SampleRing   = 4   // ring slots per bin
	NBDims       = 8
	NBValues     = 8 // per-dimension value range
	NBClasses    = 2
	NBYearThresh = 2000
	NBYearMax    = 2010
	NBYearMin    = 1980
	ClassifyDims = 8
	ClassifyK    = 8
	KMeansDims   = 8
	KMeansK      = 8
	PCADims      = 12
	GDADims      = 14
	GDAClasses   = 2
	hashConst    = 0x9E3779B1
)

// Count is Table II's aggregation "Count": ratings are split by a
// data-dependent threshold (the paper's ~70/30 branch) into two separate
// histograms — the two-sided divergence that makes SIMD/SIMT execution
// inefficient on BMLAs (Section III). State: 2 x CountBins counters.
func Count() *Kernel {
	body := `
loop:
` + NextWord("r11") + `
	srli r12, r11, 4        ; bin
	blt  r11, r26, lowband  ; data-dependent two-sided branch (~70/30)
	sll  r12, r12, r25
	add  r12, r12, r9
	lw   r13, 0(r12)
	addi r13, r13, 1
	sw   r13, 0(r12)
	j    next
lowband:
	; the cold band additionally tracks the running value sum, so the two
	; paths do different amounts of work -- the record-processing
	; variability that makes MIMD cores stray (Section IV-C)
	addi r12, r12, 16       ; low-band histogram region
	sll  r12, r12, r25
	add  r12, r12, r9
	lw   r13, 0(r12)
	addi r13, r13, 1
	sw   r13, 0(r12)
	addi r12, r12, 0
	li   r14, 32
	sll  r14, r14, r25
	add  r14, r14, r9       ; low-band sum cell (index 32)
	lw   r13, 0(r14)
	add  r13, r13, r11
	sw   r13, 0(r14)
next:
	addi r8, r8, -1
	bnez r8, loop
theend:
	halt
`
	return build("count", body, 1, 2*CountBins+1, nil, [4]uint32{CountThresh})
}

// CountBarrier is Count with a software barrier every interval records —
// the paper's Section IV-C ablation: record-granularity barriers push MIMD
// toward SIMD-like lockstep (interval 1), while coarse Map-task-granularity
// barriers are too infrequent to prevent premature evictions (large
// intervals behave like Millipede-no-flow-control). K1 carries the
// interval; the live state and results are identical to Count.
func CountBarrier(interval int) *Kernel {
	if interval <= 0 {
		panic("kernels: barrier interval must be positive")
	}
	body := `
	mv   r29, r27           ; barrier countdown (K1)
loop:
` + NextWord("r11") + `
	srli r12, r11, 4        ; bin
	blt  r11, r26, lowband
	sll  r12, r12, r25
	add  r12, r12, r9
	lw   r13, 0(r12)
	addi r13, r13, 1
	sw   r13, 0(r12)
	j    next
lowband:
	addi r12, r12, 16
	sll  r12, r12, r25
	add  r12, r12, r9
	lw   r13, 0(r12)
	addi r13, r13, 1
	sw   r13, 0(r12)
	li   r14, 32
	sll  r14, r14, r25
	add  r14, r14, r9
	lw   r13, 0(r14)
	add  r13, r13, r11
	sw   r13, 0(r14)
next:
	addi r29, r29, -1
	bnez r29, nobar
	bar
	mv   r29, r27
nobar:
	addi r8, r8, -1
	bnez r8, loop
theend:
	halt
`
	k := build("count-barrier", body, 1, 2*CountBins+1, nil,
		[4]uint32{CountThresh, uint32(interval)})
	return k
}

// Sample is "Sample Selection": rare (cold-band) ratings are kept in small
// per-bin rings while popular ones are only counted — the keep-the-tail
// sampling common in analytics pipelines. The band branch is data-dependent
// and two-sided with asymmetric work. State per bin: count + SampleRing
// elements, plus a hot-band count region.
func Sample() *Kernel {
	body := `
loop:
` + NextWord("r11") + `	blt  r11, r26, keep     ; cold band: keep (~30%, bursty)
	srli r13, r11, 4
	addi r13, r13, 80       ; hot-band count region
	sll  r13, r13, r25
	add  r13, r13, r9
	lw   r15, 0(r13)
	addi r15, r15, 1
	sw   r15, 0(r13)
	j    next
keep:
	srli r13, r11, 4        ; bin
	slli r14, r13, 2
	add  r14, r14, r13      ; bin * 5 (count + ring)
	sll  r14, r14, r25
	add  r14, r14, r9
	lw   r15, 0(r14)
	addi r15, r15, 1
	sw   r15, 0(r14)
	addi r16, r15, -1
	rem  r16, r16, r27      ; ring slot
	addi r16, r16, 1
	sll  r16, r16, r25
	add  r16, r16, r14
	sw   r11, 0(r16)
next:
	addi r8, r8, -1
	bnez r8, loop
theend:
	halt
`
	return build("sample", body, 1, CountBins*(1+SampleRing)+CountBins, nil,
		[4]uint32{CountThresh, SampleRing})
}

// Variance is "Statistics – variance": per-bin count, sum, sum of squares.
func Variance() *Kernel {
	body := `
loop:
` + NextWord("r11") + `
	srli r12, r11, 4
	slli r13, r12, 1
	add  r13, r13, r12      ; bin*3
	sll  r13, r13, r25
	add  r13, r13, r9
	lw   r14, 0(r13)
	addi r14, r14, 1
	sw   r14, 0(r13)        ; count++
	add  r13, r13, r24
	lw   r14, 0(r13)
	add  r14, r14, r11
	sw   r14, 0(r13)        ; sum += x
	add  r13, r13, r24
	lw   r14, 0(r13)
	mul  r15, r11, r11
	add  r14, r14, r15
	sw   r14, 0(r13)        ; sumsq += x*x
	addi r8, r8, -1
	bnez r8, loop
theend:
	halt
`
	return build("variance", body, 1, CountBins*3, nil, nil2())
}

func nil2() [4]uint32 { return [4]uint32{} }

// NBayes is Table I's Naive Bayes walk-through: a data-dependent class
// branch on the year, then per-dimension indirect conditional-probability
// increments. State: Cprob[NBDims][NBValues][NBClasses] ++ classCount[2].
func NBayes() *Kernel {
	var b strings.Builder
	b.WriteString("\nloop:\n")
	b.WriteString(NextWord("r11")) // year
	b.WriteString(fmt.Sprintf(`	li   r12, 0
	ble  r11, r26, cls0     ; class = year > threshold (data-dependent)
	li   r12, 1
cls0:
`))
	for d := 0; d < NBDims; d++ {
		b.WriteString(NextWord("r13"))
		b.WriteString(fmt.Sprintf(`	slli r14, r13, 1
	add  r14, r14, r12      ; x*2 + class
	addi r14, r14, %d
	sll  r14, r14, r25
	add  r14, r14, r9
	lw   r15, 0(r14)
	addi r15, r15, 1
	sw   r15, 0(r14)
`, d*NBValues*NBClasses))
	}
	b.WriteString(fmt.Sprintf(`	addi r14, r12, %d
	sll  r14, r14, r25
	add  r14, r14, r9
	lw   r15, 0(r14)
	addi r15, r15, 1
	sw   r15, 0(r14)        ; classCount[class]++
	addi r8, r8, -1
	bnez r8, loop
theend:
	halt
`, NBDims*NBValues*NBClasses))
	state := NBDims*NBValues*NBClasses + NBClasses
	return build("nbayes", b.String(), 1+NBDims, state, nil, [4]uint32{NBYearThresh})
}

// Classify is "supervised classification via Euclidean distance": assign
// each point to the nearest of K constant centroids and count assignments.
// The centroid coordinates are read-only constants; the per-centroid
// distance code is fully unrolled, leaving only the data-dependent
// best-so-far branches (the paper's low branch frequency, high insts/word).
func Classify(centroids [][]float32) *Kernel {
	if len(centroids) != ClassifyK || len(centroids[0]) != ClassifyDims {
		panic("kernels: classify centroids must be KxDims")
	}
	var b strings.Builder
	b.WriteString("\nloop:\n")
	for d := 0; d < ClassifyDims; d++ {
		b.WriteString(NextWord(fmt.Sprintf("r%d", 11+d))) // r11..r18
	}
	b.WriteString("	li   r19, 0\n	lif  r20, 3.0e38\n")
	for c := 0; c < ClassifyK; c++ {
		b.WriteString("	li   r21, 0\n")
		for d := 0; d < ClassifyDims; d++ {
			b.WriteString(fmt.Sprintf(`	lw   r22, %d(r10)
	fsub r22, r%d, r22
	fmul r22, r22, r22
	fadd r21, r21, r22
`, (c*ClassifyDims+d)*4, 11+d))
		}
		b.WriteString(fmt.Sprintf(`	flt  r22, r21, r20
	beqz r22, nb%d          ; data-dependent best-update
	mv   r20, r21
	li   r19, %d
nb%d:
`, c, c, c))
	}
	b.WriteString(`	sll  r14, r19, r25
	add  r14, r14, r9
	lw   r15, 0(r14)
	addi r15, r15, 1
	sw   r15, 0(r14)        ; count[best]++
	addi r8, r8, -1
	bnez r8, loop
theend:
	halt
`)
	return build("classify", b.String(), ClassifyDims, ClassifyK, packFloats(centroids), nil2())
}

// KMeans is one iteration of unsupervised k-means clustering: nearest
// centroid, then accumulate the point into that centroid's running sum.
// State: counts[K] then sums[K][Dims].
func KMeans(centroids [][]float32) *Kernel {
	if len(centroids) != KMeansK || len(centroids[0]) != KMeansDims {
		panic("kernels: kmeans centroids must be KxDims")
	}
	var b strings.Builder
	b.WriteString("\nloop:\n")
	for d := 0; d < KMeansDims; d++ {
		b.WriteString(NextWord(fmt.Sprintf("r%d", 11+d)))
	}
	b.WriteString("	li   r19, 0\n	lif  r20, 3.0e38\n")
	for c := 0; c < KMeansK; c++ {
		b.WriteString("	li   r21, 0\n")
		for d := 0; d < KMeansDims; d++ {
			b.WriteString(fmt.Sprintf(`	lw   r22, %d(r10)
	fsub r22, r%d, r22
	fmul r22, r22, r22
	fadd r21, r21, r22
`, (c*KMeansDims+d)*4, 11+d))
		}
		b.WriteString(fmt.Sprintf(`	flt  r22, r21, r20
	beqz r22, nb%d
	mv   r20, r21
	li   r19, %d
nb%d:
`, c, c, c))
	}
	// count[best]++, then sums[best][d] += x[d]. The walker uses r21/r22:
	// r11..r18 still hold the record's coordinates.
	b.WriteString(fmt.Sprintf(`	sll  r21, r19, r25
	add  r21, r21, r9
	lw   r22, 0(r21)
	addi r22, r22, 1
	sw   r22, 0(r21)
	slli r21, r19, 3        ; best * Dims
	addi r21, r21, %d       ; + counts area
	sll  r21, r21, r25
	add  r21, r21, r9
`, KMeansK))
	for d := 0; d < KMeansDims; d++ {
		b.WriteString(fmt.Sprintf(`	lw   r22, 0(r21)
	fadd r22, r22, r%d
	sw   r22, 0(r21)
	add  r21, r21, r24
`, 11+d))
	}
	b.WriteString(`	addi r8, r8, -1
	bnez r8, loop
theend:
	halt
`)
	return build("kmeans", b.String(), KMeansDims, KMeansK+KMeansK*KMeansDims,
		packFloats(centroids), nil2())
}

// PCA accumulates the mean vector and the full second-moment matrix of
// 12-dimensional points (dimensionality reduction's data pass). State:
// mean[D], cov[D][D], scratch[D] (the current record, kept in state so the
// inner product loop can re-read coordinates; after the run it holds the
// thread's last record, which the golden reference reproduces).
func PCA() *Kernel {
	d := PCADims
	covBase := d
	scratchBase := d + d*d
	var b strings.Builder
	b.WriteString(fmt.Sprintf(`
loop:
	mv   r14, r9            ; mean walker
	li   r2, %d
	sll  r2, r2, r25
	add  r15, r9, r2        ; scratch walker
	li   r13, %d
dl:
%s	lw   r16, 0(r14)
	fadd r16, r16, r11
	sw   r16, 0(r14)
	add  r14, r14, r24
	sw   r11, 0(r15)
	add  r15, r15, r24
	addi r13, r13, -1
	bnez r13, dl
	; second-moment accumulation: cov[i][j] += x[i]*x[j]
	li   r2, %d
	sll  r2, r2, r25
	add  r14, r9, r2        ; cov walker
	li   r2, %d
	sll  r2, r2, r25
	add  r17, r9, r2        ; xi walker
	li   r13, %d            ; i counter
il:
	lw   r16, 0(r17)        ; xi
	add  r17, r17, r24
	li   r2, %d
	sll  r2, r2, r25
	add  r18, r9, r2        ; xj walker
`, scratchBase, d, NextWord("r11"), covBase, scratchBase, d, scratchBase))
	for j := 0; j < d; j++ {
		b.WriteString(`	lw   r19, 0(r18)
	add  r18, r18, r24
	fmul r19, r19, r16
	lw   r20, 0(r14)
	fadd r20, r20, r19
	sw   r20, 0(r14)
	add  r14, r14, r24
`)
	}
	b.WriteString(`	addi r13, r13, -1
	bnez r13, il
	addi r8, r8, -1
	bnez r8, loop
theend:
	halt
`)
	return build("pca", b.String(), d, d+d*d+d, nil, nil2())
}

// GDA is supervised classification over continuous features (Gaussian
// discriminant analysis): per-class counts and running means, plus a pooled
// covariance of running-mean-centered coordinates. The per-class mean
// update is written as the natural if/else over the label — the
// "if-then-else constructs" alternative the paper discusses for Table I —
// which makes the class branch two-sided with a full per-dimension body on
// each side (and, with temporally clustered training labels, a source of
// cross-core work skew). State: counts[2], means[2][D], cov[D][D],
// scratch[D].
func GDA() *Kernel {
	d := GDADims
	meanBase := GDAClasses
	covBase := meanBase + GDAClasses*d
	scratchBase := covBase + d*d
	var b strings.Builder
	b.WriteString("\nloop:\n")
	b.WriteString(NextWord("r11")) // label
	b.WriteString(fmt.Sprintf(`	sll  r14, r11, r25
	add  r14, r14, r9
	lw   r15, 0(r14)
	addi r15, r15, 1
	sw   r15, 0(r14)        ; count[label]++
	cvtif r23, r15          ; new count as float
	li   r2, %d
	sll  r2, r2, r25
	add  r15, r9, r2        ; scratch walker
	bnez r11, class1        ; two-sided per-class mean update
	li   r12, %d
	sll  r12, r12, r25
	add  r12, r12, r9       ; class-0 mean walker
	li   r13, %d
d0:
%s	lw   r16, 0(r12)
	fadd r16, r16, r11
	sw   r16, 0(r12)
	fdiv r17, r16, r23
	fsub r17, r11, r17
	sw   r17, 0(r15)
	add  r12, r12, r24
	add  r15, r15, r24
	addi r13, r13, -1
	bnez r13, d0
	j    cov
class1:
	li   r12, %d
	sll  r12, r12, r25
	add  r12, r12, r9       ; class-1 mean walker
	li   r13, %d
d1:
%s	lw   r16, 0(r12)
	fadd r16, r16, r11
	sw   r16, 0(r12)
	fdiv r17, r16, r23
	fsub r17, r11, r17
	sw   r17, 0(r15)
	add  r12, r12, r24
	add  r15, r15, r24
	addi r13, r13, -1
	bnez r13, d1
cov:
	li   r2, %d
	sll  r2, r2, r25
	add  r14, r9, r2        ; cov walker
	li   r2, %d
	sll  r2, r2, r25
	add  r17, r9, r2        ; xi walker
	li   r13, %d
il:
	lw   r16, 0(r17)
	add  r17, r17, r24
	li   r2, %d
	sll  r2, r2, r25
	add  r18, r9, r2        ; xj walker
`, scratchBase, meanBase, d, NextWord("r11"), meanBase+d, d, NextWord("r11"),
		covBase, scratchBase, d, scratchBase))
	for j := 0; j < d; j++ {
		b.WriteString(`	lw   r19, 0(r18)
	add  r18, r18, r24
	fmul r19, r19, r16
	lw   r20, 0(r14)
	fadd r20, r20, r19
	sw   r20, 0(r14)
	add  r14, r14, r24
`)
	}
	b.WriteString(`	addi r13, r13, -1
	bnez r13, il
	addi r8, r8, -1
	bnez r8, loop
theend:
	halt
`)
	state := GDAClasses + GDAClasses*d + d*d + d
	return build("gda", b.String(), 1+d, state, nil, nil2())
}

// Join is the Section III-D anti-benchmark: an unindexed join of the input
// stream against a second table that exceeds the corelet-local memory. For
// every input key the kernel scans the whole table counting matches, so the
// second operand is re-read at high rate through demand fetches — the
// "not compact" case whose bandwidth cost no PNM architecture can hide.
// K0 = table words; K2 (via args) is unused; the table's byte address
// arrives in K1 at launch. State: match count + probe count.
func Join(tableWords int) *Kernel {
	if tableWords <= 0 {
		panic("kernels: table words must be positive")
	}
	body := `
loop:
` + NextWord("r11") + `
	lw   r12, 52(r0)        ; table base (K1, patched at launch)
	lw   r13, 48(r0)        ; table words (K0)
tl:
	ldg  r14, 0(r12)
	bne  r14, r11, nomatch
	lw   r15, 0(r9)
	addi r15, r15, 1
	sw   r15, 0(r9)         ; matches++
nomatch:
	addi r12, r12, 4
	addi r13, r13, -1
	bnez r13, tl
	add  r16, r9, r24       ; probes++ (state element 1)
	lw   r15, 0(r16)
	addi r15, r15, 1
	sw   r15, 0(r16)
	addi r8, r8, -1
	bnez r8, loop
theend:
	halt
`
	return build("join", body, 1, 2, nil, [4]uint32{uint32(tableWords)})
}

func packFloats(m [][]float32) []uint32 {
	var out []uint32
	for _, row := range m {
		for _, v := range row {
			out = append(out, isa.Bits(v))
		}
	}
	return out
}
