package workloads

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/kernels"
	"repro/internal/layout"
	"repro/internal/ssmc"
)

func testParams() arch.Params {
	p := arch.Default()
	p.Corelets = 8
	p.Contexts = 2
	p.PrefetchEntries = 8
	return p
}

func testRecords(b *Benchmark) int {
	if b.K.RecordWords >= 8 {
		return 12
	}
	return 48
}

func launchFor(t *testing.T, b *Benchmark, p arch.Params, il layout.Interleave, records int) (core.Launch, layout.Layout, kernels.StateLayout, [][]uint32) {
	t.Helper()
	streams := b.Streams(p.Threads(), records, 42)
	lay := layout.Layout{
		RowBytes: p.DRAM.RowBytes, Corelets: p.Corelets, Contexts: p.Contexts,
		Interleave: il, StreamWords: b.StreamWords(records),
	}
	if err := lay.Validate(); err != nil {
		t.Fatal(err)
	}
	sl, err := kernels.LocalState(b.K, p.LocalBytes, p.Contexts)
	if err != nil {
		t.Fatal(err)
	}
	args := kernels.ArgsAndConsts(b.K, lay.Walk(), sl, records)
	return core.Launch{Prog: b.K.Prog, Interleave: il, Streams: streams, Args: args}, lay, sl, streams
}

func compareStates(t *testing.T, b *Benchmark, got, want [][]uint32) {
	t.Helper()
	for th := range want {
		for i := range want[th] {
			if got[th][i] != want[th][i] {
				t.Fatalf("%s: thread %d state[%d] = %#x, want %#x",
					b.Name(), th, i, got[th][i], want[th][i])
				return
			}
		}
	}
}

func TestAllBenchmarksOnMillipede(t *testing.T) {
	p := testParams()
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			records := testRecords(b)
			l, lay, sl, streams := launchFor(t, b, p, layout.Slab, records)
			pr, err := core.NewProcessor(p, energy.Default(), l)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pr.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			got := ExtractStates(b, sl, lay, pr.ReadState)
			compareStates(t, b, got, b.GoldenStates(streams, records))
			if res.Prefetch.PrematureEvicts != 0 {
				t.Errorf("flow control violated on %s", b.Name())
			}
			if res.Cores.CondBranches == 0 {
				t.Errorf("%s executed no branches", b.Name())
			}
		})
	}
}

func TestAllBenchmarksOnSSMC(t *testing.T) {
	p := testParams()
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			records := testRecords(b)
			l, lay, sl, streams := launchFor(t, b, p, layout.Split, records)
			pr, err := ssmc.NewProcessor(p, energy.Default(), l)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pr.Run(0); err != nil {
				t.Fatal(err)
			}
			got := ExtractStates(b, sl, lay, pr.ReadState)
			compareStates(t, b, got, b.GoldenStates(streams, records))
		})
	}
}

func TestMillipedeNoFlowControlStillCorrect(t *testing.T) {
	p := testParams()
	p.FlowControl = false
	b := NBayesBench()
	records := testRecords(b)
	l, lay, sl, streams := launchFor(t, b, p, layout.Slab, records)
	pr, err := core.NewProcessor(p, energy.Default(), l)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Run(0); err != nil {
		t.Fatal(err)
	}
	got := ExtractStates(b, sl, lay, pr.ReadState)
	compareStates(t, b, got, b.GoldenStates(streams, records))
}

// TestVerifyNamesFirstMismatch: Verify accepts the golden states themselves
// and, for a corrupted copy, reports the first differing thread and word.
func TestVerifyNamesFirstMismatch(t *testing.T) {
	b := CountBench()
	const threads, records, seed = 4, 16, 9
	got := b.GoldenStatesStreamed(threads, records, seed)
	if err := b.Verify(got, threads, records, seed); err != nil {
		t.Fatalf("golden states rejected: %v", err)
	}
	got[2][1]++
	got[3][0]++
	err := b.Verify(got, threads, records, seed)
	if err == nil || !strings.Contains(err.Error(), "thread 2 word 1") {
		t.Errorf("Verify = %v, want a mismatch at thread 2 word 1", err)
	}
	if err := b.Verify(got[:3], threads, records, seed); err == nil {
		t.Error("Verify accepted a missing thread")
	}
}

func TestGoldenDeterminism(t *testing.T) {
	for _, b := range All() {
		s1 := b.Streams(4, 8, 7)
		s2 := b.Streams(4, 8, 7)
		for th := range s1 {
			for i := range s1[th] {
				if s1[th][i] != s2[th][i] {
					t.Fatalf("%s: streams not deterministic", b.Name())
				}
			}
		}
		g1 := b.GoldenStates(s1, 8)
		g2 := b.GoldenStates(s2, 8)
		for th := range g1 {
			for i := range g1[th] {
				if g1[th][i] != g2[th][i] {
					t.Fatalf("%s: golden not deterministic", b.Name())
				}
			}
		}
	}
}

func TestStreamsIndependentOfThreadCount(t *testing.T) {
	// Thread t's stream must not change when more threads are added, so
	// goldens are portable across processor geometries.
	b := CountBench()
	a := b.Streams(4, 16, 9)
	c := b.Streams(8, 16, 9)
	for th := range a {
		for i := range a[th] {
			if a[th][i] != c[th][i] {
				t.Fatal("stream changed with thread count")
			}
		}
	}
}

func TestReduceSpecsCoverState(t *testing.T) {
	for _, b := range All() {
		if len(b.ReduceSpec) != b.K.StateWords {
			t.Errorf("%s: spec covers %d of %d state words", b.Name(), len(b.ReduceSpec), b.K.StateWords)
		}
	}
}

func TestReduceMatchesWholeInput(t *testing.T) {
	// For count: reducing per-thread goldens must equal a single-threaded
	// golden over the concatenated input.
	b := CountBench()
	streams := b.Streams(4, 32, 5)
	states := b.GoldenStates(streams, 32)
	red := b.Reduce(states)
	var whole []uint32
	for _, s := range streams {
		whole = append(whole, s...)
	}
	single := b.GoldenThread(whole, 4*32)
	for i := range single {
		if red[i] != single[i] {
			t.Errorf("reduce[%d] = %d, want %d", i, red[i], single[i])
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("kmeans"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestInstsPerWordOrderingOnMillipede(t *testing.T) {
	// Table IV's defining trend: dynamic instructions per input word rise
	// from the aggregation benchmarks to the compute-heavier learners.
	// The fixed stream-walk overhead compresses ratios relative to the
	// paper, so only the coarse ordering is asserted: count is lightest,
	// pca and gda are heaviest, classify/kmeans sit above nbayes.
	p := testParams()
	per := map[string]float64{}
	for _, b := range All() {
		records := testRecords(b)
		l, _, _, _ := launchFor(t, b, p, layout.Slab, records)
		pr, err := core.NewProcessor(p, energy.Default(), l)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pr.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		words := float64(p.Threads() * b.StreamWords(records))
		per[b.Name()] = float64(res.Cores.Instructions) / words
	}
	// count vs nbayes may invert slightly: the per-word walk overhead is
	// amortized over nbayes's 9-word records but not count's single-word
	// records (see EXPERIMENTS.md).
	if !(per["count"] < per["sample"] && per["count"] < per["variance"]) {
		t.Errorf("count not lightest of the rating benchmarks: %v", per)
	}
	if !(per["classify"] > per["nbayes"] && per["kmeans"] > per["nbayes"]) {
		t.Errorf("classify/kmeans not above nbayes: %v", per)
	}
	if !(per["pca"] > per["kmeans"] && per["gda"] > per["kmeans"]) {
		t.Errorf("pca/gda not heaviest: %v", per)
	}
	t.Logf("insts/word: %v", per)
}

// TestFaultInjectionJitter runs benchmarks with heavy DRAM completion
// jitter: results must stay bit-exact and the flow-control safety invariant
// must hold regardless of memory service times.
func TestFaultInjectionJitter(t *testing.T) {
	p := testParams()
	for _, b := range []*Benchmark{CountBench(), NBayesBench()} {
		records := testRecords(b)
		l, lay, sl, streams := launchFor(t, b, p, layout.Slab, records)
		pr, err := core.NewProcessor(p, energy.Default(), l)
		if err != nil {
			t.Fatal(err)
		}
		pr.InjectMemoryJitter(300, 99)
		res, err := pr.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		got := ExtractStates(b, sl, lay, pr.ReadState)
		compareStates(t, b, got, b.GoldenStates(streams, records))
		if res.Prefetch.PrematureEvicts != 0 {
			t.Errorf("%s: flow control violated under jitter", b.Name())
		}
	}
}

// TestFaultInjectionSlowsRuntime sanity-checks that injected jitter is
// actually observed by the timing model.
func TestFaultInjectionSlowsRuntime(t *testing.T) {
	p := testParams()
	p.ChannelHz = 200e6 // memory-bound so added latency shows
	b := CountBench()
	records := testRecords(b)
	l, _, _, _ := launchFor(t, b, p, layout.Slab, records)
	base, err := core.NewProcessor(p, energy.Default(), l)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := base.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	jit, err := core.NewProcessor(p, energy.Default(), l)
	if err != nil {
		t.Fatal(err)
	}
	jit.InjectMemoryJitter(500, 7)
	rj, err := jit.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rj.Time <= rb.Time {
		t.Errorf("jitter did not slow the run: %d vs %d", rj.Time, rb.Time)
	}
}

// TestGoldenMemoBounded: the golden-reference memo keeps the goldenMemoCap
// most recently used keys. After cap+N distinct seeds it holds exactly cap
// entries, the newest ones; and a second architecture verifying the same
// key (millipede, then ssmc, on one dataset) does not refold it.
func TestGoldenMemoBounded(t *testing.T) {
	goldenMemo.Lock()
	goldenMemo.lru = nil
	goldenMemo.Unlock()
	folds := 0
	b := *CountBench()
	fold := b.Fold
	b.Fold = func(st, rec []uint32) { folds++; fold(st, rec) }

	const threads, records, extra = 4, 8, 5
	for i := 0; i < goldenMemoCap+extra; i++ {
		b.GoldenStatesStreamed(threads, records, uint64(1000+i))
	}
	goldenMemo.Lock()
	n, oldest := len(goldenMemo.lru), goldenMemo.lru[0].key.seed
	goldenMemo.Unlock()
	if n != goldenMemoCap || oldest != 1000+extra {
		t.Fatalf("memo holds %d entries, oldest seed %d; want %d, oldest %d", n, oldest, goldenMemoCap, 1000+extra)
	}
	folds = 0
	b.GoldenStatesStreamed(threads, records, 1000+extra)
	if folds != 0 {
		t.Errorf("memoized key refolded %d records", folds)
	}
	b.GoldenStatesStreamed(threads, records, 1000)
	if folds != threads*records {
		t.Errorf("evicted key folded %d records, want %d", folds, threads*records)
	}

	p := testParams()
	recs := testRecords(&b)
	folds = 0
	for _, il := range []layout.Interleave{layout.Slab, layout.Split} {
		l, lay, sl, _ := launchFor(t, &b, p, il, recs)
		var read StateReader
		var err error
		if il == layout.Slab {
			var pr *core.Processor
			if pr, err = core.NewProcessor(p, energy.Default(), l); err == nil {
				read = pr.ReadState
				_, err = pr.Run(0)
			}
		} else {
			var pr *ssmc.Processor
			if pr, err = ssmc.NewProcessor(p, energy.Default(), l); err == nil {
				read = pr.ReadState
				_, err = pr.Run(0)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Verify(ExtractStates(&b, sl, lay, read), p.Threads(), recs, 42); err != nil {
			t.Fatal(err)
		}
		if want := p.Threads() * recs; folds != want {
			t.Errorf("after the %v run the reference folded %d records, want %d (one fold)", il, folds, want)
		}
	}
}

// TestGoldenMemoConcurrent: goroutines folding and evicting overlapping
// keys all receive the reference a fresh fold computes.
func TestGoldenMemoConcurrent(t *testing.T) {
	b := CountBench()
	const threads, records, keys = 2, 4, goldenMemoCap + 4
	want := make([][][]uint32, keys)
	for k := range want {
		for th := 0; th < threads; th++ {
			want[k] = append(want[k], b.GoldenSource(b.Source(uint64(2000+k), th, records)))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*keys; i++ {
				k := (i*(g+1) + g) % keys
				got := b.GoldenStatesStreamed(threads, records, uint64(2000+k))
				if !reflect.DeepEqual(got, want[k]) {
					t.Errorf("goroutine %d, key %d: got %v, want %v", g, k, got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
