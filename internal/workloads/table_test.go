package workloads_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/workloads"
)

// constructors builds each benchmark afresh, in the table's order.
var constructors = []func() *workloads.Benchmark{
	workloads.CountBench, workloads.SampleBench, workloads.VarianceBench, workloads.NBayesBench,
	workloads.ClassifyBench, workloads.KMeansBench, workloads.PCABench, workloads.GDABench,
}

// sameBenchmark reports how got differs from a freshly constructed want:
// name, default records, kernel geometry and constants, reduce spec and
// program encoding.
func sameBenchmark(t *testing.T, got, want *workloads.Benchmark) {
	t.Helper()
	if got.Name() != want.Name() || got.DefaultRecords != want.DefaultRecords {
		t.Errorf("%s: name/records %s/%d, want %s/%d", want.Name(), got.Name(), got.DefaultRecords, want.Name(), want.DefaultRecords)
	}
	if got.K.RecordWords != want.K.RecordWords || got.K.StateWords != want.K.StateWords ||
		got.K.K != want.K.K || !reflect.DeepEqual(got.K.Consts, want.K.Consts) {
		t.Errorf("%s: kernel geometry or constants differ from a fresh constructor's", want.Name())
	}
	if !reflect.DeepEqual(got.ReduceSpec, want.ReduceSpec) {
		t.Errorf("%s: ReduceSpec %v, want %v", want.Name(), got.ReduceSpec, want.ReduceSpec)
	}
	if !bytes.Equal(isa.EncodeProgram(got.K.Prog), isa.EncodeProgram(want.K.Prog)) {
		t.Errorf("%s: program encodes differently from a fresh constructor's", want.Name())
	}
}

// TestTableMatchesConstructors: every benchmark All and ByName hand out
// equals its named constructor's.
func TestTableMatchesConstructors(t *testing.T) {
	all := workloads.All()
	if len(all) != len(constructors) {
		t.Fatalf("All returns %d benchmarks, want %d", len(all), len(constructors))
	}
	for i, mk := range constructors {
		want := mk()
		sameBenchmark(t, all[i], want)
		b, err := workloads.ByName(want.Name())
		if err != nil {
			t.Fatal(err)
		}
		sameBenchmark(t, b, want)
	}
}

// TestCallerChangesStayLocal: a caller that changes the benchmarks All or
// ByName gave it leaves the next All and ByName values unchanged.
func TestCallerChangesStayLocal(t *testing.T) {
	scribble := func(b *workloads.Benchmark) {
		b.DefaultRecords = -1
		b.K = workloads.CountBarrierBench(1).K
		b.ReduceSpec = nil
		b.Gen, b.Fold = nil, nil
	}
	for _, b := range workloads.All() {
		scribble(b)
	}
	for _, mk := range constructors {
		b, err := workloads.ByName(mk().Name())
		if err != nil {
			t.Fatal(err)
		}
		scribble(b)
	}
	for i, b := range workloads.All() {
		want := constructors[i]()
		sameBenchmark(t, b, want)
		if b.Gen == nil || b.Fold == nil {
			t.Errorf("%s: a caller's change reached the table's Gen or Fold", want.Name())
		}
		byName, err := workloads.ByName(want.Name())
		if err != nil {
			t.Fatal(err)
		}
		sameBenchmark(t, byName, want)
	}
}

// TestTableAllocs: the table is built once, so ByName allocates only the
// copy it returns and All only its copies and their pointer slice;
// rebuilding the eight benchmarks makes hundreds.
func TestTableAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { workloads.ByName("gda") }); n > 1 {
		t.Errorf("ByName makes %.0f allocations, want at most 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { workloads.All() }); n > 2 {
		t.Errorf("All makes %.0f allocations, want at most 2", n)
	}
}

// TestTableConcurrent: callers on several goroutines each change their own
// copies and read unchanged values (run under -race; run alone, the first
// of them builds the table).
func TestTableConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range workloads.All() {
				b.DefaultRecords = -g
			}
			b, err := workloads.ByName(constructors[g]().Name())
			if err != nil {
				t.Error(err)
				return
			}
			if want := constructors[g]().DefaultRecords; b.DefaultRecords != want {
				t.Errorf("%s: DefaultRecords %d, want %d", b.Name(), b.DefaultRecords, want)
			}
			b.DefaultRecords = -g
		}()
	}
	wg.Wait()
}

var (
	allSink    []*workloads.Benchmark
	byNameSink *workloads.Benchmark
)

func BenchmarkAll(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		allSink = workloads.All()
	}
}

func BenchmarkByName(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		byNameSink, _ = workloads.ByName("gda")
	}
}
