package metrics

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestRegistrySnapshotSortedAndLazy(t *testing.T) {
	r := NewRegistry()
	var c uint64
	evals := 0
	r.Counter("b.count", func() uint64 { evals++; return c })
	r.Gauge("a.gauge", func() float64 { evals++; return 2.5 })
	r.Histogram("c.hist", func() []uint64 { evals++; return []uint64{1, 2, 3} })
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	if evals != 0 {
		t.Fatalf("registration evaluated getters %d times", evals)
	}
	c = 7
	s := r.Snapshot()
	if evals != 3 {
		t.Fatalf("snapshot evaluated %d getters, want 3", evals)
	}
	names := []string{}
	for _, sm := range s.Samples {
		names = append(names, sm.Name)
	}
	want := []string{"a.gauge", "b.count", "c.hist"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("sorted names = %v, want %v", names, want)
		}
	}
	if v := s.Value("b.count"); v != 7 {
		t.Errorf("b.count = %v (getter must see post-registration value)", v)
	}
	if sm, ok := s.Get("c.hist"); !ok || len(sm.Buckets) != 3 || sm.Buckets[1] != 2 {
		t.Errorf("c.hist = %+v, %v", sm, ok)
	}
	if _, ok := s.Get("nope"); ok {
		t.Error("Get of absent name succeeded")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x", func() uint64 { return 0 })
	r.Counter("x", func() uint64 { return 0 })
}

func TestSnapshotBucketsCopied(t *testing.T) {
	r := NewRegistry()
	h := []uint64{1, 2}
	r.Histogram("h", func() []uint64 { return h })
	s := r.Snapshot()
	h[0] = 99
	if sm, _ := s.Get("h"); sm.Buckets[0] != 1 {
		t.Error("snapshot aliases the live histogram slice")
	}
}

func TestSnapshotPut(t *testing.T) {
	r := NewRegistry()
	r.Counter("m.b", func() uint64 { return 1 })
	s := r.Snapshot()
	s.Put(Sample{Name: "m.a", Kind: Gauge, Value: 4})
	s.Put(Sample{Name: "m.z", Kind: Gauge, Value: 5})
	s.Put(Sample{Name: "m.b", Kind: Counter, Value: 9}) // replace
	if len(s.Samples) != 3 {
		t.Fatalf("len = %d", len(s.Samples))
	}
	for i, want := range []string{"m.a", "m.b", "m.z"} {
		if s.Samples[i].Name != want {
			t.Fatalf("order %v", s.Samples)
		}
	}
	if s.Value("m.b") != 9 {
		t.Errorf("replace failed: %v", s.Value("m.b"))
	}
}

func TestDiff(t *testing.T) {
	mk := func(c uint64, g float64, h []uint64) Snapshot {
		var s Snapshot
		s.Put(Sample{Name: "c", Kind: Counter, Value: float64(c)})
		s.Put(Sample{Name: "g", Kind: Gauge, Value: g})
		s.Put(Sample{Name: "h", Kind: Histogram, Buckets: h})
		return s
	}
	before := mk(10, 1.5, []uint64{1, 1})
	after := mk(25, 9.5, []uint64{4, 1})
	d := Diff(after, before)
	if d.Value("c") != 15 {
		t.Errorf("counter diff = %v", d.Value("c"))
	}
	if d.Value("g") != 9.5 {
		t.Errorf("gauge diff keeps after: %v", d.Value("g"))
	}
	hm, _ := d.Get("h")
	if hm.Buckets[0] != 3 || hm.Buckets[1] != 0 {
		t.Errorf("hist diff = %v", hm.Buckets)
	}
	// A diff must not mutate its inputs.
	if am, _ := after.Get("h"); am.Buckets[0] != 4 {
		t.Error("Diff mutated after")
	}
}

// TestSum: same-named samples add by value or bucket by bucket, one-sided
// names pass through, and the inputs stay untouched.
func TestSum(t *testing.T) {
	a := Snapshot{Samples: []Sample{
		{Name: "hits", Kind: Counter, Value: 3},
		{Name: "lat", Kind: Histogram, Buckets: []uint64{1, 2}},
	}}
	b := Snapshot{Samples: []Sample{
		{Name: "depth", Kind: Gauge, Value: 4},
		{Name: "hits", Kind: Counter, Value: 5},
		{Name: "lat", Kind: Histogram, Buckets: []uint64{10, 20, 30}},
	}}
	got := Sum(a, b)
	if got.Value("hits") != 8 || got.Value("depth") != 4 {
		t.Errorf("sum values: hits %g depth %g", got.Value("hits"), got.Value("depth"))
	}
	if lat, _ := got.Get("lat"); fmt.Sprint(lat.Buckets) != "[11 22 30]" {
		t.Errorf("summed buckets = %v", lat.Buckets)
	}
	if len(got.Samples) != 3 || a.Value("hits") != 3 || len(a.Samples) != 2 {
		t.Errorf("Sum changed its input or dropped a name: %+v / %+v", got, a)
	}
}

// TestPow2BucketPercentile: upper-edge estimates over the power-of-two-ms
// layout, nearest-rank rounded up.
func TestPow2BucketPercentile(t *testing.T) {
	cases := []struct {
		buckets []uint64
		q       float64
		want    float64
	}{
		{nil, 0.99, 0},                      // empty histogram
		{[]uint64{0, 0, 0}, 0.5, 0},         // all-zero histogram
		{[]uint64{5}, 0.5, 1},               // sub-ms observations report the 1 ms edge
		{[]uint64{0, 7}, 0.5, 2},            // bucket 1 = [1,2) ms -> upper edge 2
		{[]uint64{1, 0, 0, 1}, 0.5, 1},      // rank 1 of 2 -> first bucket
		{[]uint64{1, 0, 0, 1}, 0.99, 8},     // rank 2 of 2 -> bucket 3 -> 2^3
		{[]uint64{10, 10, 10, 10}, 0.25, 1}, // rank 10 -> bucket 0
		{[]uint64{10, 10, 10, 10}, 0.26, 2}, // rank 11 -> bucket 1
		{[]uint64{0, 0, 0, 0, 3}, 1.0, 16},  // everything in the overflow
		{[]uint64{2, 0}, 1.0, 1},            // trailing empty buckets ignored
	}
	for _, c := range cases {
		if got := Pow2BucketPercentile(c.buckets, c.q); got != c.want {
			t.Errorf("Pow2BucketPercentile(%v, %g) = %g, want %g", c.buckets, c.q, got, c.want)
		}
	}
}

func TestRenderStableAndJSONValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("dram.requests", func() uint64 { return 42 })
	r.Gauge("dram.row_miss_rate", func() float64 { return 0.125 })
	r.Histogram("mem.queue_lat", func() []uint64 { return []uint64{5, 0, 1} })
	s1, s2 := r.Snapshot(), r.Snapshot()
	if s1.Render() != s2.Render() {
		t.Error("identical snapshots render differently")
	}
	if !strings.Contains(s1.Render(), "dram.requests") {
		t.Errorf("render:\n%s", s1.Render())
	}
	data, err := s1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var out []map[string]interface{}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("JSON entries = %d", len(out))
	}
	for _, e := range out {
		if e["name"] == "" || e["kind"] == "" {
			t.Errorf("entry missing name/kind: %v", e)
		}
	}
}

func TestTimelineSamplingAndMonotonic(t *testing.T) {
	tl := NewTimeline(4)
	x := 0.0
	tl.Probe("x", func() float64 { return x })
	for cycle := uint64(1); cycle <= 40; cycle++ {
		x = float64(cycle)
		tl.Tick(cycle)
	}
	if tl.Len() != 10 {
		t.Fatalf("len = %d, want 10", tl.Len())
	}
	pts := tl.Points()
	for i, p := range pts {
		if p.Cycle%tl.Every() != 0 {
			t.Errorf("sample %d at cycle %d not aligned to %d", i, p.Cycle, tl.Every())
		}
		if i > 0 && p.Cycle <= pts[i-1].Cycle {
			t.Errorf("cycles not strictly increasing at %d", i)
		}
		if p.Values[0] != float64(p.Cycle) {
			t.Errorf("sample at %d has value %v", p.Cycle, p.Values[0])
		}
	}
}

func TestTimelineDecimation(t *testing.T) {
	tl := NewTimeline(1)
	tl.max = 8 // small retention bound to force decimation
	tl.Probe("v", func() float64 { return 1 })
	for cycle := uint64(1); cycle <= 100; cycle++ {
		tl.Tick(cycle)
	}
	if tl.Len() >= 8 {
		t.Fatalf("retention bound not enforced: %d points", tl.Len())
	}
	if tl.Every() == 1 {
		t.Fatal("interval did not grow under decimation")
	}
	pts := tl.Points()
	for i, p := range pts {
		if p.Cycle%tl.Every() != 0 {
			t.Errorf("point %d at cycle %d misaligned to interval %d", i, p.Cycle, tl.Every())
		}
		if i > 0 && p.Cycle <= pts[i-1].Cycle {
			t.Errorf("cycles not strictly increasing after decimation")
		}
	}
	// Coverage must span the run, not just its head or tail.
	if last := pts[len(pts)-1].Cycle; last < 90 {
		t.Errorf("decimated timeline lost the tail: last cycle %d", last)
	}
}

func TestTimelineDownsample(t *testing.T) {
	tl := NewTimeline(1)
	tl.Probe("v", func() float64 { return 0 })
	for cycle := uint64(1); cycle <= 100; cycle++ {
		tl.Tick(cycle)
	}
	pts := tl.Downsample(10)
	if len(pts) > 11 { // stride rounding may add the final point
		t.Fatalf("downsample returned %d points", len(pts))
	}
	if pts[len(pts)-1].Cycle != 100 {
		t.Errorf("downsample dropped the last sample: %d", pts[len(pts)-1].Cycle)
	}
	if full := tl.Downsample(1000); len(full) != tl.Len() {
		t.Errorf("oversized budget should return everything: %d != %d", len(full), tl.Len())
	}
}

func TestTimelineRender(t *testing.T) {
	tl := NewTimeline(2)
	tl.Probe("occ", func() float64 { return 3 })
	tl.Tick(2)
	out := tl.Render()
	if !strings.Contains(out, "occ") || !strings.Contains(out, "3.000") {
		t.Errorf("render:\n%s", out)
	}
}
