package sim

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestPeriodFromHz(t *testing.T) {
	cases := []struct {
		hz   float64
		want Time
	}{
		{1e9, 1000},        // 1 GHz -> 1000 ps
		{700e6, 1429},      // 700 MHz -> 1428.57 ps rounded
		{1.2e9, 833},       // 1.2 GHz -> 833.33 ps rounded
		{3.6e9, 278},       // 3.6 GHz
		{0, 0},             // invalid
		{-5, 0},            // invalid
		{2e9, 500},         // 2 GHz
		{1, Time(Second)},  // 1 Hz
		{1e12, Picosecond}, // 1 THz
	}
	for _, c := range cases {
		if got := PeriodFromHz(c.hz); got != c.want {
			t.Errorf("PeriodFromHz(%v) = %d, want %d", c.hz, got, c.want)
		}
	}
}

func TestHzFromPeriodRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		p := Time(raw%10000) + 1 // 1..10000 ps
		hz := HzFromPeriod(p)
		return PeriodFromHz(hz) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHzFromPeriodInvalid(t *testing.T) {
	if HzFromPeriod(0) != 0 || HzFromPeriod(-3) != 0 {
		t.Error("HzFromPeriod should return 0 for non-positive periods")
	}
}

func TestAddDomainValidation(t *testing.T) {
	e := NewEngine()
	tick := TickFunc(func(Time) {})
	if _, err := e.AddDomain("a", 0, tick); err == nil {
		t.Error("expected error for zero period")
	}
	if _, err := e.AddDomain("a", 100, nil); err == nil {
		t.Error("expected error for nil ticker")
	}
	if _, err := e.AddDomain("a", 100, tick); err != nil {
		t.Fatalf("valid AddDomain failed: %v", err)
	}
	if _, err := e.AddDomain("a", 200, tick); err == nil {
		t.Error("expected error for duplicate name")
	}
	if _, err := e.AddDomain("b", 200, tick); err != nil {
		t.Fatalf("second AddDomain failed: %v", err)
	}
	if _, err := e.AddDomain("c", 300, tick); !errors.Is(err, ErrBadDomain) {
		t.Errorf("third AddDomain: %v, want ErrBadDomain", err)
	}
}

// idle is a domain with no edges in the tests' horizons, to make up an
// engine's pair.
const idlePeriod = Second

func addIdle(t *testing.T, e *Engine) {
	t.Helper()
	if _, err := e.AddDomain("idle", idlePeriod, TickFunc(func(Time) { t.Error("the idle domain ticked") })); err != nil {
		t.Fatal(err)
	}
}

// TestSingleDomainTickTimes: one domain's edges fall at multiples of its
// period, from t = period on.
func TestSingleDomainTickTimes(t *testing.T) {
	e := NewEngine()
	var times []Time
	d, err := e.AddDomain("cpu", 1000, TickFunc(func(now Time) {
		times = append(times, now)
	}))
	if err != nil {
		t.Fatal(err)
	}
	addIdle(t, e)
	if _, err := e.Run(0, func() bool { return len(times) == 4 }); err != nil {
		t.Fatal(err)
	}
	want := []Time{1000, 2000, 3000, 4000}
	if len(times) != len(want) {
		t.Fatalf("got %d ticks, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("tick %d at %d, want %d", i, times[i], want[i])
		}
	}
	if d.Ticks() != 4 {
		t.Errorf("Ticks() = %d, want 4", d.Ticks())
	}
}

func TestTwoDomainInterleaving(t *testing.T) {
	// A 1000 ps domain and a 400 ps domain must interleave in global time
	// order with ties broken by registration order.
	e := NewEngine()
	var order []string
	_, _ = e.AddDomain("slow", 1000, TickFunc(func(now Time) { order = append(order, "s") }))
	_, _ = e.AddDomain("fast", 400, TickFunc(func(now Time) { order = append(order, "f") }))
	if _, err := e.Run(0, func() bool { return len(order) == 7 }); err != nil {
		t.Fatal(err)
	}
	// Edges: f@400, f@800, s@1000, f@1200, f@1600, s@2000, f@2000 -> s wins tie (registered first).
	want := "ffsffsf"
	got := ""
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Errorf("interleaving = %q, want %q", got, want)
	}
}

func TestSetPeriodTakesEffect(t *testing.T) {
	e := NewEngine()
	var times []Time
	var d *Domain
	var err error
	d, err = e.AddDomain("cpu", 1000, TickFunc(func(now Time) {
		times = append(times, now)
		if len(times) == 2 {
			if err := d.SetPeriod(500); err != nil {
				t.Fatalf("SetPeriod: %v", err)
			}
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	addIdle(t, e)
	if _, err := e.Run(0, func() bool { return len(times) == 4 }); err != nil {
		t.Fatal(err)
	}
	want := []Time{1000, 2000, 2500, 3000}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("tick %d at %d, want %d (times=%v)", i, times[i], want[i], times)
		}
	}
}

func TestSetPeriodRejectsNonPositive(t *testing.T) {
	e := NewEngine()
	d, _ := e.AddDomain("cpu", 1000, TickFunc(func(Time) {}))
	if err := d.SetPeriod(0); err == nil {
		t.Error("expected error for zero period")
	}
	if err := d.SetPeriod(-1); err == nil {
		t.Error("expected error for negative period")
	}
	if d.Period() != 1000 {
		t.Errorf("period changed by invalid SetPeriod: %d", d.Period())
	}
}

// TestRunDoneAndStop: Run returns once done reports true, before any
// further edge of either domain, whether done counts edges or reads a flag a
// tick set.
func TestRunDoneAndStop(t *testing.T) {
	e := NewEngine()
	n, other := 0, 0
	_, _ = e.AddDomain("cpu", 10, TickFunc(func(Time) { n++ }))
	_, _ = e.AddDomain("mem", 15, TickFunc(func(Time) { other++ }))
	now, err := e.Run(0, func() bool { return n >= 5 })
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || other != 3 || now != 50 {
		t.Errorf("ran %d and %d ticks to t=%d, want 5 and 3 to t=50", n, other, now)
	}

	e2 := NewEngine()
	m, stop := 0, false
	_, _ = e2.AddDomain("cpu", 10, TickFunc(func(Time) {
		m++
		stop = m == 3
	}))
	addIdle(t, e2)
	if _, err := e2.Run(0, func() bool { return stop }); err != nil {
		t.Fatal(err)
	}
	if m != 3 {
		t.Errorf("a tick's stop did not halt the run: %d ticks", m)
	}
}

func TestRunTimeLimit(t *testing.T) {
	e := NewEngine()
	_, _ = e.AddDomain("cpu", 10, TickFunc(func(Time) {}))
	addIdle(t, e)
	if _, err := e.Run(100, nil); err == nil {
		t.Error("expected time-limit error")
	}
	if e.Now() < 100 {
		t.Errorf("engine stopped early at %d", e.Now())
	}
}

// TestRunEmptyEngine: Run refuses an engine without its two domains and
// leaves the clock at zero.
func TestRunEmptyEngine(t *testing.T) {
	e := NewEngine()
	for domains := 0; domains < 2; domains++ {
		now, err := e.Run(0, nil)
		if err == nil || now != 0 {
			t.Errorf("Run with %d domains = (%d, %v), want (0, an error)", domains, now, err)
		}
		if _, err := e.AddDomain(fmt.Sprint("d", domains), 10, TickFunc(func(Time) {})); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: for any pair of periods, edges are dispatched in non-decreasing
// global time and each domain ticks floor(T/period) times by time T.
func TestPropertyEdgeCounts(t *testing.T) {
	f := func(p1u, p2u uint8) bool {
		p1 := Time(p1u%97) + 3
		p2 := Time(p2u%89) + 5
		e := NewEngine()
		var last Time
		monotone := true
		check := func(now Time) {
			if now < last {
				monotone = false
			}
			last = now
		}
		d1, _ := e.AddDomain("a", p1, TickFunc(check))
		d2, _ := e.AddDomain("b", p2, TickFunc(check))
		horizon := Time(5000)
		if _, err := e.Run(0, func() bool { return e.Now() >= horizon }); err != nil {
			return false
		}
		// After crossing the horizon, each domain has ticked either
		// floor(now/p) or that ±1 depending on which edge crossed last.
		okCount := func(d *Domain, p Time) bool {
			exact := uint64(e.Now() / p)
			return d.Ticks() >= exact-1 && d.Ticks() <= exact+1
		}
		return monotone && okCount(d1, p1) && okCount(d2, p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPeriodRangeEnforced checks the documented [1 ps, 1 s] period range:
// sub-1-Hz clocks (periods above one second) are rejected both at domain
// registration and on a later retune.
func TestPeriodRangeEnforced(t *testing.T) {
	e := NewEngine()
	tick := TickFunc(func(Time) {})
	if _, err := e.AddDomain("slow", Second+1, tick); err == nil {
		t.Error("AddDomain accepted a period above 1 s")
	}
	d, err := e.AddDomain("ok", Second, tick)
	if err != nil {
		t.Fatalf("AddDomain rejected a 1 s period: %v", err)
	}
	if err := d.SetPeriod(Second + 1); err == nil {
		t.Error("SetPeriod accepted a period above 1 s")
	}
	if err := d.SetPeriod(1); err != nil {
		t.Errorf("SetPeriod rejected a 1 ps period: %v", err)
	}
}

// TestPeriodFromHzRange spot-checks the conversion at the documented edges:
// frequencies below 1 Hz produce periods AddDomain rejects, and frequencies
// far above 1 THz round to a zero (rejected) period.
func TestPeriodFromHzRange(t *testing.T) {
	if p := PeriodFromHz(0.5); p <= Second {
		t.Errorf("PeriodFromHz(0.5) = %d, want > 1 s (rejected on registration)", p)
	}
	if p := PeriodFromHz(3e12); p != 0 {
		t.Errorf("PeriodFromHz(3e12) = %d, want 0 (rounds below 1 ps)", p)
	}
	if p := PeriodFromHz(1e9); p != Millisecond/1e6 {
		t.Errorf("PeriodFromHz(1 GHz) = %d ps, want 1000", p)
	}
}
