package sim

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

// scripted is a NextWorker test double: it does "work" only at the tick
// indices listed in work (1-based, matching Domain.Ticks after the edge),
// tallies every other tick as dead bookkeeping, and optionally asks the run
// to stop at stopAt. Its NextWork answer is derived purely from the work
// script, so skip-on and skip-off runs must observe identical logs.
type scripted struct {
	d       *Domain
	eng     *Engine
	ticks   int64
	work    []int64 // sorted work-tick indices
	log     []int64 // work ticks actually dispatched
	dead    int64   // dead-tick bookkeeping tally
	stopAt  int64   // 0 = never
	stopped bool    // the tick at stopAt has run
}

func (s *scripted) isWork(i int64) bool {
	j := sort.Search(len(s.work), func(j int) bool { return s.work[j] >= i })
	return j < len(s.work) && s.work[j] == i
}

func (s *scripted) Tick(now Time) {
	s.ticks++
	if s.isWork(s.ticks) {
		s.log = append(s.log, s.ticks)
	} else {
		s.dead++
	}
	if s.stopAt != 0 && s.ticks == s.stopAt {
		s.stopped = true
	}
}

func (s *scripted) NextWork(now Time) Time {
	next := int64(0)
	for _, w := range s.work {
		if w > s.ticks {
			next = w
			break
		}
	}
	if s.stopAt > s.ticks && (next == 0 || s.stopAt < next) {
		next = s.stopAt // stopping is a state change
	}
	if next == 0 {
		return Never
	}
	return s.d.TimeOfTick(uint64(next))
}

func (s *scripted) SkipTicks(n int64) {
	s.ticks += n
	s.dead += n
}

// runScripted builds a two-domain engine from work scripts and runs it until
// both scripts are exhausted, or a's stop tick has run, returning the
// scripted tickers.
func runScripted(t *testing.T, skip bool, p1, p2 Time, w1, w2 []int64, stop1 int64, limit Time) (*scripted, *scripted, Time, error) {
	t.Helper()
	e := NewEngine()
	e.SetSkip(skip)
	s1 := &scripted{eng: e, work: w1, stopAt: stop1}
	s2 := &scripted{eng: e, work: w2}
	var err error
	s1.d, err = e.AddDomain("a", p1, s1)
	if err != nil {
		t.Fatal(err)
	}
	s2.d, err = e.AddDomain("b", p2, s2)
	if err != nil {
		t.Fatal(err)
	}
	done := func() bool {
		// Empty scripts model "idle forever": run until the stop tick or
		// the limit.
		return s1.stopped || len(w1)+len(w2) > 0 && s1.stopAt == 0 &&
			len(s1.log) == len(w1) && len(s2.log) == len(w2)
	}
	now, rerr := e.Run(limit, done)
	return s1, s2, now, rerr
}

func sameOutcome(t *testing.T, name string, on, off *scripted) {
	t.Helper()
	if on.ticks != off.ticks || on.dead != off.dead {
		t.Errorf("%s: ticks/dead = %d/%d with skip, %d/%d without",
			name, on.ticks, on.dead, off.ticks, off.dead)
	}
	if fmt.Sprint(on.log) != fmt.Sprint(off.log) {
		t.Errorf("%s: work log %v with skip, %v without", name, on.log, off.log)
	}
	if on.d.Ticks() != off.d.Ticks() {
		t.Errorf("%s: domain ticks %d with skip, %d without", name, on.d.Ticks(), off.d.Ticks())
	}
}

// TestSkipCoprimePeriods drives two domains with coprime periods through
// sparse work scripts: the fast-forwarded run must replay exactly the
// edge-by-edge tick totals, dead-tick tallies, and work order, and must
// actually skip something.
func TestSkipCoprimePeriods(t *testing.T) {
	p1, p2 := Time(7), Time(11)
	w1 := []int64{1, 2, 300, 301, 900}
	w2 := []int64{5, 200, 571}
	a1, b1, now1, err1 := runScripted(t, true, p1, p2, w1, w2, 0, 0)
	a0, b0, now0, err0 := runScripted(t, false, p1, p2, w1, w2, 0, 0)
	if err1 != nil || err0 != nil {
		t.Fatalf("unexpected errors: %v, %v", err1, err0)
	}
	if now1 != now0 {
		t.Errorf("final time %d with skip, %d without", now1, now0)
	}
	sameOutcome(t, "a", a1, a0)
	sameOutcome(t, "b", b1, b0)
	if a1.eng.SkippedEdges() == 0 || a1.eng.SkipWindows() == 0 {
		t.Error("skip-enabled run elided nothing")
	}
	// The window math itself: after the run every domain's phase must be
	// exactly next = now + k*period from its last dispatched edge.
	for _, s := range []*scripted{a1, b1} {
		if got := s.d.TimeOfTick(s.d.Ticks() + 1); got != s.d.next {
			t.Errorf("TimeOfTick disagrees with schedule: %d vs %d", got, s.d.next)
		}
	}
}

// TestSkipStopMidWindow has domain a stop the run at a work tick that
// terminates a long quiescent stretch: the skip-enabled run must halt at the
// identical tick and time, having skipped the window but dispatched the
// stopping edge live.
func TestSkipStopMidWindow(t *testing.T) {
	p1, p2 := Time(13), Time(17)
	w1 := []int64{2, 500}
	w2 := []int64{3}
	a1, b1, now1, _ := runScripted(t, true, p1, p2, w1, w2, 500, 0)
	a0, b0, now0, _ := runScripted(t, false, p1, p2, w1, w2, 500, 0)
	if now1 != now0 {
		t.Errorf("stop time %d with skip, %d without", now1, now0)
	}
	if a1.ticks != 500 {
		t.Errorf("stopped at tick %d, want 500", a1.ticks)
	}
	if !a1.stopped {
		t.Error("run not stopped")
	}
	sameOutcome(t, "a", a1, a0)
	sameOutcome(t, "b", b1, b0)
	if a1.eng.SkippedEdges() == 0 {
		t.Error("expected the pre-stop window to be skipped")
	}
}

// TestSkipLimitExactError pins the regression the limit clamp exists for:
// when every domain goes quiescent forever under a time limit, the
// fast-forward must produce the identical error, at the identical time, as
// dispatching every dead edge — the limit-crossing edge itself is charged to
// the registration-order tie-break winner.
func TestSkipLimitExactError(t *testing.T) {
	// Periods 10 and 25, limit 100: edges at 10..90,100 (a) and 25,50,75,100
	// (b). The first edge at or past the limit is t=100, a tie between the
	// domains that domain a wins by registration order; the loop then errors
	// with now=100, having dispatched a's tenth edge but never b's fourth.
	const wantErr = "sim: time limit 100 ps exceeded at t=100"
	for _, skip := range []bool{true, false} {
		a, b, now, err := runScripted(t, skip, 10, 25, nil, nil, 0, 100)
		if err == nil || err.Error() != wantErr {
			t.Fatalf("skip=%v: error %v, want %q", skip, err, wantErr)
		}
		if now != 100 {
			t.Errorf("skip=%v: now = %d, want 100", skip, now)
		}
		if a.ticks != 10 || b.ticks != 3 {
			t.Errorf("skip=%v: ticks a=%d b=%d, want 10/3", skip, a.ticks, b.ticks)
		}
		// All 13 dispatched-then-errored edges were elided: a's 10, b's 3.
		if skip && a.eng.SkippedEdges() != 13 {
			t.Errorf("skipped %d edges, want all 13", a.eng.SkippedEdges())
		}
	}
}

// TestSkipDeadlockNoLimit checks the overflow guard: all-Never domains with
// no limit must not fast-forward (the edge-by-edge loop would spin; the
// models always terminate via done(), so mirror that contract instead of
// overflowing the window arithmetic).
func TestSkipDeadlockNoLimit(t *testing.T) {
	e := NewEngine()
	s, idle := &scripted{eng: e}, &scripted{eng: e}
	var err error
	if s.d, err = e.AddDomain("a", 10, s); err != nil {
		t.Fatal(err)
	}
	if idle.d, err = e.AddDomain("b", 1000, idle); err != nil {
		t.Fatal(err)
	}
	n := 0
	now, err := e.Run(0, func() bool { n++; return n > 3 })
	if err != nil {
		t.Fatal(err)
	}
	if now != 30 || s.ticks != 3 {
		t.Errorf("ran to t=%d after %d ticks, want 30/3", now, s.ticks)
	}
	if e.SkippedEdges() != 0 {
		t.Errorf("deadlocked engine skipped %d edges", e.SkippedEdges())
	}
}

// TestSkipPropertyRandomScripts is the quiescence analogue of
// TestPropertyEdgeCounts: for random coprime-ish periods, random sparse work
// scripts, and a random limit, the skip-on and skip-off runs agree on every
// observable — final time, error presence, tick totals, dead tallies, and
// the work log.
func TestSkipPropertyRandomScripts(t *testing.T) {
	f := func(p1u, p2u uint8, seed uint16, limu uint8) bool {
		p1 := Time(p1u%97) + 3
		p2 := Time(p2u%89) + 5
		// Derive a deterministic sparse script from seed.
		x := uint64(seed)*2654435761 + 12345
		var w1, w2 []int64
		next := int64(0)
		for i := 0; i < 6; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			next += 1 + int64(x%200)
			w1 = append(w1, next)
			x = x*6364136223846793005 + 1442695040888963407
			w2 = append(w2, next+int64(x%37))
		}
		sort.Slice(w2, func(i, j int) bool { return w2[i] < w2[j] })
		// Deduplicate: a tick index can only be visited once, and done()
		// counts one log entry per script item.
		uniq := w2[:1]
		for _, w := range w2[1:] {
			if w != uniq[len(uniq)-1] {
				uniq = append(uniq, w)
			}
		}
		w2 = uniq
		var limit Time
		if limu%3 == 0 {
			limit = Time(limu)*50 + 500
		}
		a1, b1, now1, err1 := runScripted(t, true, p1, p2, w1, w2, 0, limit)
		a0, b0, now0, err0 := runScripted(t, false, p1, p2, w1, w2, 0, limit)
		if (err1 == nil) != (err0 == nil) {
			return false
		}
		if err1 != nil && err1.Error() != err0.Error() {
			return false
		}
		return now1 == now0 &&
			a1.ticks == a0.ticks && b1.ticks == b0.ticks &&
			a1.dead == a0.dead && b1.dead == b0.dead &&
			fmt.Sprint(a1.log) == fmt.Sprint(a0.log) &&
			fmt.Sprint(b1.log) == fmt.Sprint(b0.log)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
