// Package sim provides the discrete, multi-clock-domain simulation engine
// underlying every architecture model in this repository.
//
// The engine is deliberately small: simulated time is an int64 count of
// picoseconds, and each clocked component (a processor, a memory system)
// registers a Domain whose Tick method is invoked at every rising edge of
// its clock. Domains may have different periods — the paper's compute clock
// runs at 700 MHz while the die-stacked DRAM channel runs at 1.2 GHz — and a
// domain's period may change while the simulation runs, which is how the
// dynamic-frequency-scaling rate-matching controller (Section IV-F of the
// paper) is modeled.
package sim

import (
	"errors"
	"fmt"
)

// Time is a simulated timestamp or duration in picoseconds.
type Time int64

// Common clock periods used throughout the models.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// PeriodFromHz returns the clock period, in picoseconds, of a clock running
// at the given frequency in hertz. The result is rounded to the nearest
// picosecond; periods outside [1 ps, 1 s] — frequencies below 1 Hz or so far
// above 1 THz that the period rounds to zero — are rejected by Engine when
// the domain is registered.
func PeriodFromHz(hz float64) Time {
	if hz <= 0 {
		return 0
	}
	return Time(float64(Second)/hz + 0.5)
}

// HzFromPeriod is the inverse of PeriodFromHz.
func HzFromPeriod(p Time) float64 {
	if p <= 0 {
		return 0
	}
	return float64(Second) / float64(p)
}

// Ticker is a clocked component. Tick is called once per rising edge of the
// component's clock with the current simulated time.
type Ticker interface {
	Tick(now Time)
}

// Never is the NextWork sentinel meaning "no self-generated future work":
// the component cannot change state until some other domain's tick feeds it
// an event (an enqueue, a wake, a delayed callback).
const Never Time = Time(1<<63 - 1)

// NextWorker is the optional quiescence protocol a Ticker implements to let
// the engine fast-forward over dead edges.
//
// NextWork returns the earliest future simulated time at which the
// component's Tick could change observable state beyond pure per-tick
// bookkeeping (cycle counters, idle/stall tallies). Returning any time at or
// before the component's next scheduled edge means "busy — dispatch me
// normally"; returning Never means "idle until an external event wakes me".
// NextWork must not mutate state: the engine may call it on every iteration.
//
// SkipTicks(n) advances the component's per-tick bookkeeping exactly as n
// consecutive dead Tick calls would have — same counters, same totals — so an
// elided stretch of edges is observationally identical to a dispatched one.
// The engine only calls it for stretches NextWork declared dead, and never
// concurrently with Tick.
type NextWorker interface {
	Ticker
	NextWork(now Time) Time
	SkipTicks(n int64)
}

// TickFunc adapts a plain function to the Ticker interface.
type TickFunc func(now Time)

// Tick implements Ticker.
func (f TickFunc) Tick(now Time) { f(now) }

// Domain is one clock domain registered with an Engine.
type Domain struct {
	name   string
	period Time
	next   Time
	ticker Ticker
	nw     NextWorker // non-nil when ticker supports quiescence skipping
	ticks  uint64
	// busy caches a NextWork answer of "may work at my very next edge".
	// Work cannot vanish without the domain ticking (cross-domain effects
	// only add work), so the flag stays valid — and trySkip need not re-poll
	// the domain — until its next edge dispatches, which clears it.
	busy bool
}

// Name returns the domain's registration name.
func (d *Domain) Name() string { return d.name }

// Period returns the domain's current clock period in picoseconds.
func (d *Domain) Period() Time { return d.period }

// Frequency returns the domain's current clock frequency in hertz.
func (d *Domain) Frequency() float64 { return HzFromPeriod(d.period) }

// Ticks returns the number of rising edges the domain has seen so far.
func (d *Domain) Ticks() uint64 { return d.ticks }

// TimeOfTick returns the simulated time of the domain's i'th rising edge,
// for i > Ticks(): the next scheduled edge is tick Ticks()+1, and later
// edges follow at the current period. Components that reason about future
// work in their own cycle counts use it to translate a cycle index into the
// NextWork time contract. The translation assumes the period holds until
// tick i, which the quiescence protocol guarantees across a skip window:
// periods only change from work ticks (the DFS controller), and a window by
// definition contains none.
func (d *Domain) TimeOfTick(i uint64) Time {
	return d.next + Time(i-d.ticks-1)*d.period
}

// SetPeriod changes the domain's clock period. The change takes effect for
// the edge after the next one already scheduled, mimicking a PLL that
// relocks between cycles. Periods outside [1 ps, 1 s] are rejected.
func (d *Domain) SetPeriod(p Time) error {
	if p <= 0 {
		return fmt.Errorf("sim: domain %q: non-positive period %d", d.name, p)
	}
	if p > Second {
		return fmt.Errorf("sim: domain %q: period %d ps exceeds 1 s (frequency below 1 Hz)", d.name, p)
	}
	d.period = p
	return nil
}

// Engine drives a set of clock domains in global-time order. It is not safe
// for concurrent use; architecture models are single-goroutine by design so
// that simulations are deterministic and replayable.
type Engine struct {
	domains []*Domain
	now     Time
	stopped bool
	// Quiescence skipping (on by default): when every domain's ticker
	// implements NextWorker and reports no possible work before some future
	// edge, Run elides the intervening dead edges arithmetically instead of
	// dispatching them. Purely a wall-clock optimization — tick totals,
	// tie-breaks, and per-period phases are preserved exactly.
	skip         bool
	skippedEdges uint64
	skipWindows  uint64
	// probeOrder is the domains re-ordered for trySkip's busy probe, with
	// the domain last found busy kept at the front (move-to-front). Probe
	// order is invisible to results — the window is a min over every
	// domain — but probing the habitually busy domain first means a busy
	// engine pays one cheap NextWork call per edge, not one per domain.
	probeOrder []*Domain
	// probeRest / probeBackoff implement exponential probe backoff: each
	// failed full probe doubles the number of subsequent probe-eligible
	// edges that run without probing (capped), and any successful skip
	// resets it. Workloads with no quiescence windows thus pay ~zero probe
	// overhead, while windowed workloads are discovered at most
	// probeRestMax edges late — results are identical either way, only the
	// wall-clock win from skipping changes.
	probeRest    int32
	probeBackoff int32
}

// probeRestMax caps the probe backoff: a quiescence window is entered at
// most this many edges late after a long busy stretch.
const probeRestMax = 16

// NewEngine returns an empty engine at time zero with quiescence skipping
// enabled.
func NewEngine() *Engine { return &Engine{skip: true} }

// SetSkip enables or disables quiescence time skipping. Disabled, the engine
// dispatches every edge; results are bit-identical either way.
func (e *Engine) SetSkip(on bool) { e.skip = on }

// SkippedEdges returns the number of edges elided by quiescence skipping.
func (e *Engine) SkippedEdges() uint64 { return e.skippedEdges }

// SkipWindows returns the number of quiescent windows fast-forwarded.
func (e *Engine) SkipWindows() uint64 { return e.skipWindows }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Stop requests that Run return after the tick currently being dispatched.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// ErrBadDomain is returned when a domain registration is invalid.
var ErrBadDomain = errors.New("sim: invalid domain")

// AddDomain registers a new clock domain with the given name, period (ps),
// and component. The first edge fires at t = period (not at t = 0), so all
// components observe a defined reset state before their first tick.
func (e *Engine) AddDomain(name string, period Time, t Ticker) (*Domain, error) {
	if period <= 0 {
		return nil, fmt.Errorf("%w: %q has non-positive period %d", ErrBadDomain, name, period)
	}
	if period > Second {
		return nil, fmt.Errorf("%w: %q has period %d ps exceeding 1 s (frequency below 1 Hz)", ErrBadDomain, name, period)
	}
	if t == nil {
		return nil, fmt.Errorf("%w: %q has nil ticker", ErrBadDomain, name)
	}
	for _, d := range e.domains {
		if d.name == name {
			return nil, fmt.Errorf("%w: duplicate name %q", ErrBadDomain, name)
		}
	}
	d := &Domain{name: name, period: period, next: e.now + period, ticker: t}
	if nw, ok := t.(NextWorker); ok {
		d.nw = nw
	}
	e.domains = append(e.domains, d)
	// Keep the probe order in sync here so trySkip never allocates inside
	// the cycle loop (the loop is asserted allocation-free).
	e.probeOrder = append(e.probeOrder, d)
	return d, nil
}

// step dispatches the earliest pending edge. With the handful of domains the
// models use, a linear scan beats a heap. Ties are broken by registration
// order, which keeps runs deterministic.
func (e *Engine) step() bool {
	if len(e.domains) == 0 || e.stopped {
		return false
	}
	min := e.domains[0]
	for _, d := range e.domains[1:] {
		if d.next < min.next {
			min = d
		}
	}
	e.now = min.next
	min.ticks++
	min.busy = false
	min.ticker.Tick(e.now)
	// Schedule the following edge using the (possibly just-changed) period.
	min.next = e.now + min.period
	return true
}

// elide arithmetically dispatches every edge of d strictly before cut:
// the tick count advances, the ticker replays its per-tick bookkeeping via
// SkipTicks, and the next scheduled edge lands on exactly the phase the
// edge-by-edge loop would have reached. Returns the number of elided edges.
func (e *Engine) elide(d *Domain, cut Time) uint64 {
	if d.next >= cut {
		return 0
	}
	k := uint64((cut - d.next + d.period - 1) / d.period)
	d.ticks += k
	d.next += Time(k) * d.period
	d.nw.SkipTicks(int64(k))
	return k
}

// trySkip performs one quiescence fast-forward when every domain is
// provably dead until some future edge: it elides all edges strictly before
// the earliest possible work edge, leaving that edge to be dispatched live
// by the normal loop (preserving the registration-order tie-break among
// same-time edges). Skip windows are clamped to the run's time limit: the
// edge-by-edge loop dispatches the first edge at or past the limit and then
// errors with now at that edge, so when that edge falls inside a window the
// fast-forward elides up to and including it — exactly one domain's edge,
// the scan's tie-break winner — sets now to it, and returns true so the
// caller's limit check fires at the identical instant. In all other cases
// it returns false and the caller dispatches the next edge normally.
func (e *Engine) trySkip(limit Time) bool {
	// Cached-busy pass first: while any domain is known busy at its next
	// edge no window can open, and not a single NextWork call is spent.
	for _, d := range e.domains {
		if d.busy {
			return false
		}
	}
	if len(e.probeOrder) != len(e.domains) {
		e.probeOrder = append(e.probeOrder[:0], e.domains...)
	}
	// Earliest edge at which any domain could change state.
	work := Never
	for i, d := range e.probeOrder {
		if d.nw == nil {
			return false // non-participating ticker: treat as always busy
		}
		nw := d.nw.NextWork(e.now)
		if nw <= d.next {
			d.busy = true
			if i > 0 {
				copy(e.probeOrder[1:i+1], e.probeOrder[:i])
				e.probeOrder[0] = d
			}
			return false // may work at its very next edge
		}
		if nw >= Never {
			continue
		}
		// First edge of d at or after nw.
		k := (nw - d.next + d.period - 1) / d.period
		if fw := d.next + k*d.period; fw < work {
			work = fw
		}
	}
	if work == Never && limit <= 0 {
		// Every domain is idle awaiting a wake that cannot come and there is
		// no limit to run into: mirror the edge-by-edge loop (which would
		// spin forever) rather than overflow the window arithmetic.
		return false
	}
	if limit > 0 && work > limit {
		// First edge at or past the limit, and its owning domain under
		// step()'s registration-order tie-break.
		var lim *Domain
		edge := Never
		for _, d := range e.domains {
			fe := d.next
			if fe < limit {
				k := (limit - d.next + d.period - 1) / d.period
				fe = d.next + k*d.period
			}
			if fe < edge {
				edge, lim = fe, d
			}
		}
		if edge < work {
			n := uint64(0)
			for _, d := range e.domains {
				n += e.elide(d, edge)
			}
			lim.ticks++
			lim.next += lim.period
			lim.nw.SkipTicks(1)
			e.now = edge
			e.skippedEdges += n + 1
			e.skipWindows++
			return true
		}
	}
	n := uint64(0)
	for _, d := range e.domains {
		n += e.elide(d, work)
	}
	if n > 0 {
		e.skippedEdges += n
		e.skipWindows++
	}
	return false
}

// Run advances the simulation until done returns true (checked after every
// dispatched edge), Stop is called, or the time limit is exceeded. It
// returns the final simulated time and an error if the limit was hit.
func (e *Engine) Run(limit Time, done func() bool) (Time, error) {
	if done == nil {
		done = func() bool { return false }
	}
	if len(e.domains) == 2 {
		return e.run2(limit, done)
	}
	for !done() && !e.stopped {
		if limit > 0 && e.now >= limit {
			return e.now, fmt.Errorf("sim: time limit %d ps exceeded at t=%d", limit, e.now)
		}
		if e.skip && e.trySkip(limit) {
			continue // fast-forwarded into the limit; the check above fires
		}
		if !e.step() {
			break
		}
	}
	return e.now, nil
}

// run2 is Run specialized for the ubiquitous two-domain (memory + compute)
// configuration: instead of re-scanning the domain slice per edge it picks
// between the two pointers directly. The tie-break is identical to step()'s
// scan — the first-registered domain wins on equal edge times — and no model
// registers domains mid-run, so hoisting the pair is safe.
func (e *Engine) run2(limit Time, done func() bool) (Time, error) {
	d0, d1 := e.domains[0], e.domains[1]
	skip := e.skip && d0.nw != nil && d1.nw != nil
	for !done() && !e.stopped {
		if limit > 0 && e.now >= limit {
			return e.now, fmt.Errorf("sim: time limit %d ps exceeded at t=%d", limit, e.now)
		}
		// Inline the cached-busy guard: while either domain is known busy
		// at its next edge no window can open, so the trySkip call (and
		// its slice walk) is pure per-edge overhead.
		if skip && !d0.busy && !d1.busy {
			if e.probeRest > 0 {
				e.probeRest--
			} else if e.trySkip(limit) {
				e.probeBackoff = 0
				continue
			} else {
				if e.probeBackoff < probeRestMax {
					e.probeBackoff = 2*e.probeBackoff + 1
				}
				e.probeRest = e.probeBackoff
			}
		}
		min := d0
		if d1.next < d0.next {
			min = d1
		}
		e.now = min.next
		min.ticks++
		min.busy = false
		min.ticker.Tick(e.now)
		min.next = e.now + min.period
	}
	return e.now, nil
}

// RunTicks advances the simulation by exactly n dispatched edges (across all
// domains), mainly for tests. It never skips: "n edges" means n Tick calls.
func (e *Engine) RunTicks(n int) Time {
	for i := 0; i < n; i++ {
		if !e.step() {
			break
		}
	}
	return e.now
}
