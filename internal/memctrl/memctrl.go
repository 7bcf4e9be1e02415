// Package memctrl implements the per-channel memory controller: a 16-deep
// FR-FCFS (first-ready, first-come-first-served) scheduler in front of the
// die-stacked DRAM channel (Table III). FR-FCFS prefers requests that hit
// the currently open row of a ready bank — the mechanism by which GPGPU's
// lockstep warps keep row locality while SSMC's strayed MIMD cores, whose
// 16-deep window rarely contains same-row requests, do not (Section II).
package memctrl

import (
	"fmt"
	"math/bits"

	"repro/internal/dram"
)

// Request is one read request from a processor-side client. The controller
// calls Done exactly once, on the channel-clock tick at which the last data
// beat has arrived.
type Request struct {
	Addr  uint32
	Bytes int
	// Done receives the completion cycle and whether the access hit an
	// open DRAM row. It runs in the memory clock domain.
	Done func(cycle int64, rowHit bool)
}

// queued requests stay in arrival order, which is what makes the single-pass
// FR-FCFS pick in Tick correct.
type queued struct {
	req Request
	at  int64 // enqueue cycle, for the queue-latency histogram
}

type inflight struct {
	doneAt int64
	hit    bool
	done   func(int64, bool)
}

// QueueLatBuckets is the number of power-of-two queue-latency histogram
// buckets; the last bucket absorbs everything >= 2^(QueueLatBuckets-2).
const QueueLatBuckets = 16

// Stats aggregates controller-level counters.
type Stats struct {
	Enqueued     uint64
	Issued       uint64
	Rejected     uint64 // enqueue attempts that found the queue full
	MaxOccupancy int
	// StallCycles counts ticks on which requests were waiting but none
	// could issue (banks busy), a contention indicator.
	StallCycles uint64
	// QueueLat is a power-of-two histogram of per-request queue residency:
	// channel cycles from Enqueue to FR-FCFS issue. Bucket 0 counts
	// zero-cycle issues, bucket i counts latencies in [2^(i-1), 2^i).
	QueueLat [QueueLatBuckets]uint64
}

// Add accumulates o into s, taking the max of MaxOccupancy. It is how a
// multi-channel memory system folds per-channel counters into an aggregate.
func (s *Stats) Add(o Stats) {
	s.Enqueued += o.Enqueued
	s.Issued += o.Issued
	s.Rejected += o.Rejected
	if o.MaxOccupancy > s.MaxOccupancy {
		s.MaxOccupancy = o.MaxOccupancy
	}
	s.StallCycles += o.StallCycles
	for i := range s.QueueLat {
		s.QueueLat[i] += o.QueueLat[i]
	}
}

// Controller schedules requests onto one DRAM channel. It is driven by
// Tick once per channel clock cycle.
type Controller struct {
	D     *dram.DRAM
	depth int
	queue []queued
	fly   []inflight
	// ready holds requests harvested (data arrived) but not yet delivered;
	// populated by Harvest, drained by Deliver.
	ready []inflight
	cycle int64
	// flyMin caches the earliest in-flight doneAt (NeverCycle when fly is
	// empty) so Harvest's sweep runs only on cycles with a completion due.
	flyMin int64
	// nextTry, when > cycle, records the min BankFreeAt found by an Issue
	// sweep that schedulable nothing: banks only change on this controller's
	// own Service calls, so the sweep provably fails until then. Enqueue and
	// a successful issue reset it to zero (unknown).
	nextTry int64
	stats   Stats
	// Fault injection: completion jitter (see SetJitter).
	jitterMax int64
	jitterRNG uint64
	tracer    func(ev Event, addr uint32)
}

// Event identifies a controller-level trace event (see SetTracer).
type Event uint8

// Controller trace events.
const (
	EvIssue  Event = iota // request dispatched to the DRAM channel
	EvReject              // enqueue attempt found the queue full
)

// SetTracer installs an observer of controller events. The hook runs inline
// on the channel clock; pass nil to disable. It must not re-enter the
// controller.
func (c *Controller) SetTracer(t func(ev Event, addr uint32)) { c.tracer = t }

// New returns a controller of the given queue depth over d.
func New(d *dram.DRAM, depth int) (*Controller, error) {
	if depth <= 0 {
		return nil, fmt.Errorf("memctrl: bad depth %d", depth)
	}
	// All three request lists are pre-sized so the steady-state tick
	// allocates nothing: the queue is bounded by depth, and the in-flight /
	// pending-delivery lists grow only if DRAM service overlap ever exceeds
	// twice the queue depth.
	return &Controller{
		D: d, depth: depth, flyMin: NeverCycle,
		queue: make([]queued, 0, depth),
		fly:   make([]inflight, 0, 2*depth),
		ready: make([]inflight, 0, 2*depth),
	}, nil
}

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// SetJitter enables deterministic fault injection: every completed request
// is delayed by an extra 0..max channel cycles drawn from a seeded xorshift
// stream. It models transient service-time variation (refresh collisions,
// thermal throttling) and is used by robustness tests to check that the
// processor models' correctness and flow-control invariants are
// latency-independent.
func (c *Controller) SetJitter(max int64, seed uint64) {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	c.jitterMax = max
	c.jitterRNG = seed
}

func (c *Controller) jitter() int64 {
	if c.jitterMax <= 0 {
		return 0
	}
	c.jitterRNG ^= c.jitterRNG >> 12
	c.jitterRNG ^= c.jitterRNG << 25
	c.jitterRNG ^= c.jitterRNG >> 27
	return int64((c.jitterRNG * 0x2545F4914F6CDD1D) % uint64(c.jitterMax+1))
}

// Cycle returns the current channel cycle (number of Ticks so far).
func (c *Controller) Cycle() int64 { return c.cycle }

// Pending returns the number of queued (not yet issued) requests.
func (c *Controller) Pending() int { return len(c.queue) }

// Idle reports whether no requests are queued, in flight, or awaiting
// delivery.
func (c *Controller) Idle() bool {
	return len(c.queue) == 0 && len(c.fly) == 0 && len(c.ready) == 0
}

// NeverCycle is the NextWorkCycle sentinel for "no self-generated work":
// only a new Enqueue (from another clock domain's tick) can create any.
const NeverCycle = int64(1<<63 - 1)

// NextWorkCycle returns the earliest future channel cycle (the next Tick is
// Cycle()+1) at which Tick could change state, computed arithmetically from
// the timing counters: the earliest in-flight completion (Harvest) and the
// earliest cycle a queued request's bank frees up (Issue). Cycles strictly
// before it only advance the cycle counter and, when requests are queued,
// the StallCycles tally — exactly what SkipCycles replays. Returns
// NeverCycle when the controller is empty.
func (c *Controller) NextWorkCycle() int64 {
	if len(c.ready) > 0 {
		return c.cycle + 1
	}
	w := NeverCycle
	if len(c.fly) > 0 {
		if c.flyMin <= c.cycle+1 {
			return c.cycle + 1
		}
		w = c.flyMin
	}
	if len(c.queue) > 0 {
		if c.nextTry <= c.cycle {
			// No proven stall bound: a queued request may issue on the
			// very next cycle.
			return c.cycle + 1
		}
		if c.nextTry < w {
			w = c.nextTry
		}
	}
	return w
}

// SkipCycles replays n dead Ticks arithmetically: the cycle counter
// advances and, when requests are waiting unschedulable, each elided cycle
// counts as a stall, matching Issue's per-tick bookkeeping bit for bit.
func (c *Controller) SkipCycles(n int64) {
	c.cycle += n
	if len(c.queue) > 0 {
		c.stats.StallCycles += uint64(n)
	}
}

// WouldAccept reports whether Enqueue would currently accept a request.
// The quiescence fast-forward uses it to prove a client's bounced retry
// will bounce again: the queue only drains on this controller's own work
// ticks, which end any skip window.
func (c *Controller) WouldAccept() bool { return len(c.queue) < c.depth }

// TallyRejects replays n elided rejected Enqueue attempts (a stalled client
// retrying inside a skip window), matching Enqueue's full-queue bookkeeping.
func (c *Controller) TallyRejects(n uint64) { c.stats.Rejected += n }

// Enqueue adds a request; it returns false (and drops the request) when the
// queue is full, in which case the client must retry — processor models
// translate that into a stall.
func (c *Controller) Enqueue(r Request) bool {
	if len(c.queue) >= c.depth {
		c.stats.Rejected++
		if c.tracer != nil {
			c.tracer(EvReject, r.Addr)
		}
		return false
	}
	c.queue = append(c.queue, queued{req: r, at: c.cycle})
	c.nextTry = 0 // new arrival: the stall proof no longer covers the queue
	c.stats.Enqueued++
	if len(c.queue) > c.stats.MaxOccupancy {
		c.stats.MaxOccupancy = len(c.queue)
	}
	return true
}

// Tick advances the controller one channel cycle: it completes any requests
// whose data has fully arrived, then issues at most one request chosen by
// FR-FCFS (first ready row hit, else oldest ready).
//
// Tick is equivalent to Harvest(); Deliver(); Issue(). The split exists for
// the multi-channel fabric's schedule: it harvests every channel before
// delivering any, then delivers and issues in canonical channel order (see
// mem.System.Tick).
func (c *Controller) Tick() {
	c.Harvest()
	c.Deliver()
	c.Issue()
}

// Harvest advances the controller's cycle and moves every request whose data
// has fully arrived from the in-flight set to the pending-delivery list, in
// the same scan order Tick historically delivered them. No client callbacks
// run; Harvest only touches controller-private state.
func (c *Controller) Harvest() {
	c.cycle++
	if c.cycle < c.flyMin {
		return // nothing due: sweeping would move nothing
	}
	min := NeverCycle
	for i := 0; i < len(c.fly); {
		if c.fly[i].doneAt <= c.cycle {
			f := c.fly[i]
			c.fly[i] = c.fly[len(c.fly)-1]
			c.fly = c.fly[:len(c.fly)-1]
			c.ready = append(c.ready, f)
			continue
		}
		if c.fly[i].doneAt < min {
			min = c.fly[i].doneAt
		}
		i++
	}
	c.flyMin = min
}

// Deliver invokes the Done callback of every request harvested this cycle,
// in harvest order. Callbacks may re-enter Enqueue.
func (c *Controller) Deliver() {
	for i := range c.ready {
		f := &c.ready[i]
		if f.done != nil {
			f.done(c.cycle, f.hit)
		}
	}
	c.ready = c.ready[:0]
}

// Issue dispatches at most one queued request chosen by FR-FCFS (first ready
// row hit, else oldest ready).
func (c *Controller) Issue() {
	if len(c.queue) == 0 {
		return
	}
	// FR-FCFS pick, in one pass: the queue is kept in arrival order (append
	// on enqueue, order-preserving splice on issue), so the oldest ready
	// request is simply the first ready one; a ready row hit anywhere ahead
	// of it still wins.
	if c.nextTry > c.cycle {
		// The last sweep proved every queued request's bank busy until
		// nextTry, and banks haven't been touched since.
		c.stats.StallCycles++
		return
	}
	pick := -1
	firstReady := -1
	minFree := NeverCycle
	for i := range c.queue {
		q := &c.queue[i]
		if f := c.D.BankFreeAt(q.req.Addr); f > c.cycle {
			if f < minFree {
				minFree = f
			}
			continue
		}
		if c.D.IsRowHit(q.req.Addr) {
			pick = i
			break
		}
		if firstReady < 0 {
			firstReady = i
		}
	}
	if pick < 0 {
		pick = firstReady
	}
	if pick < 0 {
		c.nextTry = minFree
		c.stats.StallCycles++
		return
	}
	c.nextTry = 0
	q := c.queue[pick]
	c.queue = append(c.queue[:pick], c.queue[pick+1:]...)
	if b := bits.Len64(uint64(c.cycle - q.at)); b < QueueLatBuckets {
		c.stats.QueueLat[b]++
	} else {
		c.stats.QueueLat[QueueLatBuckets-1]++
	}
	if c.tracer != nil {
		c.tracer(EvIssue, q.req.Addr)
	}
	done, hit := c.D.Service(c.cycle, q.req.Addr, q.req.Bytes)
	at := done + c.jitter()
	c.fly = append(c.fly, inflight{doneAt: at, hit: hit, done: q.req.Done})
	if at < c.flyMin {
		c.flyMin = at
	}
	c.stats.Issued++
}
