package stack

import "repro/internal/memctrl"

// backing is the shared planar backing-store timing model: a fixed access
// latency plus a single pipelined pin-bandwidth channel. Reads occupy the
// bus for ceil(bytes/BytesPerCycle) cycles — slots serialize on busFree, so
// steady-state throughput is exactly the pin bandwidth while the latency of
// each access overlaps with its neighbours' transfers. Writes are posted:
// they reserve a bus slot and complete immediately (a write buffer is
// assumed), so only reads occupy the in-flight table.
//
// Determinism: the in-flight table is harvested with the same scan-and-swap
// scheme as memctrl, so completion order is a pure function of issue order,
// and all state advances only on tick / enqueue edges — skip windows stay
// provably safe.
type backing struct {
	p       BackingParams
	cycle   int64
	busFree int64

	fly    []backFlight
	flyMin int64
	ready  []backFlight

	stats BackingStats
}

type backFlight struct {
	doneAt int64
	done   func(cycle int64, rowHit bool) // nil: nobody waits
}

// BackingStats counts planar traffic.
type BackingStats struct {
	Reads        uint64
	Writes       uint64
	BytesRead    uint64
	BytesWritten uint64
	MaxInFlight  int
}

func newBacking(p BackingParams) *backing {
	p = p.withDefaults()
	return &backing{
		p:      p,
		flyMin: memctrl.NeverCycle,
		fly:    make([]backFlight, 0, p.Outstanding),
		ready:  make([]backFlight, 0, p.Outstanding),
	}
}

func (b *backing) transferCycles(bytes int) int64 {
	return int64((bytes + b.p.BytesPerCycle - 1) / b.p.BytesPerCycle)
}

func (b *backing) wouldAcceptRead() bool { return len(b.fly) < b.p.Outstanding }

// read schedules a planar read; done (a mem.Request's Done, or nil) fires
// on the tick the data returns, with rowHit false. Callers hand over a
// callback they already hold, so a read allocates nothing.
func (b *backing) read(bytes int, done func(cycle int64, rowHit bool)) bool {
	if !b.wouldAcceptRead() {
		return false
	}
	start := b.cycle
	if b.busFree > start {
		start = b.busFree
	}
	b.busFree = start + b.transferCycles(bytes)
	at := b.busFree + int64(b.p.LatencyCycles)
	b.fly = append(b.fly, backFlight{doneAt: at, done: done})
	if at < b.flyMin {
		b.flyMin = at
	}
	if len(b.fly) > b.stats.MaxInFlight {
		b.stats.MaxInFlight = len(b.fly)
	}
	b.stats.Reads++
	b.stats.BytesRead += uint64(bytes)
	return true
}

// write posts a planar write: it consumes a bus slot but never blocks and
// never completes back to the caller.
func (b *backing) write(bytes int) {
	start := b.cycle
	if b.busFree > start {
		start = b.busFree
	}
	b.busFree = start + b.transferCycles(bytes)
	b.stats.Writes++
	b.stats.BytesWritten += uint64(bytes)
}

// tick advances one channel cycle and delivers due reads in a deterministic
// scan order (the same scan-and-swap harvest memctrl uses).
// Callbacks may re-enter read/write (e.g. an HWCache install posting a
// writeback); they act on the post-harvest state of the current cycle.
func (b *backing) tick() {
	b.cycle++
	if b.cycle < b.flyMin {
		return
	}
	min := int64(memctrl.NeverCycle)
	for i := 0; i < len(b.fly); {
		f := b.fly[i]
		if f.doneAt <= b.cycle {
			b.ready = append(b.ready, f)
			last := len(b.fly) - 1
			b.fly[i] = b.fly[last]
			b.fly[last] = backFlight{}
			b.fly = b.fly[:last]
			continue
		}
		if f.doneAt < min {
			min = f.doneAt
		}
		i++
	}
	b.flyMin = min
	for i := range b.ready {
		if done := b.ready[i].done; done != nil {
			done(b.cycle, false)
		}
		b.ready[i] = backFlight{}
	}
	b.ready = b.ready[:0]
}

// nextWorkCycle reports the earliest future cycle on which the backing
// store changes state on its own (the soonest read completion).
func (b *backing) nextWorkCycle() int64 {
	if len(b.fly) == 0 {
		return memctrl.NeverCycle
	}
	if b.flyMin <= b.cycle+1 {
		return b.cycle + 1
	}
	return b.flyMin
}

// skip advances the cycle counter across a quiescent window.
func (b *backing) skip(n int64) { b.cycle += n }

func (b *backing) idle() bool { return len(b.fly) == 0 }
