// Package mem provides the unified memory-port fabric shared by every
// processor model. Clients (the Millipede prefetch buffer, the cache MSHR
// fill path, the SIMT and multicore hierarchies) speak only the Port
// interface; System implements it as N address-interleaved channels, each an
// FR-FCFS memctrl.Controller over its own dram.DRAM bank set.
//
// The paper simulates one of the die-stacked part's 32 channels (Table III);
// real HMC/HBM stacks expose many vaults/channels, and how bandwidth scales
// with channel count is the first-class knob for die-stacked PNM studies
// (see DESIGN.md §7 on compute-boundedness). Interleaving is row-granular:
// consecutive 2 KB rows rotate across channels, so a row-sized prefetch
// lands wholly in one channel while a streaming scan engages all of them.
//
// With one channel the System is a strict pass-through around the single
// controller — same objects, same tick order, no request rewriting — so the
// 1-channel configuration is cycle-identical (and therefore bit-identical in
// benchmark output) to the pre-fabric direct path.
package mem

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/sim"
)

// Request is one request from a processor-side client. Done is called
// exactly once, on the channel-clock tick at which the last data beat has
// arrived, with the completion cycle and whether the access hit an open row.
// Write marks a store; the DRAM fabric times reads and writes identically
// (the modeled part's read/write turnaround is symmetric) so the System
// ignores it, but hierarchy backends (internal/stack) use it to track line
// dirtiness and writeback traffic. The BMLA kernels themselves never write
// DRAM — live state is on-processor — so on kernel runs it stays false.
type Request struct {
	Addr  uint32
	Bytes int
	Write bool
	Done  func(cycle int64, rowHit bool)
}

// Port is the memory fabric as seen by a client: enqueue a request (false
// means the target queue is full — retry later, modeling a stall), tick once
// per channel clock, and report idleness for drain loops. Both *System and
// *cache.Cache (fronting a Port) implement it.
type Port interface {
	Enqueue(Request) bool
	Tick()
	Idle() bool
}

// TraceEvent identifies a fabric trace event (see SetTracer).
type TraceEvent uint8

// Fabric trace events.
const (
	TraceIssue    TraceEvent = iota // controller dispatched a request to DRAM
	TraceReject                     // enqueue attempt found the queue full
	TraceRowOpen                    // bank activate
	TraceRowClose                   // bank precharge
)

// Tracer observes fabric events. For TraceIssue/TraceReject, addr is the
// channel-local byte address; for TraceRowOpen/TraceRowClose, bank and row
// identify the row buffer that changed state. Hooks run inline on the
// channel clock and must not re-enter the fabric.
type Tracer func(ch int, ev TraceEvent, addr uint32, bank int, row int64)

type channel struct {
	d   *dram.DRAM
	ctl *memctrl.Controller
}

// System is the multi-channel die-stacked memory system: N interleaved
// channels plus the functional word store for the input dataset. It is
// driven by Tick once per channel clock cycle (all channels share the
// channel clock, as the stack's vaults do).
type System struct {
	p        dram.Params
	n        int
	rowBytes int64
	chans    []channel
	store    *dram.DRAM
}

// New builds a system of the given channel count, each channel an FR-FCFS
// controller of the given queue depth, backing capacityBytes of addressable
// data.
func New(p dram.Params, channels, depth, capacityBytes int) (*System, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("mem: bad channel count %d", channels)
	}
	store, err := dram.New(p, capacityBytes)
	if err != nil {
		return nil, err
	}
	s := &System{p: p, n: channels, rowBytes: int64(p.RowBytes), store: store}
	for i := 0; i < channels; i++ {
		d := store
		if channels > 1 {
			// Per-channel DRAMs are timing-only: the functional words live
			// in s.store, so the channel banks carry zero capacity.
			if d, err = dram.New(p, 0); err != nil {
				return nil, err
			}
		}
		ctl, err := memctrl.New(d, depth)
		if err != nil {
			return nil, err
		}
		s.chans = append(s.chans, channel{d: d, ctl: ctl})
	}
	return s, nil
}

// Channels returns the channel count.
func (s *System) Channels() int { return s.n }

// Route maps a global byte address to its channel and channel-local byte
// address. Rows interleave round-robin across channels; the local address
// renumbers the channel's rows densely so per-channel bank interleave
// (row % banks) is not aliased by the channel stride.
func (s *System) Route(addr uint32) (ch int, local uint32) {
	if s.n == 1 {
		return 0, addr
	}
	row := int64(addr) / s.rowBytes
	return int(row % int64(s.n)),
		uint32((row/int64(s.n))*s.rowBytes + int64(addr)%s.rowBytes)
}

// Enqueue implements Port: it routes the request to the channel owning its
// row. With one channel it forwards the request untouched.
func (s *System) Enqueue(r Request) bool {
	if s.n == 1 {
		return s.chans[0].ctl.Enqueue(memctrl.Request{Addr: r.Addr, Bytes: r.Bytes, Done: r.Done})
	}
	if int64(r.Addr)%s.rowBytes+int64(r.Bytes) > s.rowBytes {
		// All model request streams are row-contained (2 KB row prefetches,
		// 64 B slabs, 128 B lines); a crossing request would silently get
		// one channel's timing for another channel's data.
		panic(fmt.Sprintf("mem: request %#x+%d crosses a row boundary", r.Addr, r.Bytes))
	}
	ch, local := s.Route(r.Addr)
	return s.chans[ch].ctl.Enqueue(memctrl.Request{Addr: local, Bytes: r.Bytes, Done: r.Done})
}

// Tick implements Port: it advances every channel one channel clock cycle.
//
// The schedule is harvest-all, deliver-all, issue-all: completions are first
// harvested on every channel, then delivered and issued in ascending channel
// order. A delivery callback that re-enters Enqueue therefore always lands
// after every channel's harvest and before that channel's issue, regardless
// of which channel it came from — one canonical order. With one channel this
// collapses to the plain controller tick (harvest, deliver, issue on the
// same controller), which is cycle-identical to the historical inline path.
func (s *System) Tick() {
	if s.n == 1 {
		s.chans[0].ctl.Tick()
		return
	}
	for i := range s.chans {
		s.chans[i].ctl.Harvest()
	}
	for i := range s.chans {
		s.chans[i].ctl.Deliver()
	}
	for i := range s.chans {
		s.chans[i].ctl.Issue()
	}
}

// Idle implements Port: true when no channel has queued or in-flight
// requests.
func (s *System) Idle() bool {
	for i := range s.chans {
		if !s.chans[i].ctl.Idle() {
			return false
		}
	}
	return true
}

// Pending returns the total number of queued (not yet issued) requests
// across channels.
func (s *System) Pending() int {
	n := 0
	for i := range s.chans {
		n += s.chans[i].ctl.Pending()
	}
	return n
}

// WouldAccept reports whether an Enqueue for addr would currently be
// accepted — the target channel's queue has room.
func (s *System) WouldAccept(addr uint32) bool {
	ch, _ := s.Route(addr)
	return s.chans[ch].ctl.WouldAccept()
}

// TallyRejects replays n elided rejected enqueues on addr's channel (see
// memctrl.Controller.TallyRejects).
func (s *System) TallyRejects(addr uint32, n uint64) {
	ch, _ := s.Route(addr)
	s.chans[ch].ctl.TallyRejects(n)
}

// NextWorkCycle returns the earliest future channel cycle at which any
// channel could change state — the min over the per-controller quiescence
// probes (all channels share the channel clock, so their cycle counters
// agree). memctrl.NeverCycle means the whole fabric is empty and only a new
// Enqueue can create work.
func (s *System) NextWorkCycle() int64 {
	w := memctrl.NeverCycle
	for i := range s.chans {
		c := s.chans[i].ctl.NextWorkCycle()
		if c < w {
			w = c
		}
	}
	return w
}

// SkipCycles replays n dead Ticks on every channel arithmetically.
func (s *System) SkipCycles(n int64) {
	for i := range s.chans {
		s.chans[i].ctl.SkipCycles(n)
	}
}

// Ticker adapts the System to the engine's clock-domain interface, including
// the quiescence protocol: the System's own cycle counts translate to edge
// times through the registered Domain (set Domain after sim.Engine.AddDomain
// returns). Both arch.Node and the multicore system register their memory
// clock through it.
type Ticker struct {
	Sys    *System
	Domain *sim.Domain
}

// Tick implements sim.Ticker.
func (t *Ticker) Tick(sim.Time) { t.Sys.Tick() }

// NextWork implements sim.NextWorker. The controller cycle counter equals
// the domain's tick count (one Tick per edge since reset), so cycle c maps
// to the domain's c'th rising edge.
func (t *Ticker) NextWork(sim.Time) sim.Time {
	c := t.Sys.NextWorkCycle()
	if c == memctrl.NeverCycle {
		return sim.Never
	}
	return t.Domain.TimeOfTick(uint64(c))
}

// SkipTicks implements sim.NextWorker.
func (t *Ticker) SkipTicks(n int64) { t.Sys.SkipCycles(n) }

// SetJitter threads the completion-jitter fault injection through every
// channel. Channel 0 uses the seed as given (so the single-channel system
// reproduces the direct controller's jitter stream exactly); later channels
// derive decorrelated streams from it.
func (s *System) SetJitter(max int64, seed uint64) {
	for i := range s.chans {
		s.chans[i].ctl.SetJitter(max, seed+uint64(i)*0x9E3779B97F4A7C15)
	}
}

// SetTracer installs an observer of fabric events on every channel; pass nil
// to disable.
func (s *System) SetTracer(t Tracer) {
	for i := range s.chans {
		if t == nil {
			s.chans[i].ctl.SetTracer(nil)
			s.chans[i].d.SetTracer(nil)
			continue
		}
		ch := i
		s.chans[i].ctl.SetTracer(func(ev memctrl.Event, addr uint32) {
			switch ev {
			case memctrl.EvIssue:
				t(ch, TraceIssue, addr, 0, 0)
			case memctrl.EvReject:
				t(ch, TraceReject, addr, 0, 0)
			}
		})
		s.chans[i].d.SetTracer(func(ev dram.Event, bank int, row int64) {
			switch ev {
			case dram.EvRowOpen:
				t(ch, TraceRowOpen, 0, bank, row)
			case dram.EvRowClose:
				t(ch, TraceRowClose, 0, bank, row)
			}
		})
	}
}

// --- Stats ---------------------------------------------------------------

// CtlStats returns the controller counters aggregated across channels
// (sums; MaxOccupancy is the max over channels).
func (s *System) CtlStats() memctrl.Stats {
	var agg memctrl.Stats
	for i := range s.chans {
		agg.Add(s.chans[i].ctl.Stats())
	}
	return agg
}

// DRAMStats returns the row-buffer and bandwidth counters aggregated across
// channels.
func (s *System) DRAMStats() dram.Stats {
	var agg dram.Stats
	for i := range s.chans {
		agg.Add(s.chans[i].d.Stats())
	}
	return agg
}

// RowMissRate returns the aggregate row-buffer miss rate.
func (s *System) RowMissRate() float64 { return s.DRAMStats().RowMissRate() }

// ChannelCtlStats returns channel i's controller counters.
func (s *System) ChannelCtlStats(i int) memctrl.Stats { return s.chans[i].ctl.Stats() }

// ChannelDRAMStats returns channel i's row-buffer counters.
func (s *System) ChannelDRAMStats(i int) dram.Stats { return s.chans[i].d.Stats() }

// --- Functional backing store --------------------------------------------

// Store returns the functional word store (the input dataset's home). With
// one channel it is also that channel's timing DRAM.
func (s *System) Store() *dram.DRAM { return s.store }

// ReadWord reads the word at byte address addr from the functional store.
func (s *System) ReadWord(addr uint32) uint32 { return s.store.ReadWord(addr) }

// WriteWord stores a word at byte address addr.
func (s *System) WriteWord(addr uint32, v uint32) { s.store.WriteWord(addr, v) }

// LoadWords bulk-copies the input dataset into memory starting at base.
func (s *System) LoadWords(base uint32, ws []uint32) { s.store.LoadWords(base, ws) }

// ReadRow copies the full row containing addr into dst.
func (s *System) ReadRow(addr uint32, dst []uint32) { s.store.ReadRow(addr, dst) }

// CapacityBytes returns the addressable backing-store size.
func (s *System) CapacityBytes() int { return s.store.CapacityBytes() }
