// Package prefetch implements Millipede's row-oriented, flow-controlled,
// cross-corelet prefetch buffer — the paper's second and third contributions
// (Sections IV-B and IV-C).
//
// The buffer is a circular queue of row-sized entries shared by all corelets
// of one Millipede processor. Entire DRAM rows are prefetched sequentially;
// each entry is sliced into per-corelet slabs (e.g., 2 KB row / 32 corelets
// = 64 B = 16 words per slab), so a corelet only ever touches its own slice.
// Row r always occupies queue slot r mod Entries. Two pieces of per-entry
// state implement the paper's mechanisms:
//
//   - PFT (prefetch-trigger) bit: a full-empty bit set when an entry is
//     allocated. The first demand access to the tail entry that finds it set
//     triggers the prefetch of the next sequential row and clears it, so
//     redundant triggers are suppressed (like an MSHR).
//
//   - DF (demand-fetch) counter: counts corelets that have fully consumed
//     their slab of the entry. With flow control enabled, the head entry
//     that the next prefetch would re-allocate must have a saturated DF
//     counter (== corelet count); otherwise the trigger is deferred — the
//     PFT bit stays set and a later access retries (Figure 2's timeline).
//     When the head's DF saturates, the deferred trigger fires.
//
// With flow control disabled (the paper's Millipede-no-flow-control
// ablation), re-allocation proceeds unconditionally; a lagging corelet then
// misses on the prematurely evicted row and is exposed to die-stacked
// memory latency (Section IV-C): its slab is demand re-fetched at 64 B
// granularity, forwarded, and latched in a per-corelet snoop buffer rather
// than re-buffered in the queue. Data of an outstanding prefetch whose
// entry was re-allocated is likewise forwarded to its waiters.
//
// The buffer also exports the two occupancy signals the coarse-grain
// rate-matching controller (Section IV-F) feeds on: Starved events (a
// demand access had to wait on DRAM — memory-bound) and FlowBlocks events
// (flow control deferred a trigger — compute-bound).
package prefetch

import (
	"fmt"

	"repro/internal/mem"
)

// Config sizes a Buffer.
type Config struct {
	Entries     int  // circular-queue depth (16 in Table III)
	Corelets    int  // slabs per entry (32)
	RowBytes    int  // 2048
	FlowControl bool // the paper's DF-counter flow control
	// MaxWaiters sizes the waiter arena every wait-list draws from
	// (normally the processor's total context count — every hardware thread
	// blocks on at most one row at a time). Zero defaults to Corelets.
	// Purely a steady-state-allocation hint; the arena grows past it if
	// ever needed.
	MaxWaiters int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Entries < 2:
		return fmt.Errorf("prefetch: need >= 2 entries, got %d", c.Entries)
	case c.Corelets <= 0:
		return fmt.Errorf("prefetch: bad corelet count %d", c.Corelets)
	case c.RowBytes <= 0 || c.RowBytes%4 != 0:
		return fmt.Errorf("prefetch: bad row size %d", c.RowBytes)
	case (c.RowBytes/4)%c.Corelets != 0:
		return fmt.Errorf("prefetch: row of %d words not divisible into %d slabs", c.RowBytes/4, c.Corelets)
	case c.RowBytes/4/c.Corelets > 64:
		return fmt.Errorf("prefetch: slab of %d words exceeds 64-word consumption bitmap", c.RowBytes/4/c.Corelets)
	}
	return nil
}

// SlabWords returns words per corelet slab.
func (c Config) SlabWords() int { return c.RowBytes / 4 / c.Corelets }

// Result of an Access.
type Result int

const (
	// Ready: the word is in the buffer; the corelet proceeds this cycle.
	Ready Result = iota
	// Waiting: the word's row is in flight or not yet allocated; the
	// callback fires when the data is available.
	Waiting
)

// Stats counts buffer events.
type Stats struct {
	Prefetches       uint64 // sequential row prefetches issued
	DemandRowFetches uint64 // no-flow-control demand fetches after premature eviction
	PrematureEvicts  uint64 // re-allocations with unsaturated DF counters
	FlowBlocks       uint64 // triggers deferred by flow control
	Starved          uint64 // demand accesses that had to wait ("buffers empty")
	ReadyHits        uint64
	StashHits        uint64 // no-flow-control snoop-latch hits
	TriggerClears    uint64 // PFT bits cleared by successful triggers
	FetchRejects     uint64 // fetches bounced off a full controller queue
	MaxDF            uint64 // highest DF counter value ever observed (invariant: <= Corelets)
}

type waiter struct {
	corelet int
	slot    int
	cb      func()
}

// node is one waiter arena slot; next links it to the following node of its
// wait-list or of the free list (0 ends a list: node 0 is never used).
type node struct {
	w    waiter
	next int32
}

// waitList is a FIFO of arena nodes, served in the order they were added;
// the zero value is empty.
type waitList struct{ head, tail int32 }

func (l waitList) empty() bool { return l.head == 0 }

type entry struct {
	row      int64 // -1 unallocated
	filled   bool
	pft      bool
	df       int
	consumed []uint64 // per-corelet bitmap of consumed slab words
	waiters  waitList
}

// reset tags e with row. An entry is reset only once its waiters have been
// served (a fill) or parked in future (evictWaiters).
func (e *entry) reset(row int64) {
	e.row = row
	e.filled = false
	e.pft = true
	e.df = 0
	for i := range e.consumed {
		e.consumed[i] = 0
	}
	e.waiters = waitList{}
}

// futureRow is one parked wait-list: corelets waiting on a row not currently
// resident in the queue.
type futureRow struct {
	row     int64
	waiters waitList
}

// Buffer is the shared prefetch buffer of one Millipede processor.
type Buffer struct {
	cfg     Config
	port    mem.Port
	entries []entry
	// Input region, in rows.
	baseRow, rowCount int64
	rowBytes          int64
	// rowShift is log2(rowBytes) when the row size is a power of two (the
	// hardware case), letting Access turn the address-to-row division into a
	// shift; 0 means divide.
	rowShift uint
	// fullMask has one bit per slab word: the consumed bitmap value at which
	// a corelet's slab counts as fully consumed.
	fullMask uint64
	// nextRow is the next row index (relative to baseRow) to prefetch; the
	// tail entry holds nextRow-1 and the head (eviction candidate) slot is
	// nextRow mod Entries.
	nextRow int64
	// future holds corelets waiting on rows not currently resident: rows
	// beyond the window (flow-control back-pressure on leaders) or rows
	// evicted from under a pending fetch (no-flow-control mode). At most a
	// handful of rows are ever parked at once, so a linear scan beats a map;
	// the list is unordered (only keyed lookups, never iterated for effect).
	future []futureRow
	// nodes is the arena every wait-list (the entries' and the parked
	// rows') links its waiters through, and free heads its unused nodes.
	// Each context waits on at most one row at a time, so MaxWaiters nodes
	// serve every list and the park/serve cycle never allocates.
	nodes []node
	free  int32
	// inFlight marks outstanding fetches: key = row*256 + corelet for slab
	// demand fetches, row*256 + 255 for full-row prefetches. Bounded by
	// Entries outstanding row fetches + Corelets slab fetches, so a small
	// unordered slice replaces the map.
	inFlight []int64
	// pending are fetches bounced off a full controller queue, retried by
	// Pump (same key encoding as inFlight).
	pending []int64
	// prober is the port's optional stall-probe capability (mem.System has
	// it); nil keeps bounced fetches on the quiescence busy path.
	prober stallProber
	// ctxFree recycles fetch-context objects (see fetchCtx); pre-seeded to
	// the in-flight bound so steady-state issues allocate nothing.
	ctxFree []*fetchCtx
	// stash is the per-corelet snoop latch: without flow control, a
	// prematurely evicted row is demand re-fetched and forwarded rather
	// than re-buffered; each requesting corelet latches its slab of the
	// passing fill (64 B), so its subsequent words of that row hit the
	// latch instead of re-fetching (Section IV-C: lagging corelets are
	// "exposed to die-stacked memory latency").
	stash []int64
	stats Stats
	// trace observes buffer events when installed (nil = off): kind is
	// "prefetch", "flow-block", "starve", or "evict".
	trace func(kind string, row int64)
}

// New creates a buffer reading through the given memory port; Start must be
// called before use.
func New(cfg Config, port mem.Port) (*Buffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if port == nil {
		return nil, fmt.Errorf("prefetch: nil memory port")
	}
	b := &Buffer{
		cfg:      cfg,
		port:     port,
		fullMask: uint64(1)<<uint(cfg.SlabWords()) - 1,
	}
	b.prober, _ = port.(stallProber)
	maxW := cfg.MaxWaiters
	if maxW <= 0 {
		maxW = cfg.Corelets
	}
	b.entries = make([]entry, cfg.Entries)
	for i := range b.entries {
		b.entries[i].row = -1
		b.entries[i].consumed = make([]uint64, cfg.Corelets)
	}
	// Without flow control lagging corelets spread across many rows, but
	// each (corelet, context) parks on at most one, so at most Entries +
	// Corelets rows are parked at once in practice.
	b.future = make([]futureRow, 0, cfg.Entries+cfg.Corelets)
	b.nodes = make([]node, maxW+1)
	for i := 1; i < maxW; i++ {
		b.nodes[i].next = int32(i + 1)
	}
	b.free = 1
	b.stash = make([]int64, cfg.Corelets)
	for i := range b.stash {
		b.stash[i] = -1
	}
	bound := cfg.Entries + cfg.Corelets + 1
	b.inFlight = make([]int64, 0, bound)
	b.pending = make([]int64, 0, bound)
	b.ctxFree = make([]*fetchCtx, 0, bound)
	for i := 0; i < bound; i++ {
		b.ctxFree = append(b.ctxFree, newFetchCtx(b))
	}
	return b, nil
}

// fetchCtx carries the (row, who) identity of one outstanding fetch into the
// memory system's completion callback. The closure is built once per context
// and contexts recycle through ctxFree, so a fetch issue allocates nothing
// once the pool is warm (it is pre-seeded to the in-flight bound: Entries
// row fetches + Corelets slab fetches).
type fetchCtx struct {
	row  int64
	who  int
	done func(int64, bool)
}

func newFetchCtx(b *Buffer) *fetchCtx {
	c := &fetchCtx{}
	c.done = func(int64, bool) {
		b.arrive(c.row, c.who)
		b.ctxFree = append(b.ctxFree, c)
	}
	return c
}

// Stats returns a copy of the event counters.
func (b *Buffer) Stats() Stats { return b.stats }

// Config returns the buffer configuration.
func (b *Buffer) Config() Config { return b.cfg }

// SetTracer installs a buffer-event observer.
func (b *Buffer) SetTracer(t func(kind string, row int64)) { b.trace = t }

func (b *Buffer) emit(kind string, row int64) {
	if b.trace != nil {
		b.trace(kind, row)
	}
}

// Start begins streaming the input region [base, base+bytes) and issues the
// initial prefetches that fill the queue.
func (b *Buffer) Start(base uint32, bytes int) error {
	if int64(base)%int64(b.cfg.RowBytes) != 0 {
		return fmt.Errorf("prefetch: base %#x not row-aligned", base)
	}
	b.rowBytes = int64(b.cfg.RowBytes)
	b.rowShift = 0
	if b.rowBytes&(b.rowBytes-1) == 0 {
		for 1<<b.rowShift < b.rowBytes {
			b.rowShift++
		}
	}
	b.baseRow = int64(base) / b.rowBytes
	b.rowCount = (int64(bytes) + b.rowBytes - 1) / b.rowBytes
	b.nextRow = 0
	n := int64(b.cfg.Entries)
	if n > b.rowCount {
		n = b.rowCount
	}
	for i := int64(0); i < n; i++ {
		b.allocate()
	}
	return nil
}

// slotOf returns the circular-queue slot for relative row r.
func (b *Buffer) slotOf(r int64) int { return int(r % int64(b.cfg.Entries)) }

// futureIdx returns the index of row's parked wait-list, or -1.
func (b *Buffer) futureIdx(row int64) int {
	for i := range b.future {
		if b.future[i].row == row {
			return i
		}
	}
	return -1
}

// push appends w to l, in a node from the free list; the arena grows only
// when more waiters are live than it was sized for.
func (b *Buffer) push(l *waitList, w waiter) {
	n := b.free
	if n == 0 {
		b.nodes = append(b.nodes, node{})
		n = int32(len(b.nodes) - 1)
	} else {
		b.free = b.nodes[n].next
	}
	b.nodes[n] = node{w: w}
	if l.tail == 0 {
		l.head = n
	} else {
		b.nodes[l.tail].next = n
	}
	l.tail = n
}

// pop removes l's first waiter and frees its node. The waiter is returned
// by value, so a callback it fires may reuse the node.
func (b *Buffer) pop(l *waitList) waiter {
	n := l.head
	w := b.nodes[n].w
	l.head = b.nodes[n].next
	if l.head == 0 {
		l.tail = 0
	}
	b.nodes[n] = node{next: b.free}
	b.free = n
	return w
}

// splice moves src's waiters, in order, to the end of dst.
func (b *Buffer) splice(dst *waitList, src waitList) {
	if src.empty() {
		return
	}
	if dst.tail == 0 {
		dst.head = src.head
	} else {
		b.nodes[dst.tail].next = src.head
	}
	dst.tail = src.tail
}

// addFuture parks one waiter on a non-resident row.
func (b *Buffer) addFuture(row int64, w waiter) {
	i := b.futureIdx(row)
	if i < 0 {
		i = len(b.future)
		b.future = append(b.future, futureRow{row: row})
	}
	b.push(&b.future[i].waiters, w)
}

// takeFuture detaches and returns row's parked wait-list (empty if none).
// Detaching first keeps the list safe against b.future mutations from
// callbacks fired while the caller serves it.
func (b *Buffer) takeFuture(row int64) waitList {
	i := b.futureIdx(row)
	if i < 0 {
		return waitList{}
	}
	ws := b.future[i].waiters
	last := len(b.future) - 1
	b.future[i] = b.future[last]
	b.future[last] = futureRow{}
	b.future = b.future[:last]
	return ws
}

// evictWaiters parks an entry's outstanding waiters in future; the data they
// asked for is forwarded when the row's in-flight (or Pump-pending) fetch
// arrives. Waiters exist only on unfilled entries, which by construction
// always have an in-flight or pending fetch.
func (b *Buffer) evictWaiters(e *entry) {
	if e.waiters.empty() {
		return
	}
	if i := b.futureIdx(e.row); i >= 0 {
		b.splice(&b.future[i].waiters, e.waiters)
	} else {
		b.future = append(b.future, futureRow{row: e.row, waiters: e.waiters})
	}
	e.waiters = waitList{}
}

// allocate assigns nextRow to its slot and issues the fetch. The caller has
// already checked flow-control eligibility.
func (b *Buffer) allocate() {
	r := b.nextRow
	b.nextRow++
	e := &b.entries[b.slotOf(r)]
	if e.row >= 0 && e.df < b.cfg.Corelets {
		b.stats.PrematureEvicts++
		b.emit("evict", e.row)
		b.evictWaiters(e)
	}
	e.reset(r)
	b.adoptFuture(e)
	b.issueRow(r)
	b.stats.Prefetches++
	b.emit("prefetch", r)
}

const fullRowKey = 255

// issueRow sends the full-row prefetch for row, unless one is already
// outstanding; a rejection by the controller queues it for Pump.
func (b *Buffer) issueRow(row int64) { b.issue(row, fullRowKey) }

// issueSlab sends a 64 B demand fetch of corelet c's slab of row
// (no-flow-control laggard path).
func (b *Buffer) issueSlab(row int64, c int) { b.issue(row, c) }

func (b *Buffer) issue(row int64, who int) {
	key := row*256 + int64(who)
	for _, k := range b.inFlight {
		if k == key {
			return
		}
	}
	addr := uint32((b.baseRow + row) * b.rowBytes)
	bytes := b.cfg.RowBytes
	if who != fullRowKey {
		bytes = b.cfg.SlabWords() * 4
		addr += uint32(who * bytes)
	}
	n := len(b.ctxFree)
	if n == 0 {
		b.ctxFree = append(b.ctxFree, newFetchCtx(b))
		n = 1
	}
	c := b.ctxFree[n-1]
	b.ctxFree = b.ctxFree[:n-1]
	c.row, c.who = row, who
	ok := b.port.Enqueue(mem.Request{Addr: addr, Bytes: bytes, Done: c.done})
	if !ok {
		b.ctxFree = append(b.ctxFree, c)
		b.stats.FetchRejects++
		b.pending = append(b.pending, key)
		return
	}
	b.inFlight = append(b.inFlight, key)
}

// PumpPending returns the number of bounced fetches awaiting a Pump retry.
// The owning processor's quiescence probe treats any pending retry as work
// on its very next cycle.
func (b *Buffer) PumpPending() int { return len(b.pending) }

// stallProber is the optional port capability the quiescence fast-forward
// uses to prove a bounced fetch will bounce again: the target queue is
// still full, and only channel-domain work ticks (which end any skip
// window) can drain it.
type stallProber interface {
	WouldAccept(addr uint32) bool
	TallyRejects(addr uint32, n uint64)
}

// keyAddr recomputes the request address issue() built for a pending key.
func (b *Buffer) keyAddr(k int64) uint32 {
	row, who := k/256, int(k%256)
	addr := uint32((b.baseRow + row) * b.rowBytes)
	if who != fullRowKey {
		addr += uint32(who * b.cfg.SlabWords() * 4)
	}
	return addr
}

// PumpStalled reports whether every bounced fetch would provably bounce
// again this instant (its channel queue is still full). False when nothing
// is pending or the port cannot be probed.
func (b *Buffer) PumpStalled() bool {
	if b.prober == nil || len(b.pending) == 0 {
		return false
	}
	for _, k := range b.pending {
		if b.prober.WouldAccept(b.keyAddr(k)) {
			return false
		}
	}
	return true
}

// SkipPumpTicks replays n elided Pump calls taken under PumpStalled: per
// elided cycle every pending fetch re-issues and is rejected, so each
// tallies one fetch reject here and one enqueue reject on its channel —
// exactly Pump's per-cycle bookkeeping against a full queue, with the
// pending set, its order, and the context freelist left untouched.
func (b *Buffer) SkipPumpTicks(n int64) {
	if n <= 0 {
		return
	}
	for _, k := range b.pending {
		b.stats.FetchRejects += uint64(n)
		b.prober.TallyRejects(b.keyAddr(k), uint64(n))
	}
}

// Pump retries fetches that bounced off a full controller queue. The owning
// processor calls it once per cycle.
func (b *Buffer) Pump() {
	if len(b.pending) == 0 {
		return
	}
	keys := b.pending
	b.pending = b.pending[:0]
	for _, k := range keys {
		b.issue(k/256, int(k%256))
	}
}

// arrive completes a fetch. A full-row arrival fills the entry if the row
// still owns its slot and forwards to everyone parked on the row; a slab
// arrival latches into the requesting corelet's stash and wakes only its
// own waiters.
func (b *Buffer) arrive(row int64, who int) {
	key := row*256 + int64(who)
	for i, k := range b.inFlight {
		if k == key {
			last := len(b.inFlight) - 1
			b.inFlight[i] = b.inFlight[last]
			b.inFlight = b.inFlight[:last]
			break
		}
	}
	if who == fullRowKey {
		e := &b.entries[b.slotOf(row)]
		if e.row == row && !e.filled {
			e.filled = true
			ws := e.waiters
			e.waiters = waitList{}
			for !ws.empty() {
				w := b.pop(&ws)
				b.consume(e, w.corelet, w.slot)
				if w.cb != nil {
					w.cb()
				}
			}
		}
		ws := b.takeFuture(row)
		for !ws.empty() {
			w := b.pop(&ws)
			b.stash[w.corelet] = row
			if w.cb != nil {
				w.cb()
			}
		}
		return
	}
	// Slab arrival: serve this corelet's waiters for the row, re-parking the
	// rest in order. The list is detached up front so callbacks are free to
	// touch b.future.
	ws := b.takeFuture(row)
	var rest waitList
	for !ws.empty() {
		w := b.pop(&ws)
		if w.corelet != who {
			b.push(&rest, w)
			continue
		}
		b.stash[who] = row
		if w.cb != nil {
			w.cb()
		}
	}
	if !rest.empty() {
		b.future = append(b.future, futureRow{row: row, waiters: rest})
	}
}

// consume marks one slab word consumed and maintains the DF counter; a head
// entry whose counter saturates fires any flow-control-deferred trigger.
func (b *Buffer) consume(e *entry, corelet, slot int) {
	bit := uint64(1) << uint(slot)
	if e.consumed[corelet]&bit != 0 {
		return
	}
	e.consumed[corelet] |= bit
	if e.consumed[corelet] == b.fullMask {
		e.df++
		if uint64(e.df) > b.stats.MaxDF {
			b.stats.MaxDF = uint64(e.df)
		}
		if b.cfg.FlowControl && e.df >= b.cfg.Corelets && b.slotOf(b.nextRow) == b.slotOf(e.row) {
			b.tryDeferredTrigger()
		}
	}
}

// headConsumed reports whether the entry the next prefetch would replace is
// fully consumed (DF saturated) or free.
func (b *Buffer) headConsumed() bool {
	e := &b.entries[b.slotOf(b.nextRow)]
	return e.row < 0 || e.df >= b.cfg.Corelets
}

// advance allocates the next prefetch if the stream is not exhausted and
// flow control permits.
func (b *Buffer) advance() (allocated, exhausted bool) {
	if b.nextRow >= b.rowCount {
		return false, true
	}
	if b.cfg.FlowControl && !b.headConsumed() {
		b.stats.FlowBlocks++
		b.emit("flow-block", b.nextRow)
		return false, false
	}
	b.allocate()
	return true, false
}

// tryDeferredTrigger fires a trigger that flow control deferred: while the
// stream is live the tail entry keeps its PFT bit set until its trigger
// succeeds, so once the head is consumed the window can advance. This is the
// paper's "later demand access to the tail issues the next prefetch", made
// robust for the case where the saturating consumption happened on a fill
// callback and no later tail access exists.
func (b *Buffer) tryDeferredTrigger() bool {
	if b.nextRow >= b.rowCount || b.nextRow == 0 {
		return false
	}
	tail := &b.entries[b.slotOf(b.nextRow-1)]
	if tail.row != b.nextRow-1 || !tail.pft {
		return false
	}
	if b.cfg.FlowControl && !b.headConsumed() {
		return false
	}
	b.allocate()
	tail.pft = false
	b.stats.TriggerClears++
	return true
}

// Access requests the word at byte address addr on behalf of corelet c; slot
// is the word's index within the corelet's slab (0..SlabWords-1), which the
// corelet model derives from its context and stream position. On Waiting,
// cb fires when the word becomes available (in the memory clock domain).
func (b *Buffer) Access(c int, slot int, addr uint32, cb func()) Result {
	var row int64
	if b.rowShift != 0 {
		row = int64(addr)>>b.rowShift - b.baseRow
	} else {
		row = int64(addr)/b.rowBytes - b.baseRow
	}
	if row < 0 || row >= b.rowCount {
		panic(fmt.Sprintf("prefetch: access %#x outside streamed region", addr))
	}
	e := &b.entries[b.slotOf(row)]
	if e.row == row {
		// First demand access to the tail entry triggers the next row's
		// prefetch (Section IV-C); flow control may defer it, leaving the
		// PFT bit set for a later retry. The allocation targets a
		// different slot (Entries >= 2), so e remains this row's entry.
		if e.pft && row == b.nextRow-1 {
			if allocated, exhausted := b.advance(); allocated || exhausted {
				e.pft = false
				b.stats.TriggerClears++
			}
		}
		if e.filled {
			b.consume(e, c, slot)
			b.stats.ReadyHits++
			return Ready
		}
		b.push(&e.waiters, waiter{c, slot, cb})
		b.stats.Starved++
		return Waiting
	}
	if row >= b.nextRow {
		// A leading corelet ran past the prefetched window. Without flow
		// control the window simply chases the demand; with flow control
		// it advances only as far as consumed heads allow, and the corelet
		// parks until the row's future allocation.
		if b.cfg.FlowControl {
			for row >= b.nextRow && b.tryDeferredTrigger() {
			}
		} else {
			for row >= b.nextRow {
				b.allocate()
			}
		}
		if e := &b.entries[b.slotOf(row)]; e.row == row {
			if e.filled {
				b.consume(e, c, slot)
				b.stats.ReadyHits++
				return Ready
			}
			b.push(&e.waiters, waiter{c, slot, cb})
			b.stats.Starved++
			return Waiting
		}
		b.addFuture(row, waiter{c, slot, cb})
		b.stats.Starved++
		return Waiting
	}
	// Lagging corelet: the row was prematurely evicted (only possible
	// without flow control). A demand re-fetch forwards the data without
	// re-buffering it — the corelet latches its slab from the passing
	// fill — so the laggard pays the DRAM latency the paper describes
	// without evicting rows other corelets are still consuming.
	if b.stash[c] == row {
		b.stats.StashHits++
		return Ready
	}
	b.stats.DemandRowFetches++
	b.addFuture(row, waiter{c, slot, cb})
	b.issueSlab(row, c)
	b.stats.Starved++
	return Waiting
}

// adoptFuture moves waiters of the row just tagged into the entry's wait
// list; they are served when the fill arrives.
func (b *Buffer) adoptFuture(e *entry) {
	b.splice(&e.waiters, b.takeFuture(e.row))
}

// Occupancy returns the number of allocated entries whose data is filled
// but not yet fully consumed — the "fullness" signal for rate matching.
func (b *Buffer) Occupancy() int {
	n := 0
	for i := range b.entries {
		e := &b.entries[i]
		if e.row >= 0 && e.filled && e.df < b.cfg.Corelets {
			n++
		}
	}
	return n
}

// Done reports whether the whole stream has been prefetched and no corelet
// is waiting on any row.
func (b *Buffer) Done() bool {
	if b.nextRow < b.rowCount {
		return false
	}
	for i := range b.entries {
		if !b.entries[i].waiters.empty() {
			return false
		}
	}
	return len(b.future) == 0
}
