package stack

import (
	"fmt"

	"repro/internal/mem"
)

// HWCache is the hardware-managed DRAM-cache discipline: the whole address
// space lives in the planar backing store and the stack caches it in
// row-sized lines (tags co-located with data, so a hit costs exactly one
// stacked-fabric access — the hit request is forwarded to the fabric
// unchanged). A primary miss allocates an MSHR, fills the full line from
// the backing store at planar latency/bandwidth, and only then serves the
// waiting requests from the stack; requests to a line already in flight
// merge into its MSHR. Victims are chosen invalid-first then LRU; dirty
// victims post a full-line writeback.
//
// The fill-then-serve ordering is the discipline's defining cost on
// streaming workloads: a single-pass kernel pays the planar transfer for
// every line and then the stacked row read on top, so with no reuse an
// HWCache is strictly slower than the part-of-memory split.
type HWCache struct {
	base
	lineBytes int64
	nsets     int64
	assoc     int
	sets      []hwLine // nsets*assoc, set-major
	valid     int      // lines currently valid
	useTick   uint64

	// mshr holds the in-flight fills; the entries past its length keep
	// their waiter lists for reuse, and fillFree holds one fill per MSHR,
	// so misses allocate nothing in the cycle loop.
	mshr     []hwMSHR
	mshrMax  int
	fillFree []*hwFill
}

// hwFill is one line fill in flight; done, bound once, is handed to the
// backing store as the read's completion: it installs the block and
// recycles the fill.
type hwFill struct {
	block int64
	done  func(int64, bool)
}

type hwLine struct {
	block   int64 // line-aligned address / lineBytes; -1 = invalid
	lastUse uint64
	dirty   bool
}

type hwMSHR struct {
	block   int64
	dirty   bool // a merged request wrote the line before it arrived
	waiters []mem.Request
}

// NewHWCache builds a set-associative writeback DRAM cache of
// cfg.StackBytes over the backing store, with cfg.LineBytes lines.
func NewHWCache(cfg Config, inner *mem.System) (*HWCache, error) {
	if cfg.LineBytes <= 0 {
		return nil, fmt.Errorf("stack: hwcache needs LineBytes > 0 (got %d)", cfg.LineBytes)
	}
	nlines := cfg.StackBytes / cfg.LineBytes
	if nlines < 1 {
		return nil, fmt.Errorf("stack: hwcache needs StackBytes >= one %d B line (got %d)",
			cfg.LineBytes, cfg.StackBytes)
	}
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = DefaultAssoc
	}
	if assoc > nlines {
		assoc = nlines
	}
	mshrMax := cfg.MSHRs
	if mshrMax == 0 {
		mshrMax = DefaultMSHRs
	}
	h := &HWCache{
		lineBytes: int64(cfg.LineBytes),
		nsets:     int64(nlines / assoc),
		assoc:     assoc,
		mshrMax:   mshrMax,
		mshr:      make([]hwMSHR, mshrMax),
	}
	h.sets = make([]hwLine, int(h.nsets)*assoc)
	for i := range h.sets {
		h.sets[i].block = -1
	}
	for i := range h.mshr {
		h.mshr[i].waiters = make([]mem.Request, 0, 4)
		f := &hwFill{}
		f.done = func(int64, bool) {
			h.install(f.block)
			h.fillFree = append(h.fillFree, f)
		}
		h.fillFree = append(h.fillFree, f)
	}
	h.mshr = h.mshr[:0]
	h.base = newBase(inner, cfg.Backing)
	h.st.Mode = string(ModeHWCache)
	return h, nil
}

// Mode implements Backend.
func (h *HWCache) Mode() Mode { return ModeHWCache }

// Stats implements Backend.
func (h *HWCache) Stats() Stats {
	s := h.st
	s.Backing = h.bk.stats
	s.ResidentBytes = uint64(h.valid) * uint64(h.lineBytes)
	return s
}

// set returns the ways of the set holding block.
func (h *HWCache) set(block int64) []hwLine {
	i := int(block%h.nsets) * h.assoc
	return h.sets[i : i+h.assoc]
}

func findWay(set []hwLine, block int64) int {
	for i := range set {
		if set[i].block == block {
			return i
		}
	}
	return -1
}

func (h *HWCache) mshrFind(block int64) int {
	for i := range h.mshr {
		if h.mshr[i].block == block {
			return i
		}
	}
	return -1
}

// Enqueue implements mem.Port.
func (h *HWCache) Enqueue(r mem.Request) bool {
	block := int64(r.Addr) / h.lineBytes
	set := h.set(block)
	if w := findWay(set, block); w >= 0 {
		// Hit: tags ride with the data, so the access is one fabric request.
		if !h.inner.WouldAccept(r.Addr) {
			h.st.Rejected++
			return false
		}
		h.inner.Enqueue(r)
		h.useTick++
		set[w].lastUse = h.useTick
		if r.Write {
			set[w].dirty = true
		}
		h.st.Accesses++
		h.st.StackServed++
		return true
	}
	if mi := h.mshrFind(block); mi >= 0 {
		// Secondary miss: merge into the in-flight fill.
		h.mshr[mi].waiters = append(h.mshr[mi].waiters, r)
		if r.Write {
			h.mshr[mi].dirty = true
		}
		h.st.Accesses++
		h.st.MSHRJoins++
		return true
	}
	// Primary miss: needs both an MSHR slot and a backing read slot.
	if len(h.mshr) >= h.mshrMax || !h.bk.wouldAcceptRead() {
		h.st.Rejected++
		return false
	}
	h.mshr = h.mshr[:len(h.mshr)+1]
	e := &h.mshr[len(h.mshr)-1]
	e.block, e.dirty, e.waiters = block, r.Write, append(e.waiters[:0], r)
	// Every fill holds an MSHR until it installs, so a free one exists.
	f := h.fillFree[len(h.fillFree)-1]
	h.fillFree = h.fillFree[:len(h.fillFree)-1]
	f.block = block
	h.bk.read(int(h.lineBytes), f.done)
	h.st.Accesses++
	h.st.Misses++
	h.st.BackingServed++
	return true
}

// install runs when a line fill returns from the backing store: pick a
// victim, write back if dirty, install the tag, and release the MSHR's
// waiters toward the stacked fabric (they queue in arrival order; the
// fabric read is what finally completes each request).
func (h *HWCache) install(block int64) {
	set := h.set(block)
	victim := 0
	for i := range set {
		if set[i].block == -1 {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	if set[victim].block != -1 {
		h.st.Evictions++
		if set[victim].dirty {
			h.st.Writebacks++
			h.bk.write(int(h.lineBytes))
		}
	} else {
		h.valid++
	}
	mi := h.mshrFind(block)
	h.useTick++
	set[victim] = hwLine{block: block, lastUse: h.useTick, dirty: h.mshr[mi].dirty}
	h.st.Fills++
	for _, w := range h.mshr[mi].waiters {
		h.pushInner(w)
	}
	clear(h.mshr[mi].waiters)
	last := len(h.mshr) - 1
	h.mshr[mi], h.mshr[last] = h.mshr[last], h.mshr[mi]
	h.mshr = h.mshr[:last]
}

// WouldAccept mirrors Enqueue exactly (the skip-window contract).
func (h *HWCache) WouldAccept(addr uint32) bool {
	block := int64(addr) / h.lineBytes
	if findWay(h.set(block), block) >= 0 {
		return h.inner.WouldAccept(addr)
	}
	if h.mshrFind(block) >= 0 {
		return true
	}
	return len(h.mshr) < h.mshrMax && h.bk.wouldAcceptRead()
}

// TallyRejects implements the stall-prober stat hook.
func (h *HWCache) TallyRejects(addr uint32, n uint64) { h.st.Rejected += n }

// Tick: backing completions (which install lines and release waiters), then
// the pending FIFO into the fabric, then the fabric itself.
func (h *HWCache) Tick() {
	h.bk.tick()
	h.drainPending()
	h.inner.Tick()
}

// Idle implements mem.Port.
func (h *HWCache) Idle() bool {
	return len(h.mshr) == 0 && h.pendingLen() == 0 && h.bk.idle() && h.inner.Idle()
}

// NextWorkCycle reports the earliest cycle any of the three stages (backing
// fill, pending drain, fabric) changes state.
func (h *HWCache) NextWorkCycle() int64 {
	w := h.inner.NextWorkCycle()
	if b := h.bk.nextWorkCycle(); b < w {
		w = b
	}
	if h.pendingLen() > 0 {
		if c := h.bk.cycle + 1; c < w {
			w = c
		}
	}
	return w
}

// SkipCycles fast-forwards all stages across a quiescent window.
func (h *HWCache) SkipCycles(n int64) {
	h.bk.skip(n)
	h.inner.SkipCycles(n)
}
