package stack

import (
	"fmt"

	"repro/internal/mem"
)

// MemCache is the software-managed discipline in the style of memcached:
// the application keeps a key→location table, so every access pays a small
// constant software lookup and is then routed — hot pages are pinned in the
// stack and served by the stacked fabric, cold pages are served from the
// planar backing store at full latency. There are no tags and no
// fill-on-miss amplification: a cold access moves exactly the requested
// bytes. Pages are classified on first touch: while pinned capacity
// remains, a new page is pinned hot; afterwards it is cold forever (the
// simplest admission policy, and the right one for single-pass streams
// where no page is ever touched again).
//
// Writes to hot pages take fabric timing like reads; writes to cold pages
// are posted to the backing store and complete at the end of the lookup.
type MemCache struct {
	base
	pageBytes   int64
	pageBudget  int
	pinnedPages int
	// class is each page's classification (0 until first touch, then
	// pageHot or pageCold), sized to the fabric's capacity up front so
	// first touches in the cycle loop allocate nothing.
	class        []uint8
	lookupCycles int64

	dq     []dqEntry
	dqHead int
}

const (
	pageHot  = 1
	pageCold = 2
)

type dqEntry struct {
	r       mem.Request
	readyAt int64
	hot     bool
}

// NewMemCache builds a hot/cold pinning backend with cfg.StackBytes of
// pinned capacity in cfg.PageBytes pages.
func NewMemCache(cfg Config, inner *mem.System) (*MemCache, error) {
	if cfg.PageBytes <= 0 {
		return nil, fmt.Errorf("stack: memcache needs PageBytes > 0 (got %d)", cfg.PageBytes)
	}
	if cfg.StackBytes < cfg.PageBytes {
		return nil, fmt.Errorf("stack: memcache needs StackBytes >= one %d B page (got %d)",
			cfg.PageBytes, cfg.StackBytes)
	}
	lookup := cfg.LookupCycles
	if lookup == 0 {
		lookup = DefaultLookupCycles
	}
	m := &MemCache{
		pageBytes:    int64(cfg.PageBytes),
		pageBudget:   cfg.StackBytes / cfg.PageBytes,
		class:        make([]uint8, (int64(inner.CapacityBytes())+int64(cfg.PageBytes)-1)/int64(cfg.PageBytes)),
		lookupCycles: int64(lookup),
		dq:           make([]dqEntry, 0, delayQueueCap),
	}
	m.base = newBase(inner, cfg.Backing)
	m.st.Mode = string(ModeMemCache)
	return m, nil
}

// Mode implements Backend.
func (m *MemCache) Mode() Mode { return ModeMemCache }

// Stats implements Backend.
func (m *MemCache) Stats() Stats {
	s := m.st
	s.Backing = m.bk.stats
	s.ResidentBytes = uint64(m.pinnedPages) * uint64(m.pageBytes)
	return s
}

func (m *MemCache) dqLen() int { return len(m.dq) - m.dqHead }

// Enqueue implements mem.Port: classify the page, then park the request in
// the lookup pipeline for lookupCycles before routing it.
func (m *MemCache) Enqueue(r mem.Request) bool {
	if m.dqLen() >= delayQueueCap {
		m.st.Rejected++
		return false
	}
	page := int64(r.Addr) / m.pageBytes
	if page >= int64(len(m.class)) {
		m.class = append(m.class, make([]uint8, page+1-int64(len(m.class)))...)
	}
	c := m.class[page]
	if c == 0 {
		if m.pinnedPages < m.pageBudget {
			c = pageHot
			m.pinnedPages++
		} else {
			c = pageCold
		}
		m.class[page] = c
	}
	hot := c == pageHot
	m.dq = pushFIFO(m.dq, &m.dqHead, dqEntry{r: r, readyAt: m.bk.cycle + m.lookupCycles, hot: hot})
	m.st.Accesses++
	if hot {
		m.st.StackServed++
	} else {
		m.st.BackingServed++
	}
	return true
}

// WouldAccept mirrors Enqueue exactly (the skip-window contract): the only
// thing Enqueue checks is lookup-pipeline room.
func (m *MemCache) WouldAccept(addr uint32) bool { return m.dqLen() < delayQueueCap }

// TallyRejects implements the stall-prober stat hook.
func (m *MemCache) TallyRejects(addr uint32, n uint64) { m.st.Rejected += n }

// Tick: backing completions first, then drain lookups whose delay elapsed —
// hot ones toward the fabric, cold ones into the backing store (stopping at
// a full backing queue to preserve order) — then the fabric itself.
func (m *MemCache) Tick() {
	m.bk.tick()
	for m.dqHead < len(m.dq) {
		e := &m.dq[m.dqHead]
		if e.readyAt > m.bk.cycle {
			break
		}
		if e.hot {
			m.pushInner(e.r)
		} else if e.r.Write {
			m.bk.write(e.r.Bytes)
			if e.r.Done != nil {
				e.r.Done(m.bk.cycle, false)
			}
		} else {
			if !m.bk.read(e.r.Bytes, e.r.Done) {
				break
			}
		}
		*e = dqEntry{}
		m.dqHead++
	}
	if m.dqHead == len(m.dq) {
		m.dq = m.dq[:0]
		m.dqHead = 0
	}
	m.drainPending()
	m.inner.Tick()
}

// Idle implements mem.Port.
func (m *MemCache) Idle() bool {
	return m.dqLen() == 0 && m.pendingLen() == 0 && m.bk.idle() && m.inner.Idle()
}

// NextWorkCycle reports the earliest cycle any stage changes state.
// Lookup readyAt values are nondecreasing in queue order, so the head is
// the earliest; a head blocked on a full backing queue degrades to
// tick-by-tick progress (conservative, still correct).
func (m *MemCache) NextWorkCycle() int64 {
	w := m.inner.NextWorkCycle()
	if b := m.bk.nextWorkCycle(); b < w {
		w = b
	}
	if m.pendingLen() > 0 {
		if c := m.bk.cycle + 1; c < w {
			w = c
		}
	}
	if m.dqLen() > 0 {
		c := m.dq[m.dqHead].readyAt
		if c <= m.bk.cycle {
			c = m.bk.cycle + 1
		}
		if c < w {
			w = c
		}
	}
	return w
}

// SkipCycles fast-forwards all stages across a quiescent window.
func (m *MemCache) SkipCycles(n int64) {
	m.bk.skip(n)
	m.inner.SkipCycles(n)
}
