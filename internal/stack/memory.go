package stack

import (
	"fmt"

	"repro/internal/mem"
)

// Memory is the part-of-memory discipline: the flat address space is split
// at StackBytes. Requests below the boundary go to the stacked fabric with
// exactly the timing a bare mem.System would give them (the wrapper adds no
// cycles — the pass-through equivalence tests rely on this); requests at or
// above it are served by the planar backing store. There are no tags, no
// fills, and no migration: placement is the allocator's problem, which is
// precisely the discipline's weakness when the hot bytes land planar-side.
type Memory struct {
	base
	boundary int64
}

// NewMemory builds a partitioned-address-space backend with the first
// cfg.StackBytes bytes in-stack.
func NewMemory(cfg Config, inner *mem.System) (*Memory, error) {
	if cfg.StackBytes <= 0 {
		return nil, fmt.Errorf("stack: memory mode needs StackBytes > 0 (got %d)", cfg.StackBytes)
	}
	m := &Memory{boundary: int64(cfg.StackBytes)}
	m.base = newBase(inner, cfg.Backing)
	m.st.Mode = string(ModeMemory)
	m.st.ResidentBytes = uint64(cfg.StackBytes)
	return m, nil
}

// Mode implements Backend.
func (m *Memory) Mode() Mode { return ModeMemory }

// Stats implements Backend.
func (m *Memory) Stats() Stats {
	s := m.st
	s.Backing = m.bk.stats
	return s
}

// Enqueue implements mem.Port. Stack-side requests are forwarded unchanged;
// planar-side requests pay backing latency and report rowHit=false.
func (m *Memory) Enqueue(r mem.Request) bool {
	if int64(r.Addr) < m.boundary {
		if !m.inner.WouldAccept(r.Addr) {
			m.st.Rejected++
			return false
		}
		m.inner.Enqueue(r)
		m.st.Accesses++
		m.st.StackServed++
		return true
	}
	if !m.bk.read(r.Bytes, r.Done) {
		m.st.Rejected++
		return false
	}
	m.st.Accesses++
	m.st.BackingServed++
	return true
}

// WouldAccept mirrors Enqueue exactly (the skip-window contract).
func (m *Memory) WouldAccept(addr uint32) bool {
	if int64(addr) < m.boundary {
		return m.inner.WouldAccept(addr)
	}
	return m.bk.wouldAcceptRead()
}

// TallyRejects implements the stall-prober stat hook.
func (m *Memory) TallyRejects(addr uint32, n uint64) { m.st.Rejected += n }

// Tick advances both sides one channel cycle.
func (m *Memory) Tick() {
	m.bk.tick()
	m.inner.Tick()
}

// Idle implements mem.Port.
func (m *Memory) Idle() bool { return m.bk.idle() && m.inner.Idle() }

// NextWorkCycle reports the earliest cycle either side changes state.
func (m *Memory) NextWorkCycle() int64 {
	w := m.inner.NextWorkCycle()
	if b := m.bk.nextWorkCycle(); b < w {
		w = b
	}
	return w
}

// SkipCycles fast-forwards both sides across a quiescent window.
func (m *Memory) SkipCycles(n int64) {
	m.bk.skip(n)
	m.inner.SkipCycles(n)
}
