package stack

import (
	"math/rand"
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/memctrl"
)

// newInner builds a small single-channel stacked fabric for backend tests.
func newInner(t *testing.T, capacityBytes int) *mem.System {
	t.Helper()
	s, err := mem.New(dram.DefaultParams(), 1, 8, capacityBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runUntilIdle ticks the backend until it drains, failing on a hang.
func runUntilIdle(t *testing.T, b Backend) {
	t.Helper()
	for i := 0; i < 100000; i++ {
		if b.Idle() {
			return
		}
		b.Tick()
	}
	t.Fatal("backend did not drain within 100k ticks")
}

// TestBackingTiming pins the planar model: completion = bus slot + latency,
// back-to-back reads serialize on the pin bandwidth while their latencies
// overlap, and the outstanding cap bounces further reads.
func TestBackingTiming(t *testing.T) {
	bk := newBacking(BackingParams{LatencyCycles: 10, BytesPerCycle: 4, Outstanding: 2})
	var done1, done2 int64
	if !bk.read(8, func(c int64, _ bool) { done1 = c }) {
		t.Fatal("first read rejected")
	}
	if !bk.read(8, func(c int64, _ bool) { done2 = c }) {
		t.Fatal("second read rejected")
	}
	if bk.read(4, nil) {
		t.Fatal("third read accepted past the outstanding cap")
	}
	if bk.wouldAcceptRead() {
		t.Fatal("wouldAcceptRead true at the outstanding cap")
	}
	for i := 0; i < 40; i++ {
		bk.tick()
	}
	// 8 B at 4 B/cycle = 2 bus cycles: read 1 transfers cycles [0,2), done
	// at 2+10; read 2 transfers [2,4), done at 4+10.
	if done1 != 12 || done2 != 14 {
		t.Fatalf("completions at %d and %d, want 12 and 14", done1, done2)
	}
	if !bk.idle() {
		t.Fatal("backing not idle after deliveries")
	}
	if s := bk.stats; s.Reads != 2 || s.BytesRead != 16 || s.MaxInFlight != 2 {
		t.Fatalf("backing stats %+v", s)
	}
}

// TestMemoryPartition: the part-of-memory split routes by address — below
// the boundary at fabric speed, above it at planar latency.
func TestMemoryPartition(t *testing.T) {
	row := dram.DefaultParams().RowBytes
	inner := newInner(t, 2*row)
	m, err := NewMemory(Config{StackBytes: 2 * row,
		Backing: BackingParams{LatencyCycles: 100}}, inner)
	if err != nil {
		t.Fatal(err)
	}
	var fastAt, slowAt int64 = -1, -1
	if !m.Enqueue(mem.Request{Addr: 0, Bytes: 64, Done: func(c int64, _ bool) { fastAt = c }}) {
		t.Fatal("stack-side request rejected")
	}
	if !m.Enqueue(mem.Request{Addr: uint32(2 * row), Bytes: 64, Done: func(c int64, _ bool) { slowAt = c }}) {
		t.Fatal("planar-side request rejected")
	}
	runUntilIdle(t, m)
	if fastAt < 0 || slowAt < 0 {
		t.Fatalf("completions missing: fast=%d slow=%d", fastAt, slowAt)
	}
	if slowAt < 100 {
		t.Fatalf("planar-side completion at %d, want >= the 100-cycle backing latency", slowAt)
	}
	if fastAt >= slowAt {
		t.Fatalf("stack-side (%d) not faster than planar-side (%d)", fastAt, slowAt)
	}
	s := m.Stats()
	if s.StackServed != 1 || s.BackingServed != 1 || s.Accesses != 2 {
		t.Fatalf("stats %+v", s)
	}
	if s.ResidentBytes != uint64(2*row) {
		t.Fatalf("ResidentBytes %d, want %d", s.ResidentBytes, 2*row)
	}
}

// TestHWCacheMissFillHit: a cold line pays the planar fill and a re-access
// hits in-stack; requests to an in-flight line merge into its MSHR.
func TestHWCacheMissFillHit(t *testing.T) {
	row := dram.DefaultParams().RowBytes
	inner := newInner(t, 16*row)
	h, err := NewHWCache(Config{StackBytes: 4 * row, LineBytes: row, Assoc: 2, MSHRs: 2,
		Backing: BackingParams{LatencyCycles: 50}}, inner)
	if err != nil {
		t.Fatal(err)
	}
	var missAt, joinAt, hitAt int64 = -1, -1, -1
	if !h.Enqueue(mem.Request{Addr: 0, Bytes: 64, Done: func(c int64, _ bool) { missAt = c }}) {
		t.Fatal("primary miss rejected")
	}
	// Same line while the fill is in flight: must join, not start a second fill.
	if !h.Enqueue(mem.Request{Addr: 64, Bytes: 64, Done: func(c int64, _ bool) { joinAt = c }}) {
		t.Fatal("secondary miss rejected")
	}
	runUntilIdle(t, h)
	if missAt < 0 || joinAt < 0 {
		t.Fatalf("fill waiters not served: miss=%d join=%d", missAt, joinAt)
	}
	if missAt < 50 {
		t.Fatalf("miss completed at %d, before the 50-cycle fill", missAt)
	}
	if s := h.Stats(); s.Misses != 1 || s.MSHRJoins != 1 || s.Fills != 1 || s.Backing.Reads != 1 {
		t.Fatalf("stats after miss %+v", s)
	}
	if !h.Enqueue(mem.Request{Addr: 0, Bytes: 64, Done: func(c int64, _ bool) { hitAt = c }}) {
		t.Fatal("hit rejected")
	}
	runUntilIdle(t, h)
	s := h.Stats()
	if s.StackServed != 1 || s.Misses != 1 {
		t.Fatalf("hit not served in-stack: %+v", s)
	}
	if hitAt < 0 || hitAt-missAt >= 50 {
		t.Fatalf("hit at %d after miss at %d: did not run at stack speed", hitAt, missAt)
	}
	if s.ResidentBytes != uint64(row) {
		t.Fatalf("ResidentBytes %d, want one %d B line", s.ResidentBytes, row)
	}
}

// TestHWCacheEvictWriteback: filling a set past its ways evicts the LRU
// line, and a dirty victim posts a full-line writeback.
func TestHWCacheEvictWriteback(t *testing.T) {
	row := dram.DefaultParams().RowBytes
	inner := newInner(t, 16*row)
	// 4 lines, 2 ways -> 2 sets; even blocks all land in set 0.
	h, err := NewHWCache(Config{StackBytes: 4 * row, LineBytes: row, Assoc: 2, MSHRs: 4,
		Backing: BackingParams{LatencyCycles: 10}}, inner)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(block int64, write bool) {
		t.Helper()
		if !h.Enqueue(mem.Request{Addr: uint32(block * int64(row)), Bytes: 64, Write: write,
			Done: func(int64, bool) {}}) {
			t.Fatalf("block %d rejected", block)
		}
		runUntilIdle(t, h)
	}
	fill(0, true) // dirty, becomes LRU
	fill(2, false)
	fill(4, false) // set 0 is full: evicts block 0
	s := h.Stats()
	if s.Evictions != 1 || s.Writebacks != 1 {
		t.Fatalf("want 1 eviction + 1 writeback of the dirty LRU line, got %+v", s)
	}
	if s.Backing.Writes != 1 || s.Backing.BytesWritten != uint64(row) {
		t.Fatalf("writeback traffic %+v, want one full %d B line", s.Backing, row)
	}
	// Block 2 was touched after block 0, so it must have survived.
	if !h.Enqueue(mem.Request{Addr: uint32(2 * row), Bytes: 64, Done: func(int64, bool) {}}) {
		t.Fatal("surviving block rejected")
	}
	runUntilIdle(t, h)
	if got := h.Stats(); got.Misses != 3 {
		t.Fatalf("re-access of block 2 missed (misses %d, want 3): LRU evicted the wrong way", got.Misses)
	}
}

// TestMemCacheHotCold: first touches pin pages while budget remains; later
// pages stay cold and pay planar latency (reads) or post (writes).
func TestMemCacheHotCold(t *testing.T) {
	row := dram.DefaultParams().RowBytes
	inner := newInner(t, 4*row)
	m, err := NewMemCache(Config{StackBytes: row, PageBytes: row, LookupCycles: 8,
		Backing: BackingParams{LatencyCycles: 100}}, inner)
	if err != nil {
		t.Fatal(err)
	}
	var hotAt, coldAt, coldWrAt int64 = -1, -1, -1
	if !m.Enqueue(mem.Request{Addr: 0, Bytes: 64, Done: func(c int64, _ bool) { hotAt = c }}) {
		t.Fatal("hot request rejected")
	}
	if !m.Enqueue(mem.Request{Addr: uint32(row), Bytes: 64, Done: func(c int64, _ bool) { coldAt = c }}) {
		t.Fatal("cold read rejected")
	}
	if !m.Enqueue(mem.Request{Addr: uint32(row), Bytes: 64, Write: true,
		Done: func(c int64, _ bool) { coldWrAt = c }}) {
		t.Fatal("cold write rejected")
	}
	runUntilIdle(t, m)
	if hotAt < 8 {
		t.Fatalf("hot completion at %d, before the 8-cycle lookup", hotAt)
	}
	if coldAt < 108 {
		t.Fatalf("cold read at %d, want >= lookup + 100-cycle backing latency", coldAt)
	}
	if hotAt >= coldAt {
		t.Fatalf("hot (%d) not faster than cold (%d)", hotAt, coldAt)
	}
	if coldWrAt < 0 || coldWrAt >= coldAt {
		t.Fatalf("cold write at %d, want posted completion before the cold read's %d", coldWrAt, coldAt)
	}
	s := m.Stats()
	if s.StackServed != 1 || s.BackingServed != 2 {
		t.Fatalf("stats %+v", s)
	}
	if s.Backing.Writes != 1 || s.ResidentBytes != uint64(row) {
		t.Fatalf("traffic/residency %+v", s)
	}
}

// TestMemoryPassThroughTiming: a Memory wrapper whose boundary covers the
// whole address space must be invisible — identical random request streams
// into a wrapped and a bare fabric complete on identical cycles with
// identical rowHit flags. This is the request-level half of the
// bit-identity guarantee; arch.NewNode additionally skips the wrapper
// entirely on this configuration.
func TestMemoryPassThroughTiming(t *testing.T) {
	row := dram.DefaultParams().RowBytes
	capacity := 8 * row
	bare := newInner(t, capacity)
	inner := newInner(t, capacity)
	m, err := NewMemory(Config{StackBytes: capacity}, inner)
	if err != nil {
		t.Fatal(err)
	}
	type comp struct {
		cycle  int64
		rowHit bool
	}
	var bareLog, wrapLog []comp
	rng := rand.New(rand.NewSource(3))
	cycle := int64(0)
	for i := 0; i < 3000; i++ {
		if rng.Intn(2) == 0 {
			addr := uint32(rng.Intn(capacity/64)) * 64
			r := mem.Request{Addr: addr, Bytes: 64}
			r.Done = func(c int64, hit bool) { bareLog = append(bareLog, comp{c, hit}) }
			ok1 := bare.Enqueue(r)
			r.Done = func(c int64, hit bool) { wrapLog = append(wrapLog, comp{c, hit}) }
			ok2 := m.Enqueue(r)
			if ok1 != ok2 {
				t.Fatalf("step %d: bare accepted=%v, wrapped accepted=%v", i, ok1, ok2)
			}
		} else {
			bare.Tick()
			m.Tick()
			cycle++
		}
	}
	for !bare.Idle() || !m.Idle() {
		bare.Tick()
		m.Tick()
	}
	if len(bareLog) == 0 || len(bareLog) != len(wrapLog) {
		t.Fatalf("completion counts differ: bare %d, wrapped %d", len(bareLog), len(wrapLog))
	}
	for i := range bareLog {
		if bareLog[i] != wrapLog[i] {
			t.Fatalf("completion %d differs: bare %+v, wrapped %+v", i, bareLog[i], wrapLog[i])
		}
	}
}

// TestWouldAcceptMirrorsEnqueue is the skip-window contract: on every backend
// and under random traffic, WouldAccept(addr) must predict Enqueue's answer
// exactly — prefetch elides retries only while WouldAccept stays false, so
// any divergence would make skip-on and skip-off runs differ.
func TestWouldAcceptMirrorsEnqueue(t *testing.T) {
	row := dram.DefaultParams().RowBytes
	build := func(mode Mode) Backend {
		inner := newInner(t, 16*row)
		b, err := New(mode, Config{StackBytes: 2 * row, LineBytes: row, Assoc: 2, MSHRs: 2,
			PageBytes: row, Backing: BackingParams{LatencyCycles: 30, Outstanding: 2}}, inner)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, mode := range []Mode{ModeMemory, ModeHWCache, ModeMemCache} {
		b := build(mode)
		rng := rand.New(rand.NewSource(7))
		outstanding := 0
		for i := 0; i < 5000; i++ {
			if rng.Intn(3) > 0 && outstanding < 512 {
				addr := uint32(rng.Intn(16)) * uint32(row) / 2
				wa := b.WouldAccept(addr)
				ok := b.Enqueue(mem.Request{Addr: addr, Bytes: 64, Write: rng.Intn(8) == 0,
					Done: func(int64, bool) { outstanding-- }})
				if wa != ok {
					t.Fatalf("%s: step %d addr %d: WouldAccept=%v but Enqueue=%v", mode, i, addr, wa, ok)
				}
				if ok {
					outstanding++
				}
			} else {
				b.Tick()
			}
		}
		runUntilIdle(t, b)
		if outstanding != 0 {
			t.Fatalf("%s: %d requests never completed", mode, outstanding)
		}
	}
}

// TestNextWorkCycleNeverLate: after going idle with no clients, every
// backend must report NeverCycle; with work in flight it must report a
// cycle no later than the next observable state change.
func TestNextWorkCycleNeverLate(t *testing.T) {
	row := dram.DefaultParams().RowBytes
	inner := newInner(t, 4*row)
	m, err := NewMemory(Config{StackBytes: row,
		Backing: BackingParams{LatencyCycles: 20}}, inner)
	if err != nil {
		t.Fatal(err)
	}
	doneAt := int64(-1)
	m.Enqueue(mem.Request{Addr: uint32(row), Bytes: 4, Done: func(c int64, _ bool) { doneAt = c }})
	w := m.NextWorkCycle()
	if w == memctrl.NeverCycle {
		t.Fatal("work in flight but NextWorkCycle says never")
	}
	for c := int64(1); doneAt < 0 && c < 1000; c++ {
		m.Tick()
		if doneAt >= 0 && c < w {
			t.Fatalf("completion at cycle %d, earlier than NextWorkCycle %d", c, w)
		}
	}
	runUntilIdle(t, m)
	if m.NextWorkCycle() != memctrl.NeverCycle {
		t.Fatalf("idle backend reports next work at %d, want NeverCycle", m.NextWorkCycle())
	}
}
