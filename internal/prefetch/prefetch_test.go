package prefetch

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/mem"
)

// fakeMem is a stub mem.Port: it completes row fetches on demand, optionally
// with a bounded queue.
type fakeMem struct {
	pending []func(int64, bool)
	addrs   []uint32
	depth   int // 0 = unbounded
}

func (m *fakeMem) Enqueue(r mem.Request) bool {
	if m.depth > 0 && len(m.pending) >= m.depth {
		return false
	}
	m.addrs = append(m.addrs, r.Addr)
	m.pending = append(m.pending, r.Done)
	return true
}

func (m *fakeMem) Tick() {}

func (m *fakeMem) Idle() bool { return len(m.pending) == 0 }

// drainOne completes the oldest outstanding fetch.
func (m *fakeMem) drainOne() bool {
	if len(m.pending) == 0 {
		return false
	}
	f := m.pending[0]
	m.pending = m.pending[1:]
	f(0, false)
	return true
}

func (m *fakeMem) drainAll() {
	for m.drainOne() {
	}
}

func cfg4x4(flow bool) Config {
	// 4 entries, 4 corelets, 64-byte rows -> 4-word slabs.
	return Config{Entries: 4, Corelets: 4, RowBytes: 64, FlowControl: flow}
}

func newBuf(t *testing.T, cfg Config, m *fakeMem, rows int) *Buffer {
	t.Helper()
	b, err := New(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(0, rows*cfg.RowBytes); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestConfigValidate(t *testing.T) {
	good := Config{Entries: 16, Corelets: 32, RowBytes: 2048}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.SlabWords() != 16 {
		t.Errorf("slab words = %d", good.SlabWords())
	}
	bad := []Config{
		{Entries: 1, Corelets: 32, RowBytes: 2048},
		{Entries: 16, Corelets: 0, RowBytes: 2048},
		{Entries: 16, Corelets: 32, RowBytes: 0},
		{Entries: 16, Corelets: 32, RowBytes: 2046},
		{Entries: 16, Corelets: 3, RowBytes: 2048}, // 512 % 3 != 0
		{Entries: 16, Corelets: 2, RowBytes: 2048}, // 256-word slab > bitmap
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	if _, err := New(good, nil); err == nil {
		t.Error("nil memory port accepted")
	}
}

func TestStartIssuesInitialPrefetches(t *testing.T) {
	m := &fakeMem{}
	newBuf(t, cfg4x4(true), m, 10)
	if len(m.addrs) != 4 {
		t.Fatalf("initial prefetches = %d, want 4", len(m.addrs))
	}
	for i, a := range m.addrs {
		if a != uint32(i*64) {
			t.Errorf("prefetch %d addr = %d, want %d", i, a, i*64)
		}
	}
}

func TestStartFewRowsThanEntries(t *testing.T) {
	m := &fakeMem{}
	b := newBuf(t, cfg4x4(true), m, 2)
	if len(m.addrs) != 2 {
		t.Errorf("prefetches = %d, want 2", len(m.addrs))
	}
	m.drainAll()
	if b.Stats().Prefetches != 2 {
		t.Errorf("stats.Prefetches = %d", b.Stats().Prefetches)
	}
}

func TestStartRejectsUnalignedBase(t *testing.T) {
	b, _ := New(cfg4x4(true), &fakeMem{})
	if err := b.Start(4, 640); err == nil {
		t.Error("unaligned base accepted")
	}
}

func TestAccessReadyAfterFill(t *testing.T) {
	m := &fakeMem{}
	b := newBuf(t, cfg4x4(true), m, 10)
	m.drainAll()
	if res := b.Access(0, 0, 0, nil); res != Ready {
		t.Errorf("access = %v, want Ready", res)
	}
	if b.Stats().ReadyHits != 1 {
		t.Errorf("ReadyHits = %d", b.Stats().ReadyHits)
	}
}

func TestAccessWaitsOnUnfilledEntry(t *testing.T) {
	m := &fakeMem{}
	b := newBuf(t, cfg4x4(true), m, 10)
	woken := false
	if res := b.Access(0, 0, 0, func() { woken = true }); res != Waiting {
		t.Fatalf("access = %v, want Waiting", res)
	}
	if woken {
		t.Fatal("callback before fill")
	}
	m.drainOne()
	if !woken {
		t.Error("callback did not fire on fill")
	}
	if b.Stats().Starved != 1 {
		t.Errorf("Starved = %d", b.Stats().Starved)
	}
}

// consumeRow has every corelet consume all its slab words of relative row r.
func consumeRow(b *Buffer, cfg Config, r int) {
	for c := 0; c < cfg.Corelets; c++ {
		for s := 0; s < cfg.SlabWords(); s++ {
			addr := uint32(r * cfg.RowBytes) // row base; word position irrelevant to entry lookup
			b.Access(c, s, addr, func() {})
		}
	}
}

func TestPFTTriggersNextPrefetch(t *testing.T) {
	m := &fakeMem{}
	cfg := cfg4x4(true)
	b := newBuf(t, cfg, m, 10)
	m.drainAll()
	// Consume row 0 completely: DF saturates; head (slot of row 4) = row 0's
	// slot. The first access that finds a set PFT bit triggers row 4.
	consumeRow(b, cfg, 0)
	if len(m.addrs) < 5 {
		t.Fatalf("no follow-on prefetch: addrs = %v", m.addrs)
	}
	if m.addrs[4] != 4*64 {
		t.Errorf("next prefetch addr = %d, want %d", m.addrs[4], 4*64)
	}
	if b.Stats().TriggerClears == 0 {
		t.Error("no PFT clears recorded")
	}
}

func TestFlowControlDefersTrigger(t *testing.T) {
	m := &fakeMem{}
	cfg := cfg4x4(true)
	b := newBuf(t, cfg, m, 20)
	m.drainAll()
	// Corelet 0 consumes its slabs of all 4 rows; other corelets idle.
	// Row 0's DF is unsaturated, so no prefetch beyond the initial 4 may
	// be issued.
	for r := 0; r < 4; r++ {
		for s := 0; s < cfg.SlabWords(); s++ {
			b.Access(0, s, uint32(r*cfg.RowBytes), nil)
		}
	}
	if len(m.addrs) != 4 {
		t.Fatalf("flow control failed: %d prefetches issued", len(m.addrs))
	}
	if b.Stats().FlowBlocks == 0 {
		t.Error("no flow blocks recorded")
	}
	if b.Stats().PrematureEvicts != 0 {
		t.Error("premature evictions under flow control")
	}
	// Leading corelet now waits on row 4.
	woken := false
	if res := b.Access(0, 0, uint32(4*cfg.RowBytes), func() { woken = true }); res != Waiting {
		t.Fatal("leader should wait on future row")
	}
	// Laggards consume row 0 -> head saturates. Then a demand access to an
	// entry with PFT set triggers row 4 and wakes the leader.
	for c := 1; c < cfg.Corelets; c++ {
		for s := 0; s < cfg.SlabWords(); s++ {
			b.Access(c, s, 0, nil)
		}
	}
	// Laggard touches row 3 (tail, PFT still set).
	b.Access(1, 0, uint32(3*cfg.RowBytes), nil)
	if len(m.addrs) != 5 {
		t.Fatalf("trigger after unblock: %d prefetches", len(m.addrs))
	}
	m.drainAll()
	if !woken {
		t.Error("future waiter not woken after allocation+fill")
	}
}

func TestNoFlowControlEvictsPrematurely(t *testing.T) {
	m := &fakeMem{}
	cfg := cfg4x4(false)
	b := newBuf(t, cfg, m, 20)
	m.drainAll()
	// Leader consumes rows 0..3 alone; each full consumption of the tail
	// triggers the next row, evicting unconsumed entries.
	for r := 0; r < 4; r++ {
		for s := 0; s < cfg.SlabWords(); s++ {
			b.Access(0, s, uint32(r*cfg.RowBytes), nil)
			m.drainAll()
		}
	}
	if b.Stats().PrematureEvicts == 0 {
		t.Error("expected premature evictions without flow control")
	}
	// A laggard now misses on row 0 and pays a demand row fetch.
	woken := false
	res := b.Access(1, 0, 0, func() { woken = true })
	if res != Waiting {
		t.Fatalf("laggard access = %v, want Waiting", res)
	}
	if b.Stats().DemandRowFetches != 1 {
		t.Errorf("DemandRowFetches = %d", b.Stats().DemandRowFetches)
	}
	m.drainAll()
	if !woken {
		t.Error("laggard never woken after demand fetch")
	}
}

func TestStaleFillForwardsToEvictedWaiters(t *testing.T) {
	m := &fakeMem{depth: 100}
	cfg := cfg4x4(false)
	b := newBuf(t, cfg, m, 20)
	// Do NOT drain: fills in flight. A waiter parks on row 0.
	woken := false
	b.Access(1, 0, 0, func() { woken = true })
	// Leader storms ahead, consuming rows as they fill, forcing row 0's
	// slot to be re-allocated while its fill is still outstanding.
	m.drainAll()
	for r := 0; r < 5; r++ {
		for s := 0; s < cfg.SlabWords(); s++ {
			b.Access(0, s, uint32(r*cfg.RowBytes), nil)
			m.drainAll()
		}
	}
	if !woken {
		t.Error("waiter on evicted row never woken")
	}
}

func TestPumpRetriesRejectedFetches(t *testing.T) {
	m := &fakeMem{depth: 2}
	cfg := cfg4x4(true)
	b := newBuf(t, cfg, m, 10) // wants 4 initial prefetches; 2 bounce
	if b.Stats().FetchRejects != 2 {
		t.Fatalf("FetchRejects = %d, want 2", b.Stats().FetchRejects)
	}
	m.drainAll()
	b.Pump()
	if len(m.pending) != 2 {
		t.Errorf("pump reissued %d fetches, want 2", len(m.pending))
	}
	m.drainAll()
	// All four rows now filled.
	for r := 0; r < 4; r++ {
		if res := b.Access(0, 0, uint32(r*cfg.RowBytes), nil); res != Ready {
			t.Errorf("row %d not ready after pump", r)
		}
	}
}

func TestOccupancy(t *testing.T) {
	m := &fakeMem{}
	cfg := cfg4x4(true)
	b := newBuf(t, cfg, m, 10)
	if b.Occupancy() != 0 {
		t.Errorf("occupancy before fills = %d", b.Occupancy())
	}
	m.drainAll()
	if b.Occupancy() != 4 {
		t.Errorf("occupancy after fills = %d, want 4", b.Occupancy())
	}
	consumeRow(b, cfg, 0) // consumes row 0, triggers row 4 (unfilled)
	if b.Occupancy() != 3 {
		t.Errorf("occupancy after consuming one row = %d, want 3", b.Occupancy())
	}
}

func TestEndOfStreamClearsPFTWithoutFetch(t *testing.T) {
	m := &fakeMem{}
	cfg := cfg4x4(true)
	b := newBuf(t, cfg, m, 4) // exactly Entries rows
	m.drainAll()
	for r := 0; r < 4; r++ {
		consumeRow(b, cfg, r)
	}
	if len(m.addrs) != 4 {
		t.Errorf("fetches = %d, want 4 (no prefetch past end)", len(m.addrs))
	}
	if !b.Done() {
		t.Error("buffer not Done after full consumption")
	}
}

func TestAccessOutsideRegionPanics(t *testing.T) {
	m := &fakeMem{}
	b := newBuf(t, cfg4x4(true), m, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	b.Access(0, 0, uint32(100*64), nil)
}

// TestPropertyFlowControlNeverEvictsUnconsumed simulates 4 corelets x 4
// contexts walking their streams in random interleavings and asserts the
// paper's safety property: with flow control, no entry is ever re-allocated
// before every corelet consumed its slab, and every access is eventually
// served.
func TestPropertyFlowControlNeverEvictsUnconsumed(t *testing.T) {
	const rows = 40
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		m := &fakeMem{depth: 8}
		cfg := cfg4x4(true)
		b := newBuf(t, cfg, m, rows)

		// Each (corelet, slot) pair is an independent sequential consumer
		// of one word per row.
		type consumer struct {
			c, s    int
			row     int
			waiting bool
		}
		var cs []*consumer
		for c := 0; c < cfg.Corelets; c++ {
			for s := 0; s < cfg.SlabWords(); s++ {
				cs = append(cs, &consumer{c: c, s: s})
			}
		}
		steps := 0
		for {
			active := 0
			progressed := false
			for _, x := range cs {
				if x.row >= rows || x.waiting {
					if x.row < rows {
						active++
					}
					continue
				}
				active++
				if rng.Intn(3) == 0 {
					continue // simulate divergence: skip a turn
				}
				x.waiting = true
				xx := x
				res := b.Access(x.c, x.s, uint32(x.row*cfg.RowBytes), func() {
					xx.waiting = false
					xx.row++
				})
				if res == Ready {
					x.waiting = false
					x.row++
				}
				progressed = true
			}
			if active == 0 {
				break
			}
			if rng.Intn(2) == 0 {
				m.drainOne()
			}
			b.Pump()
			steps++
			if steps > 200000 {
				t.Fatalf("trial %d: no termination (deadlock?)", trial)
			}
			_ = progressed
		}
		m.drainAll()
		s := b.Stats()
		if s.PrematureEvicts != 0 {
			t.Fatalf("trial %d: %d premature evictions under flow control", trial, s.PrematureEvicts)
		}
		if s.DemandRowFetches != 0 {
			t.Fatalf("trial %d: %d demand fetches under flow control", trial, s.DemandRowFetches)
		}
		if s.Prefetches != rows {
			t.Fatalf("trial %d: prefetched %d rows, want %d", trial, s.Prefetches, rows)
		}
	}
}

// TestPropertyNoFlowControlStillCompletes checks liveness of the ablation:
// every consumer finishes even when premature evictions occur.
func TestPropertyNoFlowControlStillCompletes(t *testing.T) {
	const rows = 30
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(1000 + int64(trial)))
		m := &fakeMem{depth: 8}
		cfg := cfg4x4(false)
		b := newBuf(t, cfg, m, rows)
		type consumer struct {
			c, s    int
			row     int
			waiting bool
		}
		var cs []*consumer
		for c := 0; c < cfg.Corelets; c++ {
			for s := 0; s < cfg.SlabWords(); s++ {
				cs = append(cs, &consumer{c: c, s: s})
			}
		}
		steps := 0
		for {
			done := true
			for _, x := range cs {
				if x.row >= rows {
					continue
				}
				done = false
				if x.waiting {
					continue
				}
				// Corelet 0 races ahead (processes every turn); others
				// are slow, maximizing eviction pressure.
				if x.c != 0 && rng.Intn(4) != 0 {
					continue
				}
				x.waiting = true
				xx := x
				res := b.Access(x.c, x.s, uint32(x.row*cfg.RowBytes), func() {
					xx.waiting = false
					xx.row++
				})
				if res == Ready {
					x.waiting = false
					x.row++
				}
			}
			if done {
				break
			}
			m.drainOne()
			b.Pump()
			steps++
			if steps > 500000 {
				t.Fatalf("trial %d: no termination", trial)
			}
		}
	}
}

// TestNewBytes: a buffer for the default processor geometry (16 entries, 32
// corelets of 4 contexts, 2 KB rows) draws its waiters from one arena of 128
// nodes, about 15 KB in all; pre-sizing each of its lists for 128 waiters
// would take more than 200 KB.
func TestNewBytes(t *testing.T) {
	cfg := Config{Entries: 16, Corelets: 32, RowBytes: 2048, FlowControl: true, MaxWaiters: 32 * 4}
	const n, maxBytes = 20, 24 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := New(cfg, &fakeMem{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > maxBytes {
		t.Errorf("New allocates %d bytes, want at most %d", per, maxBytes)
	}
}

// TestWaitersServedInOrder: a row's waiters wake in the order they waited,
// on a filling entry and on a parked row whose slab fetches serve one
// corelet at a time (the others stay parked, in order).
func TestWaitersServedInOrder(t *testing.T) {
	var order []int
	wake := func(id int) func() { return func() { order = append(order, id) } }

	m := &fakeMem{}
	b := newBuf(t, cfg4x4(true), m, 10)
	for i, c := range []int{2, 0, 3, 1} {
		if b.Access(c, 0, 0, wake(i)) != Waiting {
			t.Fatal("access to an unfilled entry did not wait")
		}
	}
	m.drainOne()
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("entry waiters woke in order %v, want %v", order, want)
	}

	// Without flow control a leader evicts row 0; laggards then park on it,
	// each corelet's slab demand-fetched in the order they missed.
	cfg := cfg4x4(false)
	m = &fakeMem{}
	b = newBuf(t, cfg, m, 20)
	m.drainAll()
	for r := 0; r < 4; r++ {
		for s := 0; s < cfg.SlabWords(); s++ {
			b.Access(0, s, uint32(r*cfg.RowBytes), nil)
			m.drainAll()
		}
	}
	order = nil
	for i, w := range []struct{ c, slot int }{{2, 0}, {1, 0}, {2, 1}, {3, 0}, {1, 1}} {
		if b.Access(w.c, w.slot, 0, wake(i)) != Waiting {
			t.Fatal("laggard access did not wait")
		}
	}
	m.drainAll()
	if want := []int{0, 2, 1, 4, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("parked waiters woke in order %v, want %v", order, want)
	}
	if len(b.future) != 0 {
		t.Errorf("%d rows left parked after every fetch arrived", len(b.future))
	}
}
