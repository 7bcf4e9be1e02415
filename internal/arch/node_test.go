package arch

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

type fakeUnit struct {
	ticks  int
	target int
}

func (u *fakeUnit) Tick(sim.Time) { u.ticks++ }
func (u *fakeUnit) Halted() bool  { return u.ticks >= u.target }

func TestNodeLifecycle(t *testing.T) {
	n, err := NewNode(Default(), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(0); err == nil {
		t.Error("Run without compute unit accepted")
	}
	u := &fakeUnit{target: 100}
	if err := n.AttachCompute(u); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachCompute(u); err == nil {
		t.Error("double attach accepted")
	}
	r, err := n.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if u.ticks != 100 || r.Time <= 0 {
		t.Errorf("ticks=%d now=%d", u.ticks, r.Time)
	}
	if r.Metrics.Value("mem.channels") != 1 {
		t.Errorf("node snapshot lacks the fabric's metrics: %q", r.Metrics.Render())
	}
}

func TestNewNodeRejectsBadParams(t *testing.T) {
	p := Default()
	p.Corelets = 0
	if _, err := NewNode(p, 1024); err == nil {
		t.Error("bad params accepted")
	}
	p = Default()
	if _, err := NewNode(p, -1); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestRunTimeLimitDefault(t *testing.T) {
	n, _ := NewNode(Default(), 1024)
	u := &fakeUnit{target: 1 << 30} // never halts within limit
	_ = n.AttachCompute(u)
	if _, err := n.Run(100 * sim.Nanosecond); err == nil {
		t.Error("time limit not enforced")
	}
}

func TestNodeMemPort(t *testing.T) {
	n, _ := NewNode(Default(), 1<<16)
	done := false
	ok := n.Mem.Enqueue(mem.Request{Addr: 0, Bytes: 64,
		Done: func(int64, bool) { done = true }})
	if !ok {
		t.Fatal("enqueue rejected on empty queue")
	}
	for i := 0; i < 200 && !done; i++ {
		n.Mem.Tick()
	}
	if !done {
		t.Error("fetch never completed")
	}
	// Nil callback must not panic.
	n.Mem.Enqueue(mem.Request{Addr: 128, Bytes: 64})
	for i := 0; i < 200; i++ {
		n.Mem.Tick()
	}
	if !n.Mem.Idle() {
		t.Error("port not idle after drain")
	}
	// Jitter injection plumbs through.
	n.InjectMemoryJitter(50, 3)
	delayed := false
	n.Mem.Enqueue(mem.Request{Addr: 4096, Bytes: 64,
		Done: func(int64, bool) { delayed = true }})
	for i := 0; i < 500 && !delayed; i++ {
		n.Mem.Tick()
	}
	if !delayed {
		t.Error("jittered fetch never completed")
	}
}

func TestNodeMultiChannel(t *testing.T) {
	p := Default()
	p.Channels = 2
	n, err := NewNode(p, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if n.Mem.Channels() != 2 {
		t.Fatalf("channels = %d", n.Mem.Channels())
	}
	// Consecutive rows land on alternating channels.
	rb := uint32(p.DRAM.RowBytes)
	if ch, _ := n.Mem.Route(0); ch != 0 {
		t.Errorf("row 0 on channel %d", ch)
	}
	if ch, _ := n.Mem.Route(rb); ch != 1 {
		t.Errorf("row 1 on channel %d", ch)
	}
	done := 0
	for i := 0; i < 4; i++ {
		ok := n.Mem.Enqueue(mem.Request{Addr: uint32(i) * rb, Bytes: 64,
			Done: func(int64, bool) { done++ }})
		if !ok {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	for i := 0; i < 500 && done < 4; i++ {
		n.Mem.Tick()
	}
	if done != 4 {
		t.Errorf("completions = %d, want 4", done)
	}
}
