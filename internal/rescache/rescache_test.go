package rescache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestKeyDeterministic: same request value, same digest; different values,
// different digests.
func TestKeyDeterministic(t *testing.T) {
	type req struct {
		Experiment string  `json:"experiment"`
		Scale      float64 `json:"scale"`
		Seed       uint64  `json:"seed"`
	}
	a1, err := Key(req{"fig3", 1, 42})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Key(req{"fig3", 1, 42})
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("identical requests hashed differently: %s vs %s", a1, a2)
	}
	if len(a1) != 64 {
		t.Fatalf("key %q is not a SHA-256 hex digest", a1)
	}
	b, err := Key(req{"fig3", 2, 42})
	if err != nil {
		t.Fatal(err)
	}
	if a1 == b {
		t.Fatal("different requests collided")
	}
}

// TestLRUEviction: the cache holds at most max entries and evicts least
// recently used first.
func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a (recently used) was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries and 1 eviction", st)
	}
}

// TestGetPutStats: a Get before the Put misses, a Get after it hits, and
// the hit rate is hits over lookups.
func TestGetPutStats(t *testing.T) {
	c := New(8)
	if _, ok := c.Get("k"); ok {
		t.Fatal("hit before any Put")
	}
	c.Put("k", []byte("v"))
	if v, ok := c.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("after Put: v=%q ok=%v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %g, want 0.5", got)
	}
}

// fakeTier is a scriptable SharedTier for two-tier unit tests.
type fakeTier struct {
	mu     sync.Mutex
	values map[string][]byte
	lease  string // granted on every miss
	gets   int
	puts   map[string]string // key -> lease the Put presented
}

func newFakeTier(lease string) *fakeTier {
	return &fakeTier{values: map[string][]byte{}, lease: lease, puts: map[string]string{}}
}

func (f *fakeTier) Get(ctx context.Context, key string) ([]byte, string, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	if v, ok := f.values[key]; ok {
		return v, "", true, nil
	}
	return nil, f.lease, false, nil
}

func (f *fakeTier) Put(ctx context.Context, key string, value []byte, lease string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.values[key] = value
	f.puts[key] = lease
	return nil
}

// failTier is a shared tier whose every call fails, as an unreachable
// store's does.
type failTier struct{ gets, puts atomic.Int64 }

func (f *failTier) Get(context.Context, string) ([]byte, string, bool, error) {
	f.gets.Add(1)
	return nil, "", false, errors.New("store down")
}

func (f *failTier) Put(context.Context, string, []byte, string) error {
	f.puts.Add(1)
	return errors.New("store down")
}

// TestTwoTierSharedHit: a value the shared tier holds is returned as a
// shared hit without computing.
func TestTwoTierSharedHit(t *testing.T) {
	tier := newFakeTier("L")
	tier.values["k"] = []byte("remote")
	v, shared, err := Fill(context.Background(), tier, "k", func() ([]byte, error) {
		t.Fatal("computed despite a shared-tier hit")
		return nil, nil
	})
	if err != nil || !shared || string(v) != "remote" {
		t.Fatalf("v=%q shared=%v err=%v", v, shared, err)
	}
	if tier.gets != 1 || len(tier.puts) != 0 {
		t.Fatalf("tier saw %d gets and %d puts, want 1 and 0", tier.gets, len(tier.puts))
	}
}

// TestTwoTierMissComputesAndPublishes: a cluster-wide miss computes locally
// and publishes the result back under the granted lease.
func TestTwoTierMissComputesAndPublishes(t *testing.T) {
	tier := newFakeTier("L1")
	v, shared, err := Fill(context.Background(), tier, "k", func() ([]byte, error) { return []byte("computed"), nil })
	if err != nil || shared || string(v) != "computed" {
		t.Fatalf("v=%q shared=%v err=%v", v, shared, err)
	}
	tier.mu.Lock()
	stored, lease := string(tier.values["k"]), tier.puts["k"]
	tier.mu.Unlock()
	if stored != "computed" || lease != "L1" {
		t.Fatalf("tier got %q under lease %q, want computed under L1", stored, lease)
	}
}

// TestFillErrorNotPublished: a failed computation returns its error and
// publishes nothing, so the next Fill computes again.
func TestFillErrorNotPublished(t *testing.T) {
	tier := newFakeTier("L")
	boom := errors.New("boom")
	if _, _, err := Fill(context.Background(), tier, "k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if len(tier.puts) != 0 {
		t.Fatalf("a failed computation was published: %v", tier.puts)
	}
	v, shared, err := Fill(context.Background(), tier, "k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || shared || string(v) != "ok" {
		t.Fatalf("retry: v=%q shared=%v err=%v", v, shared, err)
	}
}

// TestTwoTierLeaseWait: with the fill lease held elsewhere, Fill backs off
// and picks up the value the other node publishes instead of computing.
func TestTwoTierLeaseWait(t *testing.T) {
	tier := newFakeTier("") // empty lease = fill in flight elsewhere
	go func() {
		// "The other node" publishes during the grace window.
		time.Sleep(leaseWaitStep / 2)
		tier.Put(context.Background(), "k", []byte("theirs"), "")
	}()
	v, shared, err := Fill(context.Background(), tier, "k", func() ([]byte, error) {
		t.Error("computed: Fill should have waited out the lease")
		return nil, nil
	})
	if err != nil || !shared || string(v) != "theirs" {
		t.Fatalf("v=%q shared=%v err=%v", v, shared, err)
	}
}

// TestTwoTierLeaseWaitBounded: when the lease holder never publishes, Fill
// computes after the grace window and publishes without a lease; a context
// that ends during the wait ends the Fill with its error.
func TestTwoTierLeaseWaitBounded(t *testing.T) {
	tier := newFakeTier("")
	v, shared, err := Fill(context.Background(), tier, "k", func() ([]byte, error) { return []byte("mine"), nil })
	if err != nil || shared || string(v) != "mine" {
		t.Fatalf("v=%q shared=%v err=%v", v, shared, err)
	}
	if tier.gets != 1+leaseWaitRetries {
		t.Errorf("tier saw %d gets, want %d", tier.gets, 1+leaseWaitRetries)
	}
	if lease, ok := tier.puts["k"]; !ok || lease != "" {
		t.Errorf("published under lease %q (published %v), want no lease", lease, ok)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Fill(ctx, newFakeTier(""), "k", func() ([]byte, error) {
		t.Error("computed after the context ended")
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait: got %v, want context.Canceled", err)
	}
}

// TestTwoTierErrors: an unreachable tier degrades to a miss — Fill waits
// out the grace window as for a held lease, then computes and returns the
// value despite the failed publish.
func TestTwoTierErrors(t *testing.T) {
	tier := &failTier{}
	v, shared, err := Fill(context.Background(), tier, "k", func() ([]byte, error) { return []byte("local"), nil })
	if err != nil || shared || string(v) != "local" {
		t.Fatalf("v=%q shared=%v err=%v", v, shared, err)
	}
	if g, p := tier.gets.Load(), tier.puts.Load(); g != 1+leaseWaitRetries || p != 1 {
		t.Errorf("tier saw %d gets and %d puts, want %d and 1", g, p, 1+leaseWaitRetries)
	}
}

// TestManyKeys exercises eviction and lookups across a larger key space.
func TestManyKeys(t *testing.T) {
	c := New(16)
	for i := 0; i < 64; i++ {
		k, err := Key(struct{ I int }{i})
		if err != nil {
			t.Fatal(err)
		}
		c.Put(k, []byte(fmt.Sprint(i)))
	}
	if st := c.Stats(); st.Entries != 16 || st.Evictions != 48 {
		t.Fatalf("stats = %+v, want 16 entries / 48 evictions", st)
	}
}
