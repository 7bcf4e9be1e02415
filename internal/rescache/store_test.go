// Tests for the shared result tier: the native lease protocol, the HTTP
// wire form (via HTTPTier against a real listener), and the cluster-wide
// guarantee — two nodes filling through one store simulate once.
package rescache

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestStoreLeaseProtocol: the first misser is granted the fill lease, later
// missers are told the fill is in flight, a fresh-lease Put fills and a
// stale-lease Put is dropped.
func TestStoreLeaseProtocol(t *testing.T) {
	st := NewStore(16, time.Minute)
	ctx := context.Background()

	_, lease, ok, err := st.Get(ctx, "k")
	if err != nil || ok || lease == "" {
		t.Fatalf("first miss: lease=%q ok=%v err=%v, want a granted lease", lease, ok, err)
	}
	_, lease2, ok, err := st.Get(ctx, "k")
	if err != nil || ok || lease2 != "" {
		t.Fatalf("second miss: lease=%q ok=%v err=%v, want held-elsewhere (empty lease)", lease2, ok, err)
	}

	// A stale token must not fill; the holder's token must.
	if st.putWithLease("k", []byte("stale"), "bogus") {
		t.Fatal("stale-lease Put was stored")
	}
	if !st.putWithLease("k", []byte("good"), lease) {
		t.Fatal("holder's Put was rejected")
	}
	v, _, ok, err := st.Get(ctx, "k")
	if err != nil || !ok || string(v) != "good" {
		t.Fatalf("after fill: v=%q ok=%v err=%v", v, ok, err)
	}
	if got := st.stalePuts.Load(); got != 1 {
		t.Fatalf("stalePuts = %d, want 1", got)
	}
}

// TestStoreLeaseExpiry: an expired lease is re-granted to the next misser,
// so a crashed filler cannot wedge a key.
func TestStoreLeaseExpiry(t *testing.T) {
	st := NewStore(16, 10*time.Millisecond)
	ctx := context.Background()
	_, lease, _, _ := st.Get(ctx, "k")
	if lease == "" {
		t.Fatal("first miss granted no lease")
	}
	time.Sleep(20 * time.Millisecond)
	_, lease2, _, _ := st.Get(ctx, "k")
	if lease2 == "" || lease2 == lease {
		t.Fatalf("after expiry: lease=%q (previous %q), want a fresh grant", lease2, lease)
	}
}

// TestStoreWireForm: the HTTP handler and HTTPTier round-trip the protocol —
// 404+lease on first miss, 404+Retry-After while held, 204 fill, 409 stale.
func TestStoreWireForm(t *testing.T) {
	st := NewStore(16, time.Minute)
	ts := httptest.NewServer(st.Handler())
	defer ts.Close()
	tier := NewHTTPTier(ts.URL, nil)
	ctx := context.Background()

	_, lease, ok, err := tier.Get(ctx, "k")
	if err != nil || ok || lease == "" {
		t.Fatalf("first miss over HTTP: lease=%q ok=%v err=%v", lease, ok, err)
	}
	// While the lease is held, the wire form is 404 + Retry-After, which the
	// tier reports as a leaseless miss.
	resp, err := http.Get(ts.URL + "/store/v1/items/k")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("held-lease GET: HTTP %d Retry-After=%q, want 404 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	if err := tier.Put(ctx, "k", []byte(`{"r":1}`), lease); err != nil {
		t.Fatalf("fill Put: %v", err)
	}
	v, _, ok, err := tier.Get(ctx, "k")
	if err != nil || !ok || string(v) != `{"r":1}` {
		t.Fatalf("after fill: v=%q ok=%v err=%v", v, ok, err)
	}
	// A stale-lease Put answers 409, which the tier treats as success (the
	// key was filled — with deterministic results that is just as good) and
	// the stored value must be unchanged.
	if err := tier.Put(ctx, "k", []byte("junk"), "bogus"); err != nil {
		t.Fatalf("stale Put should not error through the tier: %v", err)
	}
	if v, _, _, _ := tier.Get(ctx, "k"); string(v) != `{"r":1}` {
		t.Fatalf("stale Put overwrote the value: %q", v)
	}
	if got := st.stalePuts.Load(); got != 1 {
		t.Fatalf("stalePuts = %d, want 1", got)
	}
}

// TestClusterWideHit: two nodes filling one key through one store compute
// it once — the second node's Fill is a shared-tier hit, its computation
// untouched.
func TestClusterWideHit(t *testing.T) {
	st := NewStore(16, time.Minute)
	ctx := context.Background()
	v, shared, err := Fill(ctx, st, "k", func() ([]byte, error) { return []byte("once"), nil })
	if err != nil || shared || string(v) != "once" {
		t.Fatalf("node A: v=%q shared=%v err=%v", v, shared, err)
	}
	v, shared, err = Fill(ctx, st, "k", func() ([]byte, error) {
		t.Fatal("node B recomputed a cluster-cached result")
		return nil, nil
	})
	if err != nil || !shared || string(v) != "once" {
		t.Fatalf("node B: v=%q shared=%v err=%v", v, shared, err)
	}
	if s := st.Stats(); s.Hits != 1 || s.Misses != 1 || st.puts.Load() != 1 {
		t.Fatalf("store stats = %+v, %d puts; want 1 hit, 1 miss, 1 put", s, st.puts.Load())
	}
}
