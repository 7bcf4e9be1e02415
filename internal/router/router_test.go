// Tests for the cluster front tier: ring determinism and bounded key
// movement, routing consistency over real HTTP backends, failover when the
// owning node dies, and health-probe gating of a draining node.
package router_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/router"
)

// TestRingStability: node assignment is a pure function of the membership —
// two rings built from the same nodes agree on every key — and every node
// owns a share of a modest key space.
func TestRingStability(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c"}
	r1 := router.NewRing(nodes, 64)
	r2 := router.NewRing(nodes, 64)
	owned := map[string]int{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("job-%d", i)
		p1, p2 := r1.Lookup(key), r2.Lookup(key)
		if len(p1) != len(nodes) {
			t.Fatalf("Lookup(%q) returned %d nodes, want %d (full preference order)", key, len(p1), len(nodes))
		}
		for j := range p1 {
			if p1[j] != p2[j] {
				t.Fatalf("rings disagree on %q: %v vs %v", key, p1, p2)
			}
		}
		owned[p1[0]]++
	}
	for _, n := range nodes {
		if owned[n] == 0 {
			t.Errorf("node %s owns no keys out of 300 — ring badly skewed", n)
		}
	}
}

// TestRingBoundedMovement: removing one node moves only the keys it owned;
// every key owned by a surviving node keeps its owner.
func TestRingBoundedMovement(t *testing.T) {
	before := router.NewRing([]string{"http://a", "http://b", "http://c"}, 64)
	after := router.NewRing([]string{"http://a", "http://c"}, 64)
	moved := 0
	const keys = 600
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("job-%d", i)
		was, is := before.Lookup(key)[0], after.Lookup(key)[0]
		if was == "http://b" {
			moved++
			continue
		}
		if was != is {
			t.Fatalf("key %q moved from surviving node %s to %s", key, was, is)
		}
	}
	// b owned roughly a third; sanity-bound the churn well clear of "all".
	if moved == 0 || moved > keys/2 {
		t.Errorf("removed node owned %d/%d keys — outside the plausible 1/3 band", moved, keys)
	}
}

// fakeWorker is a minimal millid worker: it records the POST /v1/jobs bodies
// it receives and can be flipped to a draining /healthz.
type fakeWorker struct {
	mu       sync.Mutex
	posts    int
	draining atomic.Bool
	ts       *httptest.Server
}

func newFakeWorker(t *testing.T) *fakeWorker {
	f := &fakeWorker{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		f.mu.Lock()
		f.posts++
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"fake","status":"queued"}`)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if f.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeWorker) postCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.posts
}

func postBody(t *testing.T, rt *router.Router, body string) int {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader([]byte(body)))
	req.Header.Set("Content-Type", "application/json")
	rt.ServeHTTP(rec, req)
	return rec.Code
}

// TestRoutingConsistencyAndFailover: identical requests land on one worker;
// when that worker dies the router fails the request over to the survivor.
func TestRoutingConsistencyAndFailover(t *testing.T) {
	a, b := newFakeWorker(t), newFakeWorker(t)
	rt := router.New(router.Options{
		Nodes:          []string{a.ts.URL, b.ts.URL},
		Base:           arch.Default(),
		HealthInterval: time.Hour, // keep probes out of this test
		RetryBackoff:   time.Millisecond,
	})
	defer rt.Close()

	const body = `{"experiment":"ablation","scale":0.04}`
	for i := 0; i < 3; i++ {
		if code := postBody(t, rt, body); code != http.StatusAccepted {
			t.Fatalf("POST %d: HTTP %d", i, code)
		}
	}
	ca, cb := a.postCount(), b.postCount()
	if ca+cb != 3 || (ca != 0 && cb != 0) {
		t.Fatalf("identical requests split %d/%d across workers, want all on one", ca, cb)
	}
	owner, survivor := a, b
	if cb > 0 {
		owner, survivor = b, a
	}

	owner.ts.Close() // the owning node dies
	if code := postBody(t, rt, body); code != http.StatusAccepted {
		t.Fatalf("POST after owner death: HTTP %d, want failover 202", code)
	}
	if got := survivor.postCount(); got != 1 {
		t.Fatalf("survivor received %d posts after failover, want 1", got)
	}
	if v := rt.Metrics().Value("router.failovers"); v != 1 {
		t.Errorf("router.failovers = %g, want 1", v)
	}
	// A garbage body never reaches a worker: the router canonicalizes first.
	if code := postBody(t, rt, `{"experiment":"nope"}`); code != http.StatusBadRequest {
		t.Errorf("unknown experiment: HTTP %d, want 400", code)
	}
	// So does a body with a key the job API does not know, inside params as
	// at the top level; the 400 names the key.
	for key, body := range map[string]string{
		"Corelet":     `{"experiment":"ablation","params":{"Corelet":64}}`,
		"RowByte":     `{"experiment":"ablation","params":{"DRAM":{"RowByte":4096}}}`,
		"parallelism": `{"experiment":"ablation","parallelism":4}`,
		"Parallelism": `{"experiment":"ablation","params":{"Parallelism":4}}`,
		"skip":        `{"experiment":"ablation","skip":"off"}`,
	} {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		var eb struct{ Error string }
		json.Unmarshal(rec.Body.Bytes(), &eb)
		if rec.Code != http.StatusBadRequest || !strings.Contains(eb.Error, `"`+key+`"`) {
			t.Errorf("%s: HTTP %d %s, want 400 naming %q", body, rec.Code, rec.Body, key)
		}
	}
	if got := survivor.postCount(); got != 1 {
		t.Errorf("survivor received %d posts after the rejected bodies, want 1", got)
	}
}

// TestHealthProbeGatesDrainingNode: a node answering /healthz with 503 is
// taken out of the rotation within a probe period.
func TestHealthProbeGatesDrainingNode(t *testing.T) {
	a, b := newFakeWorker(t), newFakeWorker(t)
	rt := router.New(router.Options{
		Nodes:          []string{a.ts.URL, b.ts.URL},
		Base:           arch.Default(),
		HealthInterval: 5 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
	})
	defer rt.Close()

	a.draining.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for rt.Metrics().Value("router.nodes_healthy") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("draining node was never marked unhealthy")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Every key now prefers the healthy node.
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"experiment":"ablation","scale":0.0%d}`, i+1)
		if code := postBody(t, rt, body); code != http.StatusAccepted {
			t.Fatalf("POST %d with draining node: HTTP %d", i, code)
		}
	}
	if got := a.postCount(); got != 0 {
		t.Errorf("draining node still received %d posts", got)
	}
	if got := b.postCount(); got != 4 {
		t.Errorf("healthy node received %d posts, want 4", got)
	}
	// The router's own health answers 200 while any node is up.
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("router /healthz = %d with one healthy node, want 200", rec.Code)
	}
	var hb struct {
		NodesHealthy int `json:"nodes_healthy"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hb); err != nil || hb.NodesHealthy != 1 {
		t.Errorf("router /healthz body %q (err %v), want nodes_healthy 1", rec.Body.String(), err)
	}
}
