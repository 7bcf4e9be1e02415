// Tests for the router's body -> job id memo, over in-process millid
// workers.
package router_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/router"
	"repro/internal/server"
)

// inproc is an http.RoundTripper that hands each request to the handler of
// its origin, so no request touches a socket.
type inproc map[string]http.Handler

func (t inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	h, ok := t[req.URL.Scheme+"://"+req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no handler for %s", req.URL.Host)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Result(), nil
}

func newRouter(t *testing.T, tr inproc) *router.Router {
	t.Helper()
	var nodes []string
	for n := range tr {
		nodes = append(nodes, n)
	}
	rt := router.New(router.Options{
		Nodes:          nodes,
		Base:           arch.Default(),
		Transport:      tr,
		HealthInterval: time.Hour,
		RetryBackoff:   time.Millisecond,
	})
	t.Cleanup(rt.Close)
	return rt
}

func post(rt *router.Router, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	return rec
}

// TestRouterMemoEquivalentBodies: equivalent bodies (key order changed, a
// default spelled out) get one id and one record on one worker, whether the
// router canonicalizes them or answers them from its memo.
func TestRouterMemoEquivalentBodies(t *testing.T) {
	run := func(ctx context.Context, req server.Request) (harness.ExperimentResult, error) {
		return harness.ExperimentResult{Text: "ok"}, nil
	}
	a := server.New(arch.Default(), server.Options{Workers: 1, Runner: run})
	b := server.New(arch.Default(), server.Options{Workers: 1, Runner: run})
	rt := newRouter(t, inproc{"http://a": a, "http://b": b})

	bodies := []string{
		`{"experiment":"ablation","scale":0.04}`,
		`{"scale":0.04,"experiment":"ablation"}`,
		`{"experiment":"ablation","scale":0.04,"processors":1}`,
	}
	want, err := server.CanonicalID(arch.Default(), []byte(bodies[0]))
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		for _, body := range bodies {
			rec := post(rt, body)
			var st struct{ ID string }
			json.Unmarshal(rec.Body.Bytes(), &st)
			if (rec.Code != http.StatusOK && rec.Code != http.StatusAccepted) || st.ID != want {
				t.Fatalf("round %d, %s: HTTP %d id %q, want id %s", round, body, rec.Code, st.ID, want)
			}
		}
	}
	if n := rt.MemoLen(); n != len(bodies) {
		t.Errorf("router memo holds %d bodies, want %d", n, len(bodies))
	}
	records := 0
	for _, w := range []*server.Server{a, b} {
		records += int(w.Metrics().Value("server.jobs_submitted"))
	}
	if records != 1 {
		t.Errorf("the cluster took %d jobs for one canonical request, want 1", records)
	}
}

// TestRouterMemoRejectsAndBounds: an invalid body is answered 400 every
// time and never memoized or forwarded; more distinct bodies than the bound
// leave the memo at its bound; a body over server.MaxBodyBytes is answered
// 413.
func TestRouterMemoRejectsAndBounds(t *testing.T) {
	var posts atomic.Int64
	worker := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.WriteHeader(http.StatusAccepted)
	})
	rt := newRouter(t, inproc{"http://a": worker})

	for i := 0; i < 3; i++ {
		if rec := post(rt, `{"experiment":"nope"}`); rec.Code != http.StatusBadRequest {
			t.Errorf("invalid body, POST %d: HTTP %d, want 400", i, rec.Code)
		}
	}
	if n, p := rt.MemoLen(), posts.Load(); n != 0 || p != 0 {
		t.Fatalf("invalid body: memo holds %d bodies, worker saw %d posts; want 0 and 0", n, p)
	}

	if rec := post(rt, `{"experiment":"ablation"}`+strings.Repeat(" ", 2<<20)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("2 MiB body: HTTP %d, want 413", rec.Code)
	}
	if n, p := rt.MemoLen(), posts.Load(); n != 0 || p != 0 {
		t.Fatalf("2 MiB body: memo holds %d bodies, worker saw %d posts; want 0 and 0", n, p)
	}

	for i := 0; i < server.MemoEntries+50; i++ {
		if rec := post(rt, fmt.Sprintf(`{"experiment":"ablation","seed":%d}`, i+1)); rec.Code != http.StatusAccepted {
			t.Fatalf("POST %d: HTTP %d", i, rec.Code)
		}
	}
	if n := rt.MemoLen(); n != server.MemoEntries {
		t.Errorf("router memo holds %d bodies, want its bound %d", n, server.MemoEntries)
	}
	if p := posts.Load(); p != server.MemoEntries+50 {
		t.Errorf("worker saw %d posts, want %d", p, server.MemoEntries+50)
	}
}
