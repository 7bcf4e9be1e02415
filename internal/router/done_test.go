// Tests for the router's finished-job store: which replies it keeps, that
// it answers repeats of them without a worker, that it answers a status
// only while it keeps the result, its bound, its allocations, its safety
// under concurrent fills and hits, and the cluster hit rate.
package router_test

import (
	"context"
	"errors"
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
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/server"
)

// counted passes requests to a worker and counts them.
type counted struct {
	h http.Handler
	n atomic.Int64
}

func (c *counted) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.n.Add(1)
	c.h.ServeHTTP(w, r)
}

// reply is one answer as a client sees it.
type reply struct {
	code int
	ct   string
	body string
}

func call(h http.Handler, method, path, body string) reply {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return reply{rec.Code, rec.Header().Get("Content-Type"), rec.Body.String()}
}

// pollDone polls a job's status through h until it is done, and returns an
// error if it fails, the status GET fails or a minute passes.
func pollDone(h http.Handler, id string) error {
	deadline := time.Now().Add(time.Minute)
	for {
		rp := call(h, http.MethodGet, "/v1/jobs/"+id, "")
		switch {
		case rp.code == http.StatusOK && strings.Contains(rp.body, `"status": "done"`):
			return nil
		case rp.code != http.StatusOK || strings.Contains(rp.body, `"status": "failed"`) || time.Now().After(deadline):
			return fmt.Errorf("job %s: HTTP %d %s", id, rp.code, rp.body)
		}
		time.Sleep(time.Millisecond)
	}
}

func quickRun(ctx context.Context, req server.Request) (harness.ExperimentResult, error) {
	return harness.ExperimentResult{Text: fmt.Sprintf("fake result seed=%d", req.Seed)}, nil
}

// cluster is a router over two in-process workers whose requests are counted.
func cluster(t *testing.T, run server.Runner) (*router.Router, [2]*server.Server, [2]*counted) {
	t.Helper()
	var ws [2]*server.Server
	var cs [2]*counted
	tr := inproc{}
	for i, origin := range []string{"http://a", "http://b"} {
		ws[i] = server.New(arch.Default(), server.Options{Workers: 2, Runner: run})
		cs[i] = &counted{h: ws[i]}
		tr[origin] = cs[i]
	}
	return newRouter(t, tr), ws, cs
}

func workerRequests(cs [2]*counted) int64 { return cs[0].n.Load() + cs[1].n.Load() }

// TestRouterAnswersFinishedJobs: once a job's result, and then its done
// status, have passed through the router, a repeated POST (the same body or
// an equivalent one), status GET and result GET are answered by the router
// with the worker's code, Content-Type and bytes, and reach no worker.
func TestRouterAnswersFinishedJobs(t *testing.T) {
	rt, ws, cs := cluster(t, quickRun)
	const (
		body       = `{"experiment":"ablation","scale":0.04,"seed":9}`
		equivalent = `{"seed":9, "scale":0.04, "experiment":"ablation", "processors":1}`
	)
	id, err := server.CanonicalID(arch.Default(), []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if rp := call(rt, http.MethodPost, "/v1/jobs", body); rp.code != http.StatusAccepted {
		t.Fatalf("first POST: HTTP %d %s", rp.code, rp.body)
	}
	if err := pollDone(rt, id); err != nil {
		t.Fatal(err)
	}
	if rp := call(rt, http.MethodGet, "/v1/jobs/"+id+"/result", ""); rp.code != http.StatusOK {
		t.Fatalf("first result GET: HTTP %d %s", rp.code, rp.body)
	}
	// The done statuses polled above passed before the result was kept; this
	// one is kept.
	before := workerRequests(cs)
	if rp := call(rt, http.MethodGet, "/v1/jobs/"+id, ""); rp.code != http.StatusOK {
		t.Fatalf("status GET after the result GET: HTTP %d %s", rp.code, rp.body)
	}
	if n := workerRequests(cs) - before; n != 1 {
		t.Fatalf("the status GET after the result GET reached the workers %d times, want once", n)
	}

	owner := ws[0]
	if ws[1].Metrics().Value("server.jobs_submitted") == 1 {
		owner = ws[1]
	}
	want := map[string]reply{
		"POST":                 call(owner, http.MethodPost, "/v1/jobs", body),
		"status GET":           call(owner, http.MethodGet, "/v1/jobs/"+id, ""),
		"result GET":           call(owner, http.MethodGet, "/v1/jobs/"+id+"/result", ""),
		"equivalent body POST": call(owner, http.MethodPost, "/v1/jobs", equivalent),
	}
	for name, rp := range want {
		if rp.code != http.StatusOK || rp.ct != "application/json" {
			t.Fatalf("worker's %s: HTTP %d %q", name, rp.code, rp.ct)
		}
	}

	workers, routed := workerRequests(cs), rt.Metrics().Value("router.requests_routed")
	hits := rt.Metrics().Value("router.cache_hits")
	for round := 0; round < 2; round++ {
		for name, rp := range map[string]reply{
			"POST":                 call(rt, http.MethodPost, "/v1/jobs", body),
			"status GET":           call(rt, http.MethodGet, "/v1/jobs/"+id, ""),
			"result GET":           call(rt, http.MethodGet, "/v1/jobs/"+id+"/result", ""),
			"equivalent body POST": call(rt, http.MethodPost, "/v1/jobs", equivalent),
		} {
			if rp != want[name] {
				t.Errorf("round %d, router's %s: HTTP %d %q %s\nwant the worker's HTTP %d %q %s", round, name, rp.code, rp.ct, rp.body, want[name].code, want[name].ct, want[name].body)
			}
		}
	}
	if n := workerRequests(cs) - workers; n != 0 {
		t.Errorf("the workers saw %d of the repeated requests, want 0", n)
	}
	if n := rt.Metrics().Value("router.requests_routed") - routed; n != 0 {
		t.Errorf("router.requests_routed rose by %g for requests answered from the store, want 0", n)
	}
	if n := rt.Metrics().Value("router.cache_hits") - hits; n != 8 {
		t.Errorf("router.cache_hits rose by %g, want 8", n)
	}
}

// TestRouterKeepsOnlyFinishedReplies: a queued or running status, a 409
// result of an unfinished job, a failed status and its result, a 404 and a
// HEAD are relayed but never kept, so each repeat reaches the worker, and a
// failed job's resubmission runs it again.
func TestRouterKeepsOnlyFinishedReplies(t *testing.T) {
	ahead, fail := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	run := func(ctx context.Context, req server.Request) (harness.ExperimentResult, error) {
		if req.Experiment != "fig3" {
			<-ahead // holds the one pool worker, so the fig3 job stays queued
		} else if calls.Add(1) == 1 {
			<-fail
			return harness.ExperimentResult{}, errors.New("transient failure")
		}
		return quickRun(ctx, req)
	}
	worker := &counted{h: server.New(arch.Default(), server.Options{Workers: 1, Runner: run})}
	rt := newRouter(t, inproc{"http://a": worker})
	const body = `{"experiment":"fig3","seed":4}`
	id, err := server.CanonicalID(arch.Default(), []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	status, result := "/v1/jobs/"+id, "/v1/jobs/"+id+"/result"
	// via sends one request through the router, which must forward it.
	via := func(method, path, body string, wantCode int, wantIn string) {
		t.Helper()
		before := worker.n.Load()
		rp := call(rt, method, path, body)
		if rp.code != wantCode || !strings.Contains(rp.body, wantIn) {
			t.Fatalf("%s %s: HTTP %d %s, want %d with %s", method, path, rp.code, rp.body, wantCode, wantIn)
		}
		if n := worker.n.Load() - before; n != 1 {
			t.Errorf("%s %s reached the worker %d times, want once", method, path, n)
		}
	}
	// until polls the job's status through the router until it says st.
	until := func(st string) {
		t.Helper()
		deadline := time.Now().Add(time.Minute)
		for !strings.Contains(call(rt, http.MethodGet, status, "").body, `"status": "`+st+`"`) {
			if time.Now().After(deadline) {
				t.Fatalf("job never reached status %q", st)
			}
			time.Sleep(time.Millisecond)
		}
	}

	via(http.MethodPost, "/v1/jobs", `{"experiment":"ablation","seed":1}`, http.StatusAccepted, `"status": "queued"`)
	via(http.MethodPost, "/v1/jobs", body, http.StatusAccepted, `"status": "queued"`)
	for _, st := range []string{"queued", "running"} {
		for i := 0; i < 2; i++ {
			via(http.MethodPost, "/v1/jobs", body, http.StatusOK, `"status": "`+st+`"`)
			via(http.MethodGet, status, "", http.StatusOK, `"status": "`+st+`"`)
			via(http.MethodGet, result, "", http.StatusConflict, `"status": "`+st+`"`)
		}
		if st == "queued" {
			close(ahead)
			until("running")
		}
	}
	close(fail)
	until("failed")
	for i := 0; i < 2; i++ {
		via(http.MethodGet, status, "", http.StatusOK, `"status": "failed"`)
		via(http.MethodGet, result, "", http.StatusInternalServerError, "transient failure")
		via(http.MethodGet, "/v1/jobs/nope", "", http.StatusNotFound, "unknown job")
	}
	via(http.MethodPost, "/v1/jobs", body, http.StatusAccepted, `"status": "queued"`)
	until("done")
	if n := calls.Load(); n != 2 {
		t.Errorf("the runner ran the job %d times, want 2 (the failed job's resubmission runs it again)", n)
	}
	for i := 0; i < 2; i++ {
		via(http.MethodHead, result, "", http.StatusOK, "fake result")
	}
	if v := rt.Metrics().Value("router.cache_hits"); v != 0 {
		t.Errorf("router.cache_hits = %g, want 0", v)
	}
}

// finishedWorker answers every POST with a done status of the body's id
// and every result GET with a result body, as a worker does for finished
// jobs.
var finishedWorker = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if r.Method == http.MethodPost {
		body, _ := io.ReadAll(r.Body)
		id, err := server.CanonicalID(arch.Default(), body)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "{\n  \"id\": %q,\n  \"status\": \"done\"\n}\n", id)
		return
	}
	fmt.Fprintf(w, "{\n  \"id\": %q\n}\n", r.PathValue("id"))
})

// TestRouterStoreStaysAtBound: more finished jobs than server.MemoEntries
// leave the store at its bound, and the newest job is still answered from
// it. A kept status whose result has been evicted is not answered.
func TestRouterStoreStaysAtBound(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/jobs", finishedWorker)
	mux.Handle("GET /v1/jobs/{id}/result", finishedWorker)
	worker := &counted{h: mux}
	rt := newRouter(t, inproc{"http://a": worker})
	var last string
	for i := 0; i < server.MemoEntries+50; i++ {
		body := fmt.Sprintf(`{"experiment":"ablation","seed":%d}`, i+1)
		rp := call(rt, http.MethodPost, "/v1/jobs", body)
		if rp.code != http.StatusOK {
			t.Fatalf("POST %d: HTTP %d %s", i, rp.code, rp.body)
		}
		last, _ = server.CanonicalID(arch.Default(), []byte(body))
		if rp := call(rt, http.MethodGet, "/v1/jobs/"+last+"/result", ""); rp.code != http.StatusOK {
			t.Fatalf("result GET %d: HTTP %d", i, rp.code)
		}
		if rp := call(rt, http.MethodPost, "/v1/jobs", body); rp.code != http.StatusOK {
			t.Fatalf("repeated POST %d: HTTP %d %s", i, rp.code, rp.body)
		}
	}
	if s, r := rt.KeptLen(); s != server.MemoEntries || r != server.MemoEntries {
		t.Errorf("the store keeps %d status and %d result bodies, want its bound %d of each", s, r, server.MemoEntries)
	}
	before := worker.n.Load()
	call(rt, http.MethodGet, "/v1/jobs/"+last, "")
	call(rt, http.MethodGet, "/v1/jobs/"+last+"/result", "")
	if n := worker.n.Load() - before; n != 0 {
		t.Errorf("the newest finished job reached the worker %d times, want 0", n)
	}

	// Result GETs of other jobs evict last's result but not its status.
	for i := 0; i < server.MemoEntries; i++ {
		call(rt, http.MethodGet, fmt.Sprintf("/v1/jobs/other%d/result", i), "")
	}
	before = worker.n.Load()
	call(rt, http.MethodPost, "/v1/jobs", fmt.Sprintf(`{"experiment":"ablation","seed":%d}`, server.MemoEntries+50))
	if n := worker.n.Load() - before; n != 1 {
		t.Errorf("a POST of a job whose result was evicted reached the worker %d times, want once", n)
	}
}

// maxKeptPostAllocs bounds the allocations of a POST the router answers
// from its store, request and recorder included (13 of them). Forwarded to
// a worker, the same POST made 52.
const maxKeptPostAllocs = 26

// TestKeptPostAllocs is the allocation gate on a POST answered from the
// router's store.
func TestKeptPostAllocs(t *testing.T) {
	rt, _, _ := cluster(t, quickRun)
	const body = `{"experiment":"ablation","scale":0.04}`
	id, _ := server.CanonicalID(arch.Default(), []byte(body))
	call(rt, http.MethodPost, "/v1/jobs", body)
	if err := pollDone(rt, id); err != nil {
		t.Fatal(err)
	}
	call(rt, http.MethodGet, "/v1/jobs/"+id+"/result", "")
	call(rt, http.MethodPost, "/v1/jobs", body)
	hits := rt.Metrics().Value("router.cache_hits")
	if got := testing.AllocsPerRun(200, func() { call(rt, http.MethodPost, "/v1/jobs", body) }); got > maxKeptPostAllocs {
		t.Errorf("a POST answered from the store makes %g allocations, want at most %d", got, maxKeptPostAllocs)
	}
	if n := rt.Metrics().Value("router.cache_hits") - hits; n != 201 {
		t.Errorf("router.cache_hits rose by %g over the 201 POSTs, want 201", n)
	}
}

// TestRouterDoneImpliesResult: a job whose done status passed through the
// router, but whose result never did, is not answered from the store once
// its worker has dropped the record. Its POST reaches the worker, which
// runs it again, and the result GET that follows returns the result.
func TestRouterDoneImpliesResult(t *testing.T) {
	const bound = 4
	var sims atomic.Int64
	run := func(ctx context.Context, req server.Request) (harness.ExperimentResult, error) {
		sims.Add(1)
		return quickRun(ctx, req)
	}
	worker := &counted{h: server.New(arch.Default(), server.Options{Workers: 1, CacheEntries: bound, Runner: run})}
	rt := newRouter(t, inproc{"http://a": worker})
	submit := func(seed int) string {
		t.Helper()
		body := fmt.Sprintf(`{"experiment":"ablation","seed":%d}`, seed)
		if rp := call(rt, http.MethodPost, "/v1/jobs", body); rp.code != http.StatusOK && rp.code != http.StatusAccepted {
			t.Fatalf("POST %s: HTTP %d %s", body, rp.code, rp.body)
		}
		id, _ := server.CanonicalID(arch.Default(), []byte(body))
		if err := pollDone(rt, id); err != nil {
			t.Fatal(err)
		}
		return id
	}
	id := submit(1)
	for seed := 2; seed <= 2*bound+2; seed++ {
		submit(seed) // the worker drops job 1's record and cached result
	}
	before, ran := worker.n.Load(), sims.Load()
	if submit(1) != id {
		t.Fatal("the resubmission has another id")
	}
	if worker.n.Load() == before || sims.Load() != ran+1 {
		t.Errorf("the resubmission reached the worker %d times and ran %d simulations, want it to run once more",
			worker.n.Load()-before, sims.Load()-ran)
	}
	if rp := call(rt, http.MethodGet, "/v1/jobs/"+id+"/result", ""); rp.code != http.StatusOK || !strings.Contains(rp.body, "fake result seed=1") {
		t.Errorf("result GET after the resubmission: HTTP %d %s, want 200 with the result", rp.code, rp.body)
	}
}

// TestRouterKeepsStatusOnlyWhenDone: while the router keeps a job's result
// and its worker, having dropped the record, runs the job again, the queued
// and running statuses are relayed but not kept; the done status that
// follows is kept and answered.
func TestRouterKeepsStatusOnlyWhenDone(t *testing.T) {
	const bound = 2
	release := make(chan struct{})
	var runs atomic.Int64
	run := func(ctx context.Context, req server.Request) (harness.ExperimentResult, error) {
		if req.Seed == 1 && runs.Add(1) == 2 {
			<-release
		}
		return quickRun(ctx, req)
	}
	worker := &counted{h: server.New(arch.Default(), server.Options{Workers: 1, CacheEntries: bound, Runner: run})}
	rt := newRouter(t, inproc{"http://a": worker})
	body := func(seed int) string { return fmt.Sprintf(`{"experiment":"ablation","seed":%d}`, seed) }
	id, _ := server.CanonicalID(arch.Default(), []byte(body(1)))
	for seed := 1; seed <= 2*bound+2; seed++ {
		call(rt, http.MethodPost, "/v1/jobs", body(seed))
		sid, _ := server.CanonicalID(arch.Default(), []byte(body(seed)))
		if err := pollDone(rt, sid); err != nil {
			t.Fatal(err)
		}
		if seed == 1 {
			if rp := call(rt, http.MethodGet, "/v1/jobs/"+id+"/result", ""); rp.code != http.StatusOK {
				t.Fatalf("result GET: HTTP %d %s", rp.code, rp.body)
			}
		}
	}
	// reaches sends one request through the router and reports how often
	// the worker saw it.
	reaches := func(method, path, body, wantIn string) int64 {
		t.Helper()
		before := worker.n.Load()
		if rp := call(rt, method, path, body); !strings.Contains(rp.body, wantIn) {
			t.Fatalf("%s %s: HTTP %d %s, want %s", method, path, rp.code, rp.body, wantIn)
		}
		return worker.n.Load() - before
	}
	if n := reaches(http.MethodPost, "/v1/jobs", body(1), `"status": "queued"`); n != 1 {
		t.Fatalf("the POST of a dropped record reached the worker %d times, want once", n)
	}
	deadline := time.Now().Add(time.Minute)
	for !strings.Contains(call(rt, http.MethodGet, "/v1/jobs/"+id, "").body, `"status": "running"`) {
		if time.Now().After(deadline) {
			t.Fatal("the re-run never started")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if n := reaches(http.MethodGet, "/v1/jobs/"+id, "", `"status": "running"`); n != 1 {
			t.Errorf("running status GET %d reached the worker %d times, want once", i, n)
		}
		if n := reaches(http.MethodPost, "/v1/jobs", body(1), `"status": "running"`); n != 1 {
			t.Errorf("POST %d of a running job reached the worker %d times, want once", i, n)
		}
	}
	close(release)
	if err := pollDone(rt, id); err != nil { // its last poll keeps the done status
		t.Fatal(err)
	}
	if n := reaches(http.MethodGet, "/v1/jobs/"+id, "", `"status": "done"`) + reaches(http.MethodPost, "/v1/jobs", body(1), `"status": "done"`); n != 0 {
		t.Errorf("the done job's status GET and POST reached the worker %d times, want 0", n)
	}
}

// TestHitRates: hits at every tier count in hit_rate, and a snapshot
// holding only the router's counters reads 0, not a hit rate of 1.
func TestHitRates(t *testing.T) {
	snap := func(kv ...any) metrics.Snapshot {
		var s metrics.Snapshot
		for i := 0; i < len(kv); i += 2 {
			s.Put(metrics.Sample{Name: kv[i].(string), Kind: metrics.Counter, Value: kv[i+1].(float64)})
		}
		return s
	}
	for _, c := range []struct {
		name             string
		s                metrics.Snapshot
		hitRate, sharedF float64
	}{
		{"empty", snap(), 0, 0},
		{"router only", snap("router.cache_hits", 5.0), 0, 0},
		{"no lookups", snap("router.cache_hits", 0.0, "server.cache_hits", 0.0, "server.cache_misses", 0.0), 0, 0},
		{"all tiers", snap("router.cache_hits", 5.0, "server.cache_hits", 2.0, "server.cache_shared_hits", 1.0, "server.cache_misses", 2.0), 0.8, 0.125},
	} {
		if h, f := router.HitRates(c.s); h != c.hitRate || f != c.sharedF {
			t.Errorf("%s: HitRates = %g, %g, want %g, %g", c.name, h, f, c.hitRate, c.sharedF)
		}
	}
}

// TestRouterConcurrentFillsAndHits: clients submitting, polling and
// fetching overlapping jobs at once, while the router fills its store and
// answers from it, all see each job's one result body.
func TestRouterConcurrentFillsAndHits(t *testing.T) {
	rt, _, _ := cluster(t, quickRun)
	const jobs, clients, rounds = 6, 8, 5
	var mu sync.Mutex
	results := map[string]string{}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < jobs*rounds; i++ {
				body := fmt.Sprintf(`{"experiment":"ablation","scale":0.04,"seed":%d}`, (c+i)%jobs+1)
				rp := call(rt, http.MethodPost, "/v1/jobs", body)
				if rp.code != http.StatusOK && rp.code != http.StatusAccepted {
					t.Errorf("POST %s: HTTP %d %s", body, rp.code, rp.body)
					return
				}
				id, _ := server.CanonicalID(arch.Default(), []byte(body))
				if err := pollDone(rt, id); err != nil {
					t.Error(err)
					return
				}
				res := call(rt, http.MethodGet, "/v1/jobs/"+id+"/result", "")
				if res.code != http.StatusOK {
					t.Errorf("result GET %s: HTTP %d %s", id, res.code, res.body)
					return
				}
				mu.Lock()
				if first, ok := results[id]; !ok {
					results[id] = res.body
				} else if first != res.body {
					t.Errorf("job %s: result body changed:\n%s\nfirst:\n%s", id, res.body, first)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if len(results) != jobs {
		t.Errorf("%d distinct results, want %d", len(results), jobs)
	}
	if rt.Metrics().Value("router.cache_hits") == 0 {
		t.Error("router.cache_hits = 0 after repeated requests of finished jobs")
	}
}
