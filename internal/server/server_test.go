// End-to-end suite for the millid simulation service: a real HTTP stack
// (httptest) over the real experiment registry, with a controllable fake
// simulation backend where the scenario needs precise scheduling (queue
// backpressure, timeouts, drain).
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
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
	"repro/internal/rescache"
	"repro/internal/server"
)

func newTestServer(t *testing.T, o server.Options) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.New(arch.Default(), o)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

type statusBody struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	Status     string `json:"status"`
	Error      string `json:"error"`
	Cached     bool   `json:"cached"`
	ResultURL  string `json:"result_url"`
}

func postJob(t *testing.T, ts *httptest.Server, req map[string]any) (int, statusBody) {
	t.Helper()
	code, data := doJSON(t, "POST", ts.URL+"/v1/jobs", req)
	var sb statusBody
	if code == http.StatusOK || code == http.StatusAccepted {
		if err := json.Unmarshal(data, &sb); err != nil {
			t.Fatalf("bad job response %q: %v", data, err)
		}
	}
	return code, sb
}

// waitStatus polls the job until it reaches a terminal state.
func waitStatus(t *testing.T, ts *httptest.Server, id string) statusBody {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, data := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: HTTP %d: %s", id, code, data)
		}
		var sb statusBody
		if err := json.Unmarshal(data, &sb); err != nil {
			t.Fatal(err)
		}
		if sb.Status == "done" || sb.Status == "failed" {
			return sb
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, sb.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	code, data := doJSON(t, "GET", ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", code)
	}
	var samples []struct {
		Name  string   `json:"name"`
		Value *float64 `json:"value"`
	}
	if err := json.Unmarshal(data, &samples); err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.Name == name && s.Value != nil {
			return *s.Value
		}
	}
	t.Fatalf("metric %q missing from /metrics", name)
	return 0
}

// TestExperimentsListing: GET /v1/experiments mirrors the harness registry.
func TestExperimentsListing(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	code, data := doJSON(t, "GET", ts.URL+"/v1/experiments", nil)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	var got []struct{ Name, Description string }
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := harness.Experiments()
	if len(got) != len(want) {
		t.Fatalf("listing has %d experiments, registry has %d", len(got), len(want))
	}
	for i, e := range want {
		if got[i].Name != e.Name || got[i].Description != e.Description {
			t.Errorf("entry %d: got %+v, want %+v", i, got[i], e)
		}
	}
}

// TestJobLifecycleRealSimulation drives a real count-kernel job (the barrier
// ablation) through queued -> running -> done and checks the rendered result.
func TestJobLifecycleRealSimulation(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	code, sb := postJob(t, ts, map[string]any{"experiment": "ablation", "scale": 0.05})
	if code != http.StatusAccepted {
		t.Fatalf("POST: HTTP %d", code)
	}
	if sb.ID == "" || sb.Status != "queued" {
		t.Fatalf("POST response %+v", sb)
	}
	final := waitStatus(t, ts, sb.ID)
	if final.Status != "done" || final.Cached {
		t.Fatalf("final status %+v, want fresh done", final)
	}
	code, data := doJSON(t, "GET", ts.URL+"/v1/jobs/"+sb.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("GET result: HTTP %d: %s", code, data)
	}
	var res struct {
		ID         string `json:"id"`
		Experiment string `json:"experiment"`
		Figures    []struct {
			Name   string `json:"name"`
			Series []string
			Rows   []struct{ Bench string }
		} `json:"figures"`
		Render  string          `json:"render"`
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.ID != sb.ID || res.Experiment != "ablation" {
		t.Fatalf("result identity %+v", res)
	}
	if len(res.Figures) != 1 || len(res.Figures[0].Rows) != 1 || res.Figures[0].Rows[0].Bench != "count" {
		t.Fatalf("unexpected figures %+v", res.Figures)
	}
	if !strings.Contains(res.Render, "Barrier ablation") {
		t.Fatalf("render missing figure header: %q", res.Render)
	}
	var snap []struct{ Name string }
	if err := json.Unmarshal(res.Metrics, &snap); err != nil {
		t.Fatalf("result metrics snapshot: %v", err)
	}
	if len(snap) == 0 {
		t.Fatal("result metrics snapshot empty")
	}
	if v := metricValue(t, ts, "server.sims_run"); v != 1 {
		t.Fatalf("server.sims_run = %g, want 1", v)
	}
}

// TestSmallScaleCharacteristicsCompletes: at scale 0.005 the
// characteristics study streams 5 count records per thread, an eighth of
// which once left the join with no input and a NaN amplification that
// failed the job at encoding. The job must complete with positive values.
func TestSmallScaleCharacteristicsCompletes(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	code, sb := postJob(t, ts, map[string]any{"experiment": "characteristics", "scale": 0.005})
	if code != http.StatusAccepted {
		t.Fatalf("POST: HTTP %d", code)
	}
	if final := waitStatus(t, ts, sb.ID); final.Status != "done" {
		t.Fatalf("final status %+v, want done", final)
	}
	code, data := doJSON(t, "GET", ts.URL+"/v1/jobs/"+sb.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("GET result: HTTP %d: %s", code, data)
	}
	var res struct {
		Figures []struct {
			Rows []struct {
				Bench  string             `json:"bench"`
				Values map[string]float64 `json:"values"`
			} `json:"rows"`
		} `json:"figures"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Figures) != 1 || len(res.Figures[0].Rows) != 2 {
		t.Fatalf("unexpected figures %+v", res.Figures)
	}
	for _, r := range res.Figures[0].Rows {
		for k, v := range r.Values {
			if !(v > 0) {
				t.Errorf("%s %s = %g, want a positive value", r.Bench, k, v)
			}
		}
	}
}

// TestIdenticalConcurrentPosts is the acceptance scenario: identical
// concurrent POSTs collapse onto one job id, run the simulation exactly
// once, and every result fetch returns byte-identical bodies; the repeat
// POST afterwards is a cache hit visible in the server metrics snapshot.
func TestIdenticalConcurrentPosts(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	req := map[string]any{"experiment": "ablation", "scale": 0.04}

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			defer wg.Done()
			code, sb := postJob(t, ts, req)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("POST %d: HTTP %d", i, code)
				return
			}
			ids[i] = sb.ID
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("identical requests got different ids: %s vs %s", ids[0], ids[i])
		}
	}
	waitStatus(t, ts, ids[0])

	// The repeat POST of the identical request is a cache hit: same id,
	// already done, no new simulation.
	code, sb := postJob(t, ts, req)
	if code != http.StatusOK || sb.ID != ids[0] || sb.Status != "done" {
		t.Fatalf("repeat POST: HTTP %d %+v", code, sb)
	}

	_, body1 := doJSON(t, "GET", ts.URL+"/v1/jobs/"+ids[0]+"/result", nil)
	_, body2 := doJSON(t, "GET", ts.URL+"/v1/jobs/"+ids[0]+"/result", nil)
	if !bytes.Equal(body1, body2) {
		t.Fatal("result bodies differ between fetches")
	}
	if len(body1) == 0 {
		t.Fatal("empty result body")
	}

	if v := metricValue(t, ts, "server.sims_run"); v != 1 {
		t.Fatalf("server.sims_run = %g, want exactly 1 simulation for %d identical posts", v, n+1)
	}
	if v := metricValue(t, ts, "server.cache_hits"); v < 1 {
		t.Fatalf("server.cache_hits = %g, want >= 1", v)
	}
}

// gateRunner is a fake simulation backend whose jobs block until released.
type gateRunner struct {
	mu      sync.Mutex
	started chan string   // job experiment names, in pickup order
	gate    chan struct{} // closed to release all blocked jobs
}

func newGateRunner() *gateRunner {
	return &gateRunner{started: make(chan string, 64), gate: make(chan struct{})}
}

func (g *gateRunner) run(ctx context.Context, req server.Request) (harness.ExperimentResult, error) {
	g.started <- req.Experiment
	select {
	case <-g.gate:
		return harness.ExperimentResult{Text: fmt.Sprintf("fake result scale=%g", req.Scale)}, nil
	case <-ctx.Done():
		return harness.ExperimentResult{}, ctx.Err()
	}
}

// TestQueueFullReturns429: with one worker and one queue slot, the third
// distinct job bounces with 429 and the rejection is counted.
func TestQueueFullReturns429(t *testing.T) {
	g := newGateRunner()
	_, ts := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 1, Runner: g.run})

	mk := func(scale float64) map[string]any {
		return map[string]any{"experiment": "fig3", "scale": scale}
	}
	code, first := postJob(t, ts, mk(1))
	if code != http.StatusAccepted {
		t.Fatalf("POST 1: HTTP %d", code)
	}
	<-g.started // worker is now busy; the queue slot is free
	if code, _ := postJob(t, ts, mk(2)); code != http.StatusAccepted {
		t.Fatalf("POST 2: HTTP %d", code)
	}
	code, _ = postJob(t, ts, mk(3))
	if code != http.StatusTooManyRequests {
		t.Fatalf("POST 3: HTTP %d, want 429", code)
	}
	if v := metricValue(t, ts, "server.jobs_rejected"); v != 1 {
		t.Fatalf("server.jobs_rejected = %g, want 1", v)
	}
	close(g.gate)
	if sb := waitStatus(t, ts, first.ID); sb.Status != "done" {
		t.Fatalf("first job ended %+v", sb)
	}
}

// TestTimeoutFailsJob: a job whose timeout_ms elapses lands in the terminal
// failed state with the deadline error, and its result route reports the
// failure.
func TestTimeoutFailsJob(t *testing.T) {
	g := newGateRunner() // never released: the job can only end by timeout
	_, ts := newTestServer(t, server.Options{Runner: g.run})
	code, sb := postJob(t, ts, map[string]any{"experiment": "fig3", "timeout_ms": 25})
	if code != http.StatusAccepted {
		t.Fatalf("POST: HTTP %d", code)
	}
	final := waitStatus(t, ts, sb.ID)
	if final.Status != "failed" {
		t.Fatalf("status %+v, want failed", final)
	}
	if !strings.Contains(final.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("error %q does not mention the deadline", final.Error)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+sb.ID+"/result", nil); code != http.StatusInternalServerError {
		t.Fatalf("GET result of failed job: HTTP %d, want 500", code)
	}
	if v := metricValue(t, ts, "server.jobs_failed"); v != 1 {
		t.Fatalf("server.jobs_failed = %g, want 1", v)
	}
}

// TestRealTimeoutCancelsSweep runs a real figure sweep with a 1 ms budget:
// the context plumbed through harness.RunExperiment must cut the sweep short
// and surface ctx.Err() as the job failure.
func TestRealTimeoutCancelsSweep(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	code, sb := postJob(t, ts, map[string]any{"experiment": "fig3", "scale": 0.25, "timeout_ms": 1})
	if code != http.StatusAccepted {
		t.Fatalf("POST: HTTP %d", code)
	}
	final := waitStatus(t, ts, sb.ID)
	if final.Status != "failed" || !strings.Contains(final.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("final %+v, want deadline-exceeded failure", final)
	}
}

// TestGracefulDrain: draining refuses new jobs and degrades /healthz but
// finishes the in-flight job, whose result stays fetchable.
func TestGracefulDrain(t *testing.T) {
	g := newGateRunner()
	s, ts := newTestServer(t, server.Options{Workers: 1, Runner: g.run})
	code, sb := postJob(t, ts, map[string]any{"experiment": "fig3"})
	if code != http.StatusAccepted {
		t.Fatalf("POST: HTTP %d", code)
	}
	<-g.started

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()

	// Drain flips intake off before waiting on the pool.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ := postJob(t, ts, map[string]any{"experiment": "fig3", "scale": 2})
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("POST during drain never returned 503")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: HTTP %d, want 503", code)
	}

	close(g.gate) // let the in-flight job finish
	select {
	case err := <-drainErr:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned")
	}
	final := waitStatus(t, ts, sb.ID)
	if final.Status != "done" {
		t.Fatalf("in-flight job ended %+v, want done", final)
	}
	code, data := doJSON(t, "GET", ts.URL+"/v1/jobs/"+sb.ID+"/result", nil)
	if code != http.StatusOK || !bytes.Contains(data, []byte("fake result")) {
		t.Fatalf("result after drain: HTTP %d %s", code, data)
	}
}

// TestValidation covers the API's failure modes.
func TestValidation(t *testing.T) {
	g := newGateRunner()
	defer close(g.gate)
	_, ts := newTestServer(t, server.Options{Runner: g.run})

	for name, req := range map[string]map[string]any{
		"unknown experiment": {"experiment": "no-such"},
		"negative scale":     {"experiment": "fig3", "scale": -1},
		"negative timeout":   {"experiment": "fig3", "timeout_ms": -5},
		"negative seed":      {"experiment": "fig3", "seed": -7},
		"unknown field":      {"experiment": "fig3", "bogus": true},
		"bad params":         {"experiment": "fig3", "params": map[string]any{"Corelets": -4}},
	} {
		if code, _ := postJob(t, ts, req); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
	}
	// An unknown key answers 400 naming it, inside params as at the top
	// level: a misspelled override must not silently run the base config.
	// "parallelism" and "skip" are removed knobs that older clients may
	// still send.
	for name, tc := range map[string]struct {
		req map[string]any
		key string
	}{
		"params typo":           {map[string]any{"experiment": "fig3", "params": map[string]any{"Corelet": 64}}, "Corelet"},
		"nested params typo":    {map[string]any{"experiment": "fig3", "params": map[string]any{"DRAM": map[string]any{"RowByte": 4096}}}, "RowByte"},
		"top-level parallelism": {map[string]any{"experiment": "fig3", "parallelism": 4}, "parallelism"},
		"top-level skip":        {map[string]any{"experiment": "fig3", "skip": "off"}, "skip"},
		"params parallelism":    {map[string]any{"experiment": "fig3", "params": map[string]any{"Parallelism": 4}}, "Parallelism"},
	} {
		code, data := doJSON(t, "POST", ts.URL+"/v1/jobs", tc.req)
		var eb struct{ Error string }
		json.Unmarshal(data, &eb)
		if code != http.StatusBadRequest || !strings.Contains(eb.Error, `"`+tc.key+`"`) {
			t.Errorf("%s: HTTP %d %s, want 400 naming %q", name, code, data, tc.key)
		}
		body, _ := json.Marshal(tc.req)
		if _, err := server.CanonicalID(arch.Default(), body); err == nil || !strings.Contains(err.Error(), `"`+tc.key+`"`) {
			t.Errorf("%s: CanonicalID error %v, want one naming %q", name, err, tc.key)
		}
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/deadbeef", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}
	// Result of an unfinished job: 409.
	code, sb := postJob(t, ts, map[string]any{"experiment": "fig3"})
	if code != http.StatusAccepted {
		t.Fatalf("POST: HTTP %d", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+sb.ID+"/result", nil); code != http.StatusConflict {
		t.Errorf("result of unfinished job: HTTP %d, want 409", code)
	}
}

// TestParamsOverride: a params override changes the job id (different
// hardware, different result) while defaults stay canonical.
func TestParamsOverride(t *testing.T) {
	g := newGateRunner()
	defer close(g.gate)
	_, ts := newTestServer(t, server.Options{Runner: g.run})
	_, a := postJob(t, ts, map[string]any{"experiment": "fig3"})
	_, b := postJob(t, ts, map[string]any{"experiment": "fig3", "params": map[string]any{"Channels": 2}})
	_, c := postJob(t, ts, map[string]any{"experiment": "fig3", "scale": 1.0}) // == default scale
	if a.ID == b.ID {
		t.Fatal("params override did not change the job id")
	}
	if a.ID != c.ID {
		t.Fatal("explicit default scale changed the job id; canonicalization broken")
	}
}

// TestSkipOperational: quiescence time skipping never changes what is
// simulated, so a NoSkip sent through params is stripped and the request
// keeps the base job id and cache entry.
func TestSkipOperational(t *testing.T) {
	g := newGateRunner()
	defer close(g.gate)
	_, ts := newTestServer(t, server.Options{Runner: g.run})
	_, a := postJob(t, ts, map[string]any{"experiment": "fig3"})
	_, d := postJob(t, ts, map[string]any{"experiment": "fig3", "params": map[string]any{"NoSkip": true}})
	if a.ID != d.ID {
		t.Fatal("params.NoSkip changed the job id; canonicalization must strip it")
	}
}

// TestSeedChangesJob: any seed is accepted now that the registry threads it
// through every experiment; a non-canonical seed is a different simulation
// (new job id), while an explicit canonical seed stays the default job.
func TestSeedChangesJob(t *testing.T) {
	g := newGateRunner()
	defer close(g.gate)
	_, ts := newTestServer(t, server.Options{Runner: g.run})
	code, a := postJob(t, ts, map[string]any{"experiment": "fig3"})
	if code != http.StatusAccepted {
		t.Fatalf("default job: HTTP %d", code)
	}
	code, b := postJob(t, ts, map[string]any{"experiment": "fig3", "seed": 7})
	if code != http.StatusAccepted {
		t.Fatalf("seed=7 job: HTTP %d, want 202", code)
	}
	_, c := postJob(t, ts, map[string]any{"experiment": "fig3", "seed": float64(harness.Seed)})
	if a.ID == b.ID {
		t.Fatal("non-canonical seed shares the default job id")
	}
	if a.ID != c.ID {
		t.Fatal("explicit canonical seed changed the job id; canonicalization broken")
	}
}

// TestDrainTimeout: Drain bounded by an expired context returns its error
// while the stuck job keeps the pool busy.
func TestDrainTimeout(t *testing.T) {
	g := newGateRunner()
	defer close(g.gate)
	s, ts := newTestServer(t, server.Options{Workers: 1, Runner: g.run})
	if code, _ := postJob(t, ts, map[string]any{"experiment": "fig3"}); code != http.StatusAccepted {
		t.Fatal("POST failed")
	}
	<-g.started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain: %v, want context.Canceled", err)
	}
}

// TestSharedTierClusterHit: two servers ("nodes") mounting one in-process
// store simulate an identical request exactly once — the second node serves
// it from the shared tier (sims_run 0, cache_shared_hits 1) with a
// byte-identical result body.
func TestSharedTierClusterHit(t *testing.T) {
	store := rescache.NewStore(16, time.Minute)
	var sims atomic.Int64
	runner := func(ctx context.Context, req server.Request) (harness.ExperimentResult, error) {
		sims.Add(1)
		return harness.ExperimentResult{Text: fmt.Sprintf("computed scale=%g", req.Scale)}, nil
	}
	_, tsA := newTestServer(t, server.Options{Workers: 1, Shared: store, Runner: runner})
	_, tsB := newTestServer(t, server.Options{Workers: 1, Shared: store, Runner: runner})

	req := map[string]any{"experiment": "ablation", "scale": 0.04}
	code, sb := postJob(t, tsA, req)
	if code != http.StatusAccepted {
		t.Fatalf("POST to node A: HTTP %d", code)
	}
	if st := waitStatus(t, tsA, sb.ID); st.Status != "done" {
		t.Fatalf("node A job: %+v", st)
	}
	_, bodyA := doJSON(t, "GET", tsA.URL+"/v1/jobs/"+sb.ID+"/result", nil)

	code, sb2 := postJob(t, tsB, req)
	if code != http.StatusAccepted {
		t.Fatalf("POST to node B: HTTP %d", code)
	}
	if sb2.ID != sb.ID {
		t.Fatalf("nodes disagree on the job id: %s vs %s", sb.ID, sb2.ID)
	}
	if st := waitStatus(t, tsB, sb2.ID); st.Status != "done" {
		t.Fatalf("node B job: %+v", st)
	}
	_, bodyB := doJSON(t, "GET", tsB.URL+"/v1/jobs/"+sb2.ID+"/result", nil)

	if got := sims.Load(); got != 1 {
		t.Fatalf("cluster simulated %d times, want exactly once", got)
	}
	if v := metricValue(t, tsB, "server.sims_run"); v != 0 {
		t.Errorf("node B server.sims_run = %g, want 0", v)
	}
	if v := metricValue(t, tsB, "server.cache_shared_hits"); v != 1 {
		t.Errorf("node B server.cache_shared_hits = %g, want 1", v)
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Error("result bodies differ across nodes for one job id")
	}
}

// TestPanickingSimulationFailsJob: a panic inside the simulation becomes a
// failed job record, and the server (its worker recovered) keeps serving.
func TestPanickingSimulationFailsJob(t *testing.T) {
	boom := func(ctx context.Context, req server.Request) (harness.ExperimentResult, error) {
		if req.Experiment == "fig3" {
			panic("simulated blowup")
		}
		return harness.ExperimentResult{Text: "ok"}, nil
	}
	_, ts := newTestServer(t, server.Options{Workers: 1, Runner: boom})
	code, sb := postJob(t, ts, map[string]any{"experiment": "fig3"})
	if code != http.StatusAccepted {
		t.Fatalf("POST: HTTP %d", code)
	}
	st := waitStatus(t, ts, sb.ID)
	if st.Status != "failed" || !strings.Contains(st.Error, "panicked") {
		t.Fatalf("job after panic: %+v, want failed with panic message", st)
	}
	// The worker survived: the next job runs normally.
	code, sb = postJob(t, ts, map[string]any{"experiment": "ablation", "scale": 0.04})
	if code != http.StatusAccepted {
		t.Fatalf("POST after panic: HTTP %d", code)
	}
	if st := waitStatus(t, ts, sb.ID); st.Status != "done" {
		t.Fatalf("job after panic: %+v, want done", st)
	}
}
