// Package sla registers the serving-layer SLA experiment: a measured
// response-time-vs-offered-load study of the millid cluster itself,
// following the SLA framing of "When to use 3D Die-Stacked Memory"
// (PAPERS.md) — except the system under test is our own serving layer
// rather than a memory system.
//
// The experiment assembles a complete in-process cluster — two worker nodes
// over the real experiment registry, one shared result store mounted behind
// each node's job records, and the consistent-hash router in front — wired
// together by an in-process HTTP transport (no sockets), then drives it
// closed-loop at increasing client concurrencies with a deterministic
// request mix. Each offered-load step reports sustained req/s, p50/p99
// submit-to-done latency (client-observed, plus the workers' jobs-histogram
// estimate), the per-tier cache hit rate, and how many simulations actually
// ran.
//
// Importing this package (cmd/milliexp does, blank) registers the "sla"
// experiment; it is not part of the BENCH determinism surface — wall-clock
// latencies vary run to run, while the cache/sims columns are exact.
package sla

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/datagen"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/rescache"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/stats"
)

func init() {
	harness.Register(harness.ExperimentInfo{
		Name:        "sla",
		Description: "serving-layer SLA vs offered load (in-process cluster: router + 2 workers + shared store)",
		Uses:        []string{"scale"},
	}, run)
}

// Study shape: closed-loop client concurrency per step, requests per step,
// and the distinct request variants (the cache working set).
var (
	concurrencies = []int{1, 4, 8}
	requestsPer   = 24
	variants      = 3
)

const (
	nodeA     = "http://sla-node-a"
	nodeB     = "http://sla-node-b"
	routerURL = "http://sla-router"
)

func run(ctx context.Context, p arch.Params, o harness.ExpOptions) (harness.ExperimentResult, error) {
	store := rescache.NewStore(0, 0)
	mk := func() *server.Server {
		return server.New(p, server.Options{Workers: 2, QueueCapacity: 64, Shared: store})
	}
	srvA, srvB := mk(), mk()
	tr := inprocTransport{nodeA: srvA, nodeB: srvB}
	rt := router.New(router.Options{
		Nodes:          []string{nodeA, nodeB},
		Base:           p,
		Transport:      tr,
		HealthInterval: time.Minute, // nodes start healthy and never fail in-process
		RetryBackoff:   time.Millisecond,
	})
	tr[routerURL] = rt
	client := &http.Client{Transport: tr}
	defer func() {
		rt.Close()
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srvA.Drain(dctx)
		srvB.Drain(dctx)
	}()

	fig := &harness.Figure{
		Name: fmt.Sprintf("Serving SLA vs offered load (router + 2 workers + shared store, %d reqs/step, %d variants)", requestsPer, variants),
		Series: []string{"clients", "achieved_rps", "p50_ms", "p99_ms",
			"hist_p99_ms", "hit_rate", "shared_frac", "sims"},
	}
	// The request mix: `variants` distinct tiny jobs; the PRNG sequence (and
	// therefore every request body) is deterministic per step.
	scaleOf := func(v int) float64 { return 0.02 * float64(v+1) * o.Scale }
	for step, clients := range concurrencies {
		if err := ctx.Err(); err != nil {
			return harness.ExperimentResult{}, err
		}
		row, err := loadStep(client, rt, srvA, srvB, clients, datagen.NewRNG(harness.Seed+uint64(step)), scaleOf)
		if err != nil {
			return harness.ExperimentResult{}, err
		}
		fig.Rows = append(fig.Rows, row)
	}
	text := "SLA study: each row offers " + fmt.Sprint(requestsPer) + " jobs from that many closed-loop clients\n" +
		"through the consistent-hash router; identical requests land on one node, so the\n" +
		"cluster simulates each variant once and serves the rest from the router's\n" +
		"finished-job store, a worker's job records or the shared store tier (hit_rate\n" +
		"counts hits at all three, shared_frac is the shared store's share of them).\n" +
		"p50/p99 are client submit-to-done; hist_p99 is the workers' jobs-histogram\n" +
		"upper-edge estimate (wait+run, power-of-two-ms buckets).\n"
	return harness.ExperimentResult{Figures: []*harness.Figure{fig}, Text: text}, nil
}

// loadStep runs one closed-loop offered-load step and returns its SLA row.
func loadStep(client *http.Client, rt *router.Router, srvA, srvB *server.Server, clients int, rng *datagen.RNG, scaleOf func(int) float64) (harness.Row, error) {
	cluster := func() metrics.Snapshot {
		return metrics.Sum(rt.Metrics(), metrics.Sum(srvA.Metrics(), srvB.Metrics()))
	}
	before := cluster()

	// Pre-draw the variant sequence so the request mix does not depend on
	// goroutine interleaving.
	seq := make([]int, requestsPer)
	for i := range seq {
		seq[i] = rng.Intn(variants)
	}
	var (
		next      atomic.Int64
		mu        sync.Mutex
		latencies []float64
		firstErr  error
		wg        sync.WaitGroup
	)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				lat, err := oneRequest(client, scaleOf(seq[i]))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				latencies = append(latencies, lat)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	if firstErr != nil {
		return harness.Row{}, firstErr
	}

	delta := metrics.Diff(cluster(), before)
	hitRate, sharedFrac := router.HitRates(delta)
	waitH, _ := delta.Get("server.job_wait_ms")
	runH, _ := delta.Get("server.job_run_ms")

	return harness.Row{Bench: fmt.Sprintf("%dcli", clients), Values: map[string]float64{
		"clients":      float64(clients),
		"achieved_rps": float64(len(latencies)) / elapsed,
		"p50_ms":       stats.Percentile(latencies, 0.50),
		"p99_ms":       stats.Percentile(latencies, 0.99),
		"hist_p99_ms":  metrics.Pow2BucketPercentile(metrics.AddBuckets(waitH.Buckets, runH.Buckets), 0.99),
		"hit_rate":     hitRate,
		"shared_frac":  sharedFrac,
		"sims":         delta.Value("server.sims_run"),
	}}, nil
}

// oneRequest submits one job through the router and follows it to a
// terminal state; returns submit-to-done latency in ms.
func oneRequest(client *http.Client, scale float64) (float64, error) {
	body := fmt.Sprintf(`{"experiment":"ablation","scale":%g}`, scale)
	t0 := time.Now()
	resp, err := client.Post(routerURL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("sla: POST /v1/jobs: %s: %s", resp.Status, data)
	}
	var sb struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(data, &sb); err != nil {
		return 0, err
	}
	for sb.Status != "done" && sb.Status != "failed" {
		time.Sleep(2 * time.Millisecond)
		resp, err := client.Get(routerURL + "/v1/jobs/" + sb.ID)
		if err != nil {
			return 0, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("sla: GET job %s: %s", sb.ID, resp.Status)
		}
		if err := json.Unmarshal(data, &sb); err != nil {
			return 0, err
		}
	}
	if sb.Status != "done" {
		return 0, fmt.Errorf("sla: job %s failed: %s", sb.ID, sb.Error)
	}
	return float64(time.Since(t0)) / float64(time.Millisecond), nil
}

// inprocTransport dispatches requests to in-process handlers by origin —
// the whole cluster lives in one address space, so the SLA study measures
// the serving layer itself rather than loopback socket costs.
type inprocTransport map[string]http.Handler

func (t inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	h, ok := t[req.URL.Scheme+"://"+req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("sla: no in-process handler for %s://%s", req.URL.Scheme, req.URL.Host)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Result(), nil
}
