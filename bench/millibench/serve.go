package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/arch"
	"repro/internal/rescache"
	"repro/internal/router"
	"repro/internal/server"
)

// Origins of the in-process cluster. Requests never touch a socket: the
// transport hands each one to the handler of its origin.
const (
	routerURL = "http://router"
	nodeA     = "http://node-a"
	nodeB     = "http://node-b"
)

// serveClients is the number of closed-loop clients: each sends its next
// request only after the previous one returned its result body.
const serveClients = 2

// pollEvery is how long a client waits between status polls of a job that
// was not done when submitted.
const pollEvery = time.Millisecond

// inproc is an http.RoundTripper that dispatches to in-process handlers by
// origin. The map is filled before any request is sent and only read after.
type inproc map[string]http.Handler

func (t inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	h, ok := t[req.URL.Scheme+"://"+req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no in-process handler for %s://%s", req.URL.Scheme, req.URL.Host)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Result(), nil
}

// cluster is the millid deployment the serve workload drives: a router in
// front of two workers with one simulation worker each, sharing one result
// store.
type cluster struct {
	a, b   *server.Server
	rt     *router.Router
	client *http.Client
}

func newCluster(p arch.Params) *cluster {
	store := rescache.NewStore(0, 0)
	mk := func() *server.Server { return server.New(p, server.Options{Workers: 1, Shared: store}) }
	c := &cluster{a: mk(), b: mk()}
	tr := inproc{nodeA: c.a, nodeB: c.b}
	c.rt = router.New(router.Options{
		Nodes:          []string{nodeA, nodeB},
		Base:           p,
		Transport:      tr,
		HealthInterval: time.Minute, // in-process nodes never fail
		RetryBackoff:   time.Millisecond,
	})
	tr[routerURL] = c.rt
	c.client = &http.Client{Transport: tr}
	return c
}

// close stops the router's health probes and drains both workers.
func (c *cluster) close() error {
	c.rt.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return errors.Join(c.a.Drain(ctx), c.b.Drain(ctx))
}

// call sends one request and returns the status code and the whole body.
func (c *cluster) call(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// serveSetup builds a cluster, lists its experiments through the router as
// a client does before submitting jobs, and tears the cluster down: the
// set-up each serve pass pays.
func serveSetup() error {
	c := newCluster(millipede.DefaultConfig())
	code, body, err := c.call(http.MethodGet, routerURL+"/v1/experiments", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /v1/experiments: %d %s", code, bytes.TrimSpace(body))
	}
	return errors.Join(err, c.close())
}

// serveSequence returns the key of each request in a pass. The first
// request introduces key 0, keys-1 further positions drawn uniformly
// introduce the next new key, and every other request repeats a key drawn
// uniformly from those already introduced. So each key is simulated once
// (cold) and later served from the cache (warm), with cold requests spread
// through the pass.
func serveSequence(seed uint64, keys, requests int) []int {
	rng := rand.New(rand.NewPCG(seed, 0x6d696c6c6962656e))
	first := make([]bool, requests)
	first[0] = true
	for _, i := range rng.Perm(requests - 1)[:keys-1] {
		first[i+1] = true
	}
	seq := make([]int, requests)
	next := 0
	for i := range seq {
		if first[i] {
			seq[i] = next
			next++
		} else {
			seq[i] = rng.IntN(next)
		}
	}
	return seq
}

// jobSeed is the dataset seed of key k in a pass: distinct keys get
// distinct nonzero seeds and therefore distinct job ids.
func jobSeed(passSeed uint64, k int) uint64 {
	z := passSeed + 0x9e3779b97f4a7c15*uint64(k+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) | 1
}

// jobStatus is the part of millid's job-status body the clients read.
type jobStatus struct {
	ID         string     `json:"id"`
	Status     string     `json:"status"`
	Error      string     `json:"error"`
	Submitted  time.Time  `json:"submitted_at"`
	Started    *time.Time `json:"started_at"`
	Finished   *time.Time `json:"finished_at"`
	ResultPath string     `json:"result_url"`
}

// reqOutcome is one request as its client saw it.
type reqOutcome struct {
	err        error
	latency    time.Duration // POST sent until the result body is received
	doneAtPost bool          // served from the cache without waiting
	polls      int
	wait, run  time.Duration // the job's queue wait and run time, if it polled
	body       []byte
}

// request submits one job through the router, polls it until it is done,
// and fetches its result.
func (c *cluster) request(body []byte, rec *recorder, run string, tid int) (o reqOutcome) {
	root := rec.open("request", -1, run, tid)
	defer rec.close(root)
	t0 := time.Now()
	defer func() { o.latency = time.Since(t0) }()

	sp := rec.open("router.post", root, run, tid)
	code, data, err := c.call(http.MethodPost, routerURL+"/v1/jobs", body)
	rec.close(sp)
	var st jobStatus
	switch {
	case err != nil:
		o.err = fmt.Errorf("POST /v1/jobs: %w", err)
		return o
	case code != http.StatusOK && code != http.StatusAccepted:
		o.err = fmt.Errorf("POST /v1/jobs: %d %s", code, bytes.TrimSpace(data))
		return o
	}
	if o.err = json.Unmarshal(data, &st); o.err != nil {
		return o
	}
	o.doneAtPost = st.Status == "done"
	for st.Status != "done" && st.Status != "failed" {
		time.Sleep(pollEvery)
		o.polls++
		sp := rec.open("router.poll", root, run, tid)
		code, data, err := c.call(http.MethodGet, routerURL+"/v1/jobs/"+st.ID, nil)
		rec.close(sp)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("%d %s", code, bytes.TrimSpace(data))
		}
		if err == nil {
			err = json.Unmarshal(data, &st)
		}
		if err != nil {
			o.err = fmt.Errorf("GET /v1/jobs/%s: %w", st.ID, err)
			return o
		}
	}
	if st.Status != "done" {
		o.err = fmt.Errorf("job %s failed: %s", st.ID, st.Error)
		return o
	}
	if !o.doneAtPost && st.Started != nil && st.Finished != nil {
		o.wait, o.run = st.Started.Sub(st.Submitted), st.Finished.Sub(*st.Started)
	}

	sp = rec.open("router.result", root, run, tid)
	code, o.body, err = c.call(http.MethodGet, routerURL+st.ResultPath, nil)
	rec.close(sp)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("%d %s", code, bytes.TrimSpace(o.body))
	}
	if err != nil {
		o.err = fmt.Errorf("GET %s: %w", st.ResultPath, err)
	}
	return o
}

// servePass drives one fresh cluster with the pass's request sequence from
// serveClients closed-loop clients. Each operation is one request; a
// request fails on any error or non-2xx answer (a 429 included), and on a
// result body that differs from the first body served for its key. The pass
// also fails unless the cluster simulated exactly once per distinct key.
func servePass(sz size, seed uint64, rec *recorder, d *digest) passResult {
	var pr passResult
	c := newCluster(millipede.DefaultConfig())
	seq := serveSequence(seed, sz.keys, sz.requests)
	bodies := make([][]byte, sz.keys)
	for k := range bodies {
		bodies[k] = []byte(fmt.Sprintf(`{"experiment":"ablation","scale":%g,"seed":%d}`, sz.jobScale, jobSeed(seed, k)))
	}
	outs := make([]reqOutcome, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for cl := 0; cl < serveClients; cl++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				outs[i] = c.request(bodies[seq[i]], rec, fmt.Sprintf("ablation/seed=%d", jobSeed(seed, seq[i])), tid)
			}
		}(cl + 1)
	}
	wg.Wait()
	pr.wall = time.Since(t0)

	snapA, snapB, routed := c.a.Metrics(), c.b.Metrics(), c.rt.Metrics()
	both := func(name string) float64 { return snapA.Value(name) + snapB.Value(name) }
	pr.heapMB = liveHeapMB() // with the cluster's job records and caches still live
	if err := c.close(); err != nil {
		pr.fail("cluster drain: %v", err)
	}

	served := make([][]byte, sz.keys)
	seen := make([]bool, sz.keys)
	var polled, polls, joins int
	var coldLat, coldWait, coldRun time.Duration
	for i, o := range outs {
		k := seq[i]
		pr.attempted++
		first := !seen[k]
		seen[k] = true
		if o.err != nil {
			pr.fail("request %d (key %d): %v", i, k, o.err)
			continue
		}
		pr.latencies = append(pr.latencies, ms(o.latency))
		if served[k] == nil {
			served[k] = o.body
		} else if !bytes.Equal(served[k], o.body) {
			pr.fail("request %d (key %d): result body differs from the key's first body", i, k)
		}
		if !o.doneAtPost {
			polled++
			polls += o.polls
			if !first {
				joins++
			}
		}
		if first {
			coldLat += o.latency
			coldWait += o.wait
			coldRun += o.run
		}
	}
	sims := both("server.sims_run")
	if int(sims) != sz.keys {
		pr.fail("cluster ran %g simulations for %d distinct keys", sims, sz.keys)
	}
	for k, b := range served {
		d.body(string(bodies[k]), b)
	}

	hits, shared, misses := both("server.cache_hits"), both("server.cache_shared_hits"), both("server.cache_misses")
	pr.layer = map[string]float64{
		"server.sims_run":       sims,
		"server.jobs_rejected":  both("server.jobs_rejected"),
		"rescache.hit_rate":     ratio(hits+shared, hits+shared+misses),
		"rescache.shared_frac":  ratio(shared, hits+shared),
		"router.retries":        routed.Value("router.retries"),
		"client.polls_per_cold": ratio(float64(polls), float64(polled)),
		"client.joins":          float64(joins),
		"jobs.wait_frac":        ratio(coldWait.Seconds(), coldLat.Seconds()),
		"jobs.run_frac":         ratio(coldRun.Seconds(), coldLat.Seconds()),
	}
	return pr
}
