// Package server is the millid simulation service: a JSON HTTP API over the
// experiment registry that turns the simulator from a batch tool into a
// servable backend. Requests are simulation jobs — an experiment name plus
// architecture parameters, input scale, and seed — executed on a bounded
// worker pool (internal/jobs) and memoized in a content-addressed LRU result
// cache (internal/rescache). Because every simulation is deterministic, the
// SHA-256 of the canonical request doubles as the job id: identical requests
// share one job, one simulation, and byte-identical result bodies.
//
// Routes:
//
//	GET  /v1/experiments      registered experiments (name, description, and
//	                          parameter descriptors mirroring job validation)
//	GET  /v1/workloads        benchmark kernels (dataset + reduce geometry)
//	POST /v1/jobs             submit a job; returns its deterministic id
//	GET  /v1/jobs             all job records, most recent first
//	GET  /v1/jobs/{id}        job status
//	GET  /v1/jobs/{id}/result rendered ExperimentResult + metrics snapshot
//	GET  /healthz             liveness (503 while draining)
//	GET  /metrics             server-level metrics.Snapshot (queue depth,
//	                          cache hit rate, job latency histograms)
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/rescache"
)

// Request is the canonical, fully-normalized form of one simulation job. Its
// JSON encoding (fields in declaration order, defaults applied) is the
// content that gets hashed into the job id, so any two requests that would
// simulate the same thing collapse onto one id. The per-job timeout is
// deliberately NOT part of the canonical form: it bounds service-side
// execution without changing what is simulated.
type Request struct {
	Experiment       string      `json:"experiment"`
	Params           arch.Params `json:"params"`
	Scale            float64     `json:"scale"`
	Seed             uint64      `json:"seed"`
	HostBandwidthGBs float64     `json:"host_bandwidth_gbs"`
	TimelineEvery    uint64      `json:"timeline_every"`
	// Nodes and Processors are the cluster experiment's geometry (nodes in
	// the simulated cluster, processors per node). They are canonical — a
	// 8x2 cluster simulates different work than the default 4x1 — and
	// normalized to their defaults so equivalent requests share one id.
	Nodes      int `json:"nodes"`
	Processors int `json:"processors"`
}

// jobRequest is the POST /v1/jobs wire form. Params is decoded on top of the
// server's base configuration, so absent fields keep Table III defaults.
type jobRequest struct {
	Experiment       string          `json:"experiment"`
	Params           json.RawMessage `json:"params,omitempty"`
	Scale            float64         `json:"scale,omitempty"`
	Seed             uint64          `json:"seed,omitempty"`
	HostBandwidthGBs float64         `json:"host_bandwidth_gbs,omitempty"`
	TimelineEvery    uint64          `json:"timeline_every,omitempty"`
	TimeoutMS        int64           `json:"timeout_ms,omitempty"`
	// Nodes and Processors set the cluster experiment's geometry (0 = the
	// historical 4 nodes x 1 processor). Unlike timeout_ms they change what
	// is simulated, so they are part of the canonical form.
	Nodes      int `json:"nodes,omitempty"`
	Processors int `json:"processors,omitempty"`
	// StackMode, StackBytes, BackingBytes, and BackingLatency are top-level
	// conveniences for the die-stacked capacity knobs: they are folded into
	// Params (overriding any value set there) and validated by
	// arch.Params.Validate, so "stack_mode": "hwcache" works without nesting
	// a params object.
	StackMode      string `json:"stack_mode,omitempty"`
	StackBytes     int    `json:"stack_bytes,omitempty"`
	BackingBytes   int    `json:"backing_bytes,omitempty"`
	BackingLatency int    `json:"backing_latency,omitempty"`
}

// Runner executes one canonical request. The default runner dispatches to
// harness.RunExperiment; tests substitute controllable fakes.
type Runner func(ctx context.Context, req Request) (harness.ExperimentResult, error)

// Options tunes a Server. The zero value is production-ready.
type Options struct {
	// Workers is the simulation worker pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueCapacity bounds the job queue; 0 means 4x workers.
	QueueCapacity int
	// CacheEntries bounds the result cache; 0 means 256.
	CacheEntries int
	// DefaultTimeout bounds jobs that do not set timeout_ms; 0 means no
	// default bound.
	DefaultTimeout time.Duration
	// Shared mounts the cluster-wide result tier behind the local LRU (the
	// millid store daemon, via rescache.NewHTTPTier, or an in-process
	// rescache.Store); nil keeps the cache single-tier.
	Shared rescache.SharedTier
	// Runner overrides the simulation backend (tests); nil runs the real
	// experiment registry.
	Runner Runner
}

type jobStatus string

const (
	statusQueued  jobStatus = "queued"
	statusRunning jobStatus = "running"
	statusDone    jobStatus = "done"
	statusFailed  jobStatus = "failed"
)

type jobRecord struct {
	ID          string
	Req         Request
	Timeout     time.Duration
	Status      jobStatus
	Error       string
	Cached      bool // satisfied from the result cache without simulating
	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time
	Result      []byte
	seq         uint64 // submission order, for the job listing
}

// Server implements the millid HTTP API. Create with New; it is an
// http.Handler.
type Server struct {
	base     arch.Params
	pool     *jobs.Pool
	cache    *rescache.Cache
	reg      *metrics.Registry
	run      Runner
	timeout  time.Duration
	expNames map[string]bool

	mu       sync.Mutex
	jobsByID map[string]*jobRecord
	seq      uint64

	draining atomic.Bool
	sims     atomic.Uint64 // simulations actually executed (cache misses)
	done     atomic.Uint64
	failed   atomic.Uint64

	mux *http.ServeMux
}

// New returns a Server simulating on top of the base architecture
// configuration (request params are decoded over it, so absent fields keep
// its values).
func New(base arch.Params, o Options) *Server {
	cacheEntries := o.CacheEntries
	if cacheEntries <= 0 {
		cacheEntries = 256
	}
	s := &Server{
		base:     base,
		pool:     jobs.New(o.Workers, o.QueueCapacity),
		cache:    rescache.New(cacheEntries),
		run:      o.Runner,
		timeout:  o.DefaultTimeout,
		expNames: map[string]bool{},
		jobsByID: map[string]*jobRecord{},
		mux:      http.NewServeMux(),
	}
	if o.Shared != nil {
		s.cache.SetShared(o.Shared)
	}
	if s.run == nil {
		s.run = func(ctx context.Context, req Request) (harness.ExperimentResult, error) {
			return harness.RunExperiment(ctx, req.Experiment, req.Params, harness.ExpOptions{
				Scale:            req.Scale,
				HostBandwidthGBs: req.HostBandwidthGBs,
				TimelineEvery:    req.TimelineEvery,
				Seed:             req.Seed,
				ClusterNodes:     req.Nodes,
				ClusterProcs:     req.Processors,
			})
		}
	}
	for _, e := range harness.Experiments() {
		s.expNames[e.Name] = true
	}
	s.reg = metrics.NewRegistry()
	s.registerMetrics()

	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops intake (POST /v1/jobs returns 503, /healthz degrades) and
// waits until every accepted job has finished or ctx is done. GET routes
// keep serving throughout, so clients can still collect results while the
// pool winds down.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	return s.pool.Drain(ctx)
}

// Metrics returns the server-level snapshot served at /metrics.
func (s *Server) Metrics() metrics.Snapshot { return s.reg.Snapshot() }

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// normalize validates the wire request and produces its canonical form plus
// the operational timeout that rides alongside it.
func (s *Server) normalize(jr jobRequest) (Request, time.Duration, error) {
	return canonicalize(s.base, s.expNames, s.timeout, jr)
}

// CanonicalID returns the deterministic job id a millid node would assign to
// this POST /v1/jobs body over the given base parameters. The cluster router
// uses it as the consistent-hashing key, so a request lands on the same node
// that keys its job record and cache entry by it.
func CanonicalID(base arch.Params, body []byte) (string, error) {
	canonOnce.Do(func() {
		canonNames = map[string]bool{}
		for _, e := range harness.Experiments() {
			canonNames[e.Name] = true
		}
	})
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var jr jobRequest
	if err := dec.Decode(&jr); err != nil {
		return "", fmt.Errorf("bad request body: %w", err)
	}
	req, _, err := canonicalize(base, canonNames, 0, jr)
	if err != nil {
		return "", err
	}
	return rescache.Key(req)
}

var (
	canonOnce  sync.Once
	canonNames map[string]bool
)

// canonicalize validates one wire request against the experiment set and
// produces its canonical form over the base configuration.
func canonicalize(base arch.Params, expNames map[string]bool, defTimeout time.Duration, jr jobRequest) (Request, time.Duration, error) {
	if !expNames[jr.Experiment] {
		return Request{}, 0, fmt.Errorf("unknown experiment %q (see GET /v1/experiments)", jr.Experiment)
	}
	if jr.Scale < 0 || math.IsInf(jr.Scale, 0) {
		return Request{}, 0, fmt.Errorf("bad scale %g", jr.Scale)
	}
	if jr.TimeoutMS < 0 {
		return Request{}, 0, fmt.Errorf("bad timeout_ms %d", jr.TimeoutMS)
	}
	if jr.HostBandwidthGBs < 0 {
		return Request{}, 0, fmt.Errorf("bad host_bandwidth_gbs %g", jr.HostBandwidthGBs)
	}
	if jr.Nodes < 0 || jr.Nodes > 64 {
		return Request{}, 0, fmt.Errorf("bad nodes %d (want 0..64)", jr.Nodes)
	}
	if jr.Processors < 0 || jr.Processors > 32 {
		return Request{}, 0, fmt.Errorf("bad processors %d (want 0..32)", jr.Processors)
	}
	p := base
	if len(jr.Params) > 0 {
		// Unknown keys are errors, as at the top level: a misspelled field
		// would otherwise silently simulate (and cache) the base config.
		dec := json.NewDecoder(bytes.NewReader(jr.Params))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&p); err != nil {
			return Request{}, 0, fmt.Errorf("bad params: %v", err)
		}
	}
	// The top-level stack knobs are conveniences over the same Params
	// fields; a set knob wins over the nested params value.
	stacked := jr.StackMode != "" || jr.StackBytes != 0 || jr.BackingBytes != 0 || jr.BackingLatency != 0
	if jr.StackMode != "" {
		p.StackMode = jr.StackMode
	}
	if jr.StackBytes != 0 {
		p.StackBytes = jr.StackBytes
	}
	if jr.BackingBytes != 0 {
		p.BackingBytes = jr.BackingBytes
	}
	if jr.BackingLatency != 0 {
		p.BackingLatency = jr.BackingLatency
	}
	if len(jr.Params) > 0 || stacked {
		if err := p.Validate(); err != nil {
			return Request{}, 0, fmt.Errorf("bad params: %v", err)
		}
	}
	// Quiescence time skipping never changes what is simulated, and each
	// model decides whether it takes part, so a NoSkip sent in params is
	// dropped: identical simulations share one id and one cache entry.
	p.NoSkip = false
	req := Request{
		Experiment:       jr.Experiment,
		Params:           p,
		Scale:            jr.Scale,
		Seed:             jr.Seed,
		HostBandwidthGBs: jr.HostBandwidthGBs,
		TimelineEvery:    jr.TimelineEvery,
		Nodes:            jr.Nodes,
		Processors:       jr.Processors,
	}
	// Apply the registry defaults so equivalent requests share one id.
	if req.Scale == 0 {
		req.Scale = 1
	}
	// Any seed is accepted: the registry threads it through every run
	// function (zero maps to the canonical seed, so historical job ids are
	// unchanged).
	if req.Seed == 0 {
		req.Seed = harness.Seed
	}
	if req.HostBandwidthGBs == 0 {
		req.HostBandwidthGBs = 16
	}
	if req.TimelineEvery == 0 {
		req.TimelineEvery = harness.DefaultTimelineEvery
	}
	if req.Nodes == 0 {
		req.Nodes = harness.ClusterNodes
	}
	if req.Processors == 0 {
		req.Processors = 1
	}
	timeout := defTimeout
	if jr.TimeoutMS > 0 {
		timeout = time.Duration(jr.TimeoutMS) * time.Millisecond
	}
	return req, timeout, nil
}

// statusBody is the job-status wire form (POST /v1/jobs, GET /v1/jobs/{id}).
type statusBody struct {
	ID          string     `json:"id"`
	Experiment  string     `json:"experiment"`
	Status      string     `json:"status"`
	Error       string     `json:"error,omitempty"`
	Cached      bool       `json:"cached"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	ResultURL   string     `json:"result_url,omitempty"`
}

// statusOf renders rec under s.mu.
func statusOf(rec *jobRecord) statusBody {
	b := statusBody{
		ID:          rec.ID,
		Experiment:  rec.Req.Experiment,
		Status:      string(rec.Status),
		Error:       rec.Error,
		Cached:      rec.Cached,
		SubmittedAt: rec.SubmittedAt,
	}
	if !rec.StartedAt.IsZero() {
		t := rec.StartedAt
		b.StartedAt = &t
	}
	if !rec.FinishedAt.IsZero() {
		t := rec.FinishedAt
		b.FinishedAt = &t
	}
	if rec.Status == statusDone {
		b.ResultURL = "/v1/jobs/" + rec.ID + "/result"
	}
	return b
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting jobs")
		return
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var jr jobRequest
	if err := dec.Decode(&jr); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	req, timeout, err := s.normalize(jr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := rescache.Key(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	s.mu.Lock()
	rec, exists := s.jobsByID[id]
	if exists && rec.Status != statusFailed {
		// Deduplicated: the identical request is already queued, running, or
		// done. A done record's touch counts as a cache hit.
		if rec.Status == statusDone {
			s.cache.Get(id)
		}
		body := statusOf(rec)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, body)
		return
	}
	// New id — or a retry of a failed job (timeouts are operational, not
	// deterministic, so a failed id may be resubmitted).
	if cached, ok := s.cache.Get(id); ok {
		s.seq++
		rec = &jobRecord{
			ID: id, Req: req, Status: statusDone, Cached: true,
			SubmittedAt: time.Now(), FinishedAt: time.Now(), Result: cached, seq: s.seq,
		}
		s.jobsByID[id] = rec
		s.done.Add(1)
		body := statusOf(rec)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, body)
		return
	}
	s.seq++
	rec = &jobRecord{
		ID: id, Req: req, Timeout: timeout,
		Status: statusQueued, SubmittedAt: time.Now(), seq: s.seq,
	}
	s.jobsByID[id] = rec
	err = s.pool.Submit(jobs.Job{ID: id, Timeout: timeout, Run: func(ctx context.Context) { s.execute(ctx, id) }})
	if err != nil {
		delete(s.jobsByID, id)
		s.mu.Unlock()
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "queue full (%d queued, %d running)", s.pool.Depth(), s.pool.Running())
		case errors.Is(err, jobs.ErrClosed):
			writeError(w, http.StatusServiceUnavailable, "draining: not accepting jobs")
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	body := statusOf(rec)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, body)
}

// execute runs one accepted job on a pool worker.
func (s *Server) execute(ctx context.Context, id string) {
	s.mu.Lock()
	rec, ok := s.jobsByID[id]
	if !ok { // unreachable: records outlive their queue entries
		s.mu.Unlock()
		return
	}
	rec.Status = statusRunning
	rec.StartedAt = time.Now()
	req := rec.Req
	s.mu.Unlock()

	// DoContext: if this job's ctx ends while an identical computation is in
	// flight (a resubmitted id joining its predecessor), the join detaches
	// instead of blocking past its deadline; the leader keeps simulating.
	// A panicking simulation is converted to a job failure here so the
	// record reaches a terminal state — the pool's recover is the backstop.
	body, cached, err := s.cache.DoContext(ctx, id, func() (out []byte, rerr error) {
		defer func() {
			if r := recover(); r != nil {
				out, rerr = nil, fmt.Errorf("simulation panicked: %v", r)
			}
		}()
		s.sims.Add(1)
		res, err := s.run(ctx, req)
		if err != nil {
			return nil, err
		}
		return renderResult(id, req, res)
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	rec.FinishedAt = time.Now()
	if err != nil {
		rec.Status = statusFailed
		rec.Error = err.Error()
		s.failed.Add(1)
		return
	}
	rec.Status = statusDone
	rec.Cached = cached
	rec.Result = body
	s.done.Add(1)
}

// figureBody is the structured wire form of one harness.Figure. Row value
// maps marshal with sorted keys, so the encoding is deterministic.
type figureBody struct {
	Name    string             `json:"name"`
	Series  []string           `json:"series"`
	Rows    []rowBody          `json:"rows"`
	Geomean map[string]float64 `json:"geomean,omitempty"`
}

type rowBody struct {
	Bench  string             `json:"bench"`
	Values map[string]float64 `json:"values"`
}

// resultBody is the GET /v1/jobs/{id}/result wire form: the structured
// figures, the milliexp-style text rendering, and a metrics snapshot of the
// result's shape. Everything in it is deterministic — a cache hit and a
// fresh simulation of the same request produce byte-identical bodies.
type resultBody struct {
	ID         string          `json:"id"`
	Experiment string          `json:"experiment"`
	Request    Request         `json:"request"`
	Figures    []figureBody    `json:"figures,omitempty"`
	Text       string          `json:"text,omitempty"`
	Render     string          `json:"render"`
	Metrics    json.RawMessage `json:"metrics"`
}

// renderResult builds the stored result bytes for a completed experiment.
func renderResult(id string, req Request, res harness.ExperimentResult) ([]byte, error) {
	body := resultBody{ID: id, Experiment: req.Experiment, Request: req, Text: res.Text, Render: res.Render()}
	var rows, series int
	for _, f := range res.Figures {
		fb := figureBody{Name: f.Name, Series: f.Series, Geomean: f.Geomean}
		for _, r := range f.Rows {
			fb.Rows = append(fb.Rows, rowBody{Bench: r.Bench, Values: r.Values})
		}
		body.Figures = append(body.Figures, fb)
		rows += len(f.Rows)
		series += len(f.Series)
	}
	// The result-level metrics snapshot: deterministic shape samples only
	// (no wall-clock values — those live on the job status), so repeated
	// simulations of one request snapshot identically.
	var snap metrics.Snapshot
	snap.Put(metrics.Sample{Name: "result.figures", Kind: metrics.Gauge, Value: float64(len(res.Figures))})
	snap.Put(metrics.Sample{Name: "result.rows", Kind: metrics.Gauge, Value: float64(rows)})
	snap.Put(metrics.Sample{Name: "result.series", Kind: metrics.Gauge, Value: float64(series)})
	snap.Put(metrics.Sample{Name: "result.render_bytes", Kind: metrics.Gauge, Value: float64(len(body.Render))})
	mj, err := snap.JSON()
	if err != nil {
		return nil, err
	}
	body.Metrics = mj

	data, err := json.MarshalIndent(body, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	recs := make([]*jobRecord, 0, len(s.jobsByID))
	for _, rec := range s.jobsByID {
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq > recs[j].seq })
	out := make([]statusBody, len(recs))
	for i, rec := range recs {
		out[i] = statusOf(rec)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookup(id string) (*jobRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobsByID[id]
	return rec, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	body := statusOf(rec)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	status, errMsg, result := rec.Status, rec.Error, rec.Result
	s.mu.Unlock()
	switch status {
	case statusDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
	case statusFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %s", errMsg)
	default:
		writeJSON(w, http.StatusConflict, map[string]string{
			"status": string(status),
			"error":  "job not finished; poll GET /v1/jobs/{id}",
		})
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	data, err := s.reg.Snapshot().JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}
