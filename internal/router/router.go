// Package router is the cluster front tier of the millid simulation
// service: a consistent-hashing reverse proxy that spreads jobs across N
// worker nodes. The routing key is the job's deterministic content-hash id
// (server.CanonicalID), so identical requests always land on the same node
// — that node's job record for the id then collapses them onto one
// simulation, and the shared store tier makes the result a hit on every
// other node too.
//
// The router remembers the job id of the bodies it has canonicalized (a
// bounded server.IDMemo), so a repeated body costs a lookup rather than a
// canonicalization. It also keeps the result bodies of finished jobs, and
// then their done status bodies, as their workers sent them (two bounded
// rescache.Cache LRUs keyed by job id): a finished job's result never
// changes, and a done record's status body is encoded once, so the router
// answers a repeated POST, status GET or result GET of a finished job
// itself, with no ring lookup and no worker hop, even while that job's
// worker is down. It answers a status only while it also keeps the result,
// so a "done" from the router is backed by a result the router keeps.
//
// Membership is fixed when the router is built. The ring hashes each node
// under a fixed number of virtual replicas, so a router rebuilt over a
// changed node list moves only the keys owned by the changed nodes; results
// for moved keys survive in the shared store. A background probe marks
// nodes unhealthy on failed /healthz checks (a draining node's 503 counts as
// unhealthy, which is how a node leaves gracefully: drain it and the router
// stops routing to it). Requests to a failed node are retried on the ring's
// successor nodes with bounded backoff.
package router

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/metrics"
	"repro/internal/rescache"
	"repro/internal/server"
)

// hash64 maps s onto the ring's key space.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Ring is a consistent-hash ring of node URLs with virtual replicas.
type Ring struct {
	replicas int
	nodes    []string
	hashes   []uint64 // sorted ring positions
	owner    []int    // owner[i] = index into nodes for hashes[i]
}

// NewRing places each node at replicas positions (replicas <= 0 defaults to
// 64 — enough that removing one of a handful of nodes moves close to the
// ideal 1/N of the key space).
func NewRing(nodes []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = 64
	}
	r := &Ring{replicas: replicas, nodes: append([]string(nil), nodes...)}
	type point struct {
		h     uint64
		owner int
	}
	points := make([]point, 0, len(nodes)*replicas)
	for i, n := range r.nodes {
		for v := 0; v < replicas; v++ {
			points = append(points, point{hash64(fmt.Sprintf("%s#%d", n, v)), i})
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].h < points[j].h })
	r.hashes = make([]uint64, len(points))
	r.owner = make([]int, len(points))
	for i, p := range points {
		r.hashes[i] = p.h
		r.owner[i] = p.owner
	}
	return r
}

// Lookup returns every node in preference order for key: the clockwise
// owner first, then each distinct successor — the retry order on node
// failure.
func (r *Ring) Lookup(key string) []string {
	if len(r.hashes) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if start == len(r.hashes) {
		start = 0
	}
	out := make([]string, 0, len(r.nodes))
	seen := make(map[int]bool, len(r.nodes))
	for i := 0; i < len(r.hashes) && len(out) < len(r.nodes); i++ {
		o := r.owner[(start+i)%len(r.hashes)]
		if !seen[o] {
			seen[o] = true
			out = append(out, r.nodes[o])
		}
	}
	return out
}

// Options tunes a Router.
type Options struct {
	// Nodes are the worker base URLs (e.g. http://host:8177).
	Nodes []string
	// Replicas is the ring's virtual-replica count; 0 means 64.
	Replicas int
	// Base is the architecture configuration the workers serve on top of;
	// the router must canonicalize requests identically to compute the same
	// job ids. Workers and router must agree on it.
	Base arch.Params
	// HealthInterval is the /healthz probe period; 0 means 2s.
	HealthInterval time.Duration
	// RetryBackoff is the pause before the first retry, doubling per
	// attempt; 0 means 50ms.
	RetryBackoff time.Duration
	// Transport overrides the proxy transport (in-process tests and the SLA
	// experiment); nil uses http.DefaultTransport.
	Transport http.RoundTripper
}

// Router is the cluster front tier. Create with New; it is an http.Handler.
// Close stops the health probes.
type Router struct {
	base    arch.Params
	client  *http.Client
	backoff time.Duration

	ring *Ring // fixed at New
	// ids remembers the job id of each body that canonicalized.
	ids server.IDMemo
	// results keeps, by job id, the result bodies the workers sent, and
	// statuses the done status bodies of jobs whose result it kept, at most
	// server.MemoEntries of each.
	statuses, results *rescache.Cache

	mu      sync.Mutex
	healthy map[string]bool

	stopOnce sync.Once
	stop     chan struct{}

	routed, retries, failovers, proxyErrors, cacheHits atomic.Uint64

	reg *metrics.Registry
	mux *http.ServeMux
}

// New returns a router over the given worker nodes and starts its health
// probe loop. Nodes start healthy; the first probe round corrects that
// within HealthInterval.
func New(o Options) *Router {
	if o.HealthInterval <= 0 {
		o.HealthInterval = 2 * time.Second
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	rt := &Router{
		base:     o.Base,
		client:   &http.Client{Transport: o.Transport},
		backoff:  o.RetryBackoff,
		ring:     NewRing(o.Nodes, o.Replicas),
		statuses: rescache.New(server.MemoEntries),
		results:  rescache.New(server.MemoEntries),
		healthy:  make(map[string]bool, len(o.Nodes)),
		stop:     make(chan struct{}),
		mux:      http.NewServeMux(),
	}
	for _, n := range o.Nodes {
		rt.healthy[n] = true
	}
	rt.reg = metrics.NewRegistry()
	rt.registerMetrics()

	rt.mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	rt.mux.HandleFunc("GET /v1/jobs", rt.handleList)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		rt.answerStatus(w, r, r.PathValue("id"), nil)
	})
	rt.mux.HandleFunc("GET /v1/jobs/{id}/result", rt.answerResult)
	rt.mux.HandleFunc("GET /v1/experiments", rt.forwardAny)
	rt.mux.HandleFunc("GET /v1/workloads", rt.forwardAny)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)

	go rt.healthLoop(o.HealthInterval)
	return rt
}

func (rt *Router) registerMetrics() {
	r := rt.reg
	r.Gauge("router.nodes", func() float64 { return float64(len(rt.ring.nodes)) })
	r.Gauge("router.nodes_healthy", func() float64 {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		n := 0
		for _, ok := range rt.healthy {
			if ok {
				n++
			}
		}
		return float64(n)
	})
	r.Counter("router.requests_routed", rt.routed.Load)
	r.Counter("router.retries", rt.retries.Load)
	r.Counter("router.failovers", rt.failovers.Load)
	r.Counter("router.proxy_errors", rt.proxyErrors.Load)
	r.Counter("router.cache_hits", rt.cacheHits.Load)
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Close stops the health probe loop (idempotent).
func (rt *Router) Close() { rt.stopOnce.Do(func() { close(rt.stop) }) }

// Metrics returns the router-level snapshot served at /metrics.
func (rt *Router) Metrics() metrics.Snapshot { return rt.reg.Snapshot() }

// HitRates reads a cluster's cache behaviour from a snapshot that sums the
// router's and the workers' counters. hitRate is the hits at any tier (the
// router's finished-job store, a worker's job records, the shared store) over
// those hits plus the workers' misses; sharedFrac is the shared store's
// share of all hits. Both are 0 before any lookup, and when s holds no
// worker counters: the router's alone cannot tell how many lookups missed.
func HitRates(s metrics.Snapshot) (hitRate, sharedFrac float64) {
	if _, ok := s.Get("server.cache_misses"); !ok {
		return 0, 0
	}
	hits := s.Value("router.cache_hits") + s.Value("server.cache_hits")
	shared := s.Value("server.cache_shared_hits")
	if t := hits + shared + s.Value("server.cache_misses"); t > 0 {
		hitRate = (hits + shared) / t
	}
	if hits+shared > 0 {
		sharedFrac = shared / (hits + shared)
	}
	return hitRate, sharedFrac
}

func (rt *Router) healthLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probe()
		}
	}
}

// probe marks each node healthy iff /healthz answers 200 (a draining node's
// 503 makes it leave the rotation).
func (rt *Router) probe() {
	for _, n := range rt.ring.nodes {
		ok := rt.probeNode(n)
		rt.mu.Lock()
		rt.healthy[n] = ok
		rt.mu.Unlock()
	}
}

func (rt *Router) probeNode(node string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// prefer returns the candidate nodes for key in retry order: the ring's
// preference list with unhealthy nodes demoted to the tail (still tried
// last — with every node marked down, guessing beats refusing).
func (rt *Router) prefer(key string) []string {
	pref := rt.ring.Lookup(key)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	up := make([]string, 0, len(pref))
	down := make([]string, 0, 1)
	for _, n := range pref {
		if rt.healthy[n] {
			up = append(up, n)
		} else {
			down = append(down, n)
		}
	}
	return append(up, down...)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\n  \"error\": %q\n}\n", fmt.Sprintf(format, args...))
}

// handleSubmit recovers the body's deterministic job id, from the memo or by
// canonicalizing it, and routes by it.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "request body: %v", err)
		return
	}
	id, ok := rt.ids.Lookup(body)
	if !ok {
		if id, err = server.CanonicalID(rt.base, body); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		rt.ids.Remember(body, id)
	}
	rt.answerStatus(w, r, id, body)
}

// answerStatus answers a POST or status GET of job id. While the router
// keeps the job's result, it replies with the kept done status, or forwards
// r and keeps the worker's reply if that says done; otherwise it forwards r
// and keeps nothing.
func (rt *Router) answerStatus(w http.ResponseWriter, r *http.Request, id string, body []byte) {
	if _, ok := rt.results.Get(id); !ok {
		rt.forwardByKey(w, r, id, body, nil)
		return
	}
	if data, ok := rt.statuses.Get(id); ok {
		rt.replyKept(w, data)
		return
	}
	rt.forwardByKey(w, r, id, body, func(data []byte) {
		if doneStatus(data, id) {
			keepCopy(rt.statuses, id, data)
		}
	})
}

// answerResult answers a result GET with the kept result body, or forwards
// it and keeps the worker's reply.
func (rt *Router) answerResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if data, ok := rt.results.Get(id); ok {
		rt.replyKept(w, data)
		return
	}
	rt.forwardByKey(w, r, id, nil, func(data []byte) { keepCopy(rt.results, id, data) })
}

// replyKept writes a kept body as the worker did: 200, application/json.
func (rt *Router) replyKept(w http.ResponseWriter, data []byte) {
	rt.cacheHits.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// keepCopy keeps an exact-length copy of data under id: the relayed body's
// buffer has spare capacity.
func keepCopy(c *rescache.Cache, id string, data []byte) {
	kept := make([]byte, len(data))
	copy(kept, data)
	c.Put(id, kept)
}

// forwardByKey proxies r to the key's preferred nodes, each tried at most
// once, retrying transport failures and 5xx gateway-ish responses with
// exponential backoff. A non-nil keep is handed a relayed 200 reply (see
// tryNode).
func (rt *Router) forwardByKey(w http.ResponseWriter, r *http.Request, key string, body []byte, keep func([]byte)) {
	nodes := rt.prefer(key)
	if len(nodes) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no worker nodes configured")
		return
	}
	rt.routed.Add(1)
	var lastErr error
	for attempt, node := range nodes {
		if attempt > 0 {
			rt.retries.Add(1)
			select {
			case <-r.Context().Done():
				writeError(w, http.StatusGatewayTimeout, "client gone: %v", r.Context().Err())
				return
			case <-time.After(rt.backoff << (attempt - 1)):
			}
		}
		ok, err := rt.tryNode(w, r, node, body, keep)
		if ok {
			if attempt > 0 {
				rt.failovers.Add(1)
			}
			return
		}
		lastErr = err
	}
	rt.proxyErrors.Add(1)
	writeError(w, http.StatusBadGateway, "all %d candidate nodes failed; last: %v", len(nodes), lastErr)
}

// tryNode forwards once. It reports done=true when a response was relayed
// to the client (including application errors like 429 — those are the
// node's answer, not a routing failure). Transport errors and 503s (a
// draining or overloaded node that another replica can serve) report
// done=false so the caller fails over. With a non-nil keep, a 200 JSON
// reply to a GET or POST is buffered, relayed, then handed to keep.
func (rt *Router) tryNode(w http.ResponseWriter, r *http.Request, node string, body []byte, keep func([]byte)) (done bool, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, node+r.URL.Path, rd)
	if err != nil {
		return false, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		io.Copy(io.Discard, resp.Body)
		return false, fmt.Errorf("%s: %s", node, resp.Status)
	}
	if keep == nil || r.Method == http.MethodHead || resp.StatusCode != http.StatusOK ||
		resp.Header.Get("Content-Type") != "application/json" {
		relay(w, resp, resp.Body)
		return true, nil
	}
	data, err := io.ReadAll(resp.Body)
	relay(w, resp, bytes.NewReader(data))
	if err == nil {
		keep(data)
	}
	return true, nil
}

// doneStatus reports whether a job status body is job id's and says done.
func doneStatus(data []byte, id string) bool {
	var st struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	return json.Unmarshal(data, &st) == nil && st.ID == id && st.Status == "done"
}

// relay sends resp's status code, Content-Type and Retry-After, then body.
func relay(w http.ResponseWriter, resp *http.Response, body io.Reader) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, body)
}

// forwardAny proxies r to the first node that answers (health-ordered).
func (rt *Router) forwardAny(w http.ResponseWriter, r *http.Request) {
	rt.forwardByKey(w, r, "any:"+r.URL.Path, nil, nil)
}

// handleList fans GET /v1/jobs out to every healthy node and merges the
// records, newest first (the per-node listings are already newest-first).
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	healthy := make(map[string]bool, len(rt.healthy))
	for n, h := range rt.healthy {
		healthy[n] = h
	}
	rt.mu.Unlock()

	type rec struct {
		raw         json.RawMessage
		submittedAt time.Time
	}
	var all []rec
	for _, n := range rt.ring.nodes {
		if !healthy[n] {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, n+"/v1/jobs", nil)
		if err != nil {
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxItemsBytes))
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		var raws []json.RawMessage
		if json.Unmarshal(data, &raws) != nil {
			continue
		}
		for _, raw := range raws {
			var meta struct {
				SubmittedAt time.Time `json:"submitted_at"`
			}
			json.Unmarshal(raw, &meta)
			all = append(all, rec{raw: raw, submittedAt: meta.SubmittedAt})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].submittedAt.After(all[j].submittedAt) })
	out := make([]json.RawMessage, len(all))
	for i, a := range all {
		out[i] = a.raw
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// maxItemsBytes bounds one node's job-listing response in the fan-in.
const maxItemsBytes = 64 << 20

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	up := 0
	total := len(rt.ring.nodes)
	for _, ok := range rt.healthy {
		if ok {
			up++
		}
	}
	rt.mu.Unlock()
	code := http.StatusOK
	status := "ok"
	if up == 0 {
		code = http.StatusServiceUnavailable
		status = "no healthy nodes"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\n  \"status\": %q,\n  \"nodes_healthy\": %s,\n  \"nodes\": %s\n}\n",
		status, strconv.Itoa(up), strconv.Itoa(total))
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	data, err := rt.reg.Snapshot().JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}
