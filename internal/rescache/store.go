// The shared result tier: a memcache-style in-memory store that any number
// of millid worker nodes mount behind their job records (through Fill), so
// a simulation computed on one node is a cluster-wide hit and a restarted
// node does not cold-start. The store speaks a three-verb protocol —
// GET / PUT / LEASE — where the lease rides on GET misses: the first node
// to miss a key is granted a fill lease (it should compute and PUT), later
// missers are told the fill is in flight and back off briefly instead of
// stampeding the same simulation (the classic memcached lease mechanism).
//
// Wire form (Store.Handler):
//
//	GET /store/v1/items/{key}   200 body                      hit
//	                            404 + X-Millistore-Lease: t   miss, lease granted
//	                            404 + Retry-After: 1          miss, fill in flight
//	PUT /store/v1/items/{key}   204                           stored (lease cleared)
//	    X-Millistore-Lease: t   409                           stale lease, ignored
//	                            413                           body over 16 MiB, ignored
//	GET /healthz, /metrics      liveness + store counters
//
// Store also implements SharedTier natively, so in-process topologies (the
// SLA experiment, tests) mount it without HTTP; HTTPTier is the client-side
// SharedTier over the wire form.
package rescache

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// maxItemBytes bounds one stored result body (and the PUT request body).
const maxItemBytes = 16 << 20

// Store is the shared result tier. Create with NewStore; mount in-process
// via SharedTier or over HTTP via Handler + HTTPTier.
type Store struct {
	cache    *Cache
	leaseTTL time.Duration

	mu     sync.Mutex
	leases map[string]storeLease
	seq    uint64 // lease token generator

	puts, stalePuts, leaseGrants, leaseHeld atomic.Uint64
}

type storeLease struct {
	token   string
	expires time.Time
}

// NewStore returns a store bounded to maxEntries results (<= 0 defaults to
// 4096) whose fill leases expire after leaseTTL (<= 0 defaults to 30s — a
// lease must outlive one queued small simulation, not a worst-case sweep;
// an expired lease just lets another node fill).
func NewStore(maxEntries int, leaseTTL time.Duration) *Store {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	if leaseTTL <= 0 {
		leaseTTL = 30 * time.Second
	}
	return &Store{
		cache:    New(maxEntries),
		leaseTTL: leaseTTL,
		leases:   make(map[string]storeLease),
	}
}

// Get implements SharedTier in-process: on a miss the caller may be granted
// the fill lease (non-empty lease return).
func (st *Store) Get(ctx context.Context, key string) (value []byte, lease string, ok bool, err error) {
	if v, hit := st.cache.Get(key); hit {
		return v, "", true, nil
	}
	return nil, st.leaseFor(key), false, nil
}

// Put implements SharedTier in-process. An empty lease stores
// unconditionally; a stale lease is dropped (the key was already filled or
// re-leased — with deterministic results the stored value is equivalent).
func (st *Store) Put(ctx context.Context, key string, value []byte, lease string) error {
	if st.putWithLease(key, value, lease) {
		return nil
	}
	return nil // stale lease: dropped by design, not an error for the filler
}

// leaseFor grants the fill lease for a missing key if none is live, else
// returns "" (fill in flight elsewhere).
func (st *Store) leaseFor(key string) string {
	now := time.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	if l, ok := st.leases[key]; ok && now.Before(l.expires) {
		st.leaseHeld.Add(1)
		return ""
	}
	st.seq++
	token := fmt.Sprintf("l%x", st.seq)
	st.leases[key] = storeLease{token: token, expires: now.Add(st.leaseTTL)}
	st.leaseGrants.Add(1)
	return token
}

// putWithLease stores value and clears the key's lease. An empty token
// stores unconditionally (a filler whose lease-wait expired); a non-empty
// token must match the outstanding lease — a mismatched or already-consumed
// token is stale and the Put is dropped. Reports whether the value was
// stored.
func (st *Store) putWithLease(key string, value []byte, token string) bool {
	st.mu.Lock()
	if token != "" {
		if l, ok := st.leases[key]; !ok || token != l.token {
			st.mu.Unlock()
			st.stalePuts.Add(1)
			return false
		}
	}
	delete(st.leases, key)
	st.mu.Unlock()
	st.cache.Put(key, value)
	st.puts.Add(1)
	return true
}

// Stats returns the underlying cache counters (GET hits/misses, entries,
// evictions).
func (st *Store) Stats() Stats { return st.cache.Stats() }

// Registry returns a metrics registry exposing the store's counters; the
// store daemon serves its snapshot at /metrics.
func (st *Store) Registry() *metrics.Registry {
	r := metrics.NewRegistry()
	r.Counter("store.hits", func() uint64 { return st.cache.Stats().Hits })
	r.Counter("store.misses", func() uint64 { return st.cache.Stats().Misses })
	r.Counter("store.evictions", func() uint64 { return st.cache.Stats().Evictions })
	r.Gauge("store.entries", func() float64 { return float64(st.cache.Stats().Entries) })
	r.Gauge("store.hit_rate", func() float64 { return st.cache.Stats().HitRate() })
	r.Counter("store.puts", st.puts.Load)
	r.Counter("store.stale_puts", st.stalePuts.Load)
	r.Counter("store.lease_grants", st.leaseGrants.Load)
	r.Counter("store.lease_held", st.leaseHeld.Load)
	return r
}

// Handler returns the store's HTTP surface (the wire form above).
func (st *Store) Handler() http.Handler {
	reg := st.Registry()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /store/v1/items/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if v, ok := st.cache.Get(key); ok {
			w.Header().Set("Content-Type", "application/json")
			w.Write(v)
			return
		}
		if lease := st.leaseFor(key); lease != "" {
			w.Header().Set(leaseHeader, lease)
		} else {
			w.Header().Set("Retry-After", "1")
		}
		w.WriteHeader(http.StatusNotFound)
	})
	mux.HandleFunc("PUT /store/v1/items/{key}", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxItemBytes))
		if err != nil {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		if !st.putWithLease(r.PathValue("key"), body, r.Header.Get(leaseHeader)) {
			w.WriteHeader(http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{\"status\":\"ok\"}\n"))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		data, err := reg.Snapshot().JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(data, '\n'))
	})
	return mux
}

// leaseHeader carries the fill-lease token on GET misses and PUT fills.
const leaseHeader = "X-Millistore-Lease"

// Note: the store's GET double-checks under separate locks (cache then
// lease table); two racing missers can therefore both observe a miss, but
// only one wins the lease — the invariant the protocol needs.

// HTTPTier is the client-side SharedTier speaking the store wire form.
type HTTPTier struct {
	base   string // e.g. http://store-host:8178
	client *http.Client
}

// NewHTTPTier returns a tier talking to the store daemon at baseURL.
// client nil uses a dedicated client with a short timeout — the shared
// tier is an optimization, so a slow store must not stall job execution
// for longer than a retry would cost.
func NewHTTPTier(baseURL string, client *http.Client) *HTTPTier {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return &HTTPTier{base: baseURL, client: client}
}

func (t *HTTPTier) url(key string) string { return t.base + "/store/v1/items/" + key }

// Get implements SharedTier over HTTP.
func (t *HTTPTier) Get(ctx context.Context, key string) (value []byte, lease string, ok bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.url(key), nil)
	if err != nil {
		return nil, "", false, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, "", false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		v, err := io.ReadAll(io.LimitReader(resp.Body, maxItemBytes))
		if err != nil {
			return nil, "", false, err
		}
		return v, "", true, nil
	case http.StatusNotFound:
		return nil, resp.Header.Get(leaseHeader), false, nil
	default:
		return nil, "", false, fmt.Errorf("rescache: store GET %s: %s", key, resp.Status)
	}
}

// Put implements SharedTier over HTTP. A stale-lease 409 is not an error —
// the key was filled by someone else, which for deterministic results is
// exactly as good.
func (t *HTTPTier) Put(ctx context.Context, key string, value []byte, lease string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, t.url(key), bytes.NewReader(value))
	if err != nil {
		return err
	}
	req.ContentLength = int64(len(value))
	if lease != "" {
		req.Header.Set(leaseHeader, lease)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusConflict {
		return nil
	}
	return fmt.Errorf("rescache: store PUT %s: %s", key, resp.Status)
}
