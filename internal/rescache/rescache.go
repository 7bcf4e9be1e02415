// Package rescache holds the content-addressed result caching of the millid
// simulation service. Every simulation in this repository is deterministic —
// the harness verifies each run against a golden reference and the BENCH
// determinism gate pins its cycle counts bit-for-bit — so a result is fully
// determined by its request: experiment name, architecture parameters,
// input scale, and dataset seed. That makes results perfectly cacheable:
// Key is the SHA-256 of the canonical JSON encoding of the request, and
// Cache is a bounded LRU of stored bytes by key.
//
// Behind a worker's own job records sits an optional SharedTier — the
// cluster-wide memcache-style result store (see Store and HTTPTier) — so a
// result computed on any millid node is a hit everywhere and a node restart
// does not cold-start. Fill is the one way a worker reads it: the tier's
// value, or a computation published back to it.
package rescache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// Key returns the content address of a request: the SHA-256 hex digest of
// its canonical JSON encoding. Canonical means the request must marshal
// deterministically — encoding/json emits struct fields in declaration
// order, so any fixed struct (not a map) qualifies.
func Key(req any) (string, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return "", fmt.Errorf("rescache: marshal request: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// SharedTier is the cluster-wide result store behind a worker. Get
// returns the stored bytes, or on a miss may grant a fill lease: a token
// the caller presents with Put so the store can tell the designated filler
// from stragglers (memcache-style leases). An empty lease on a miss means
// another node already holds the fill lease.
type SharedTier interface {
	Get(ctx context.Context, key string) (value []byte, lease string, ok bool, err error)
	Put(ctx context.Context, key string, value []byte, lease string) error
}

// Fill returns key's value from the shared tier t, or computes it and
// publishes it to t. shared reports that the tier answered. A nil t just
// computes.
//
// When another node holds the fill lease, Fill gives it a bounded chance to
// publish before computing the same thing here: duplicated work is only
// wasted cycles, because results are deterministic, so after the grace
// window it computes anyway. Tier errors degrade to a miss, and the publish
// is best-effort: a store outage never fails the computation. A failed
// computation publishes nothing.
func Fill(ctx context.Context, t SharedTier, key string, compute func() ([]byte, error)) (value []byte, shared bool, err error) {
	if t == nil {
		value, err = compute()
		return value, false, err
	}
	value, lease, ok, _ := t.Get(ctx, key)
	for i := 0; !ok && lease == "" && i < leaseWaitRetries; i++ {
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-time.After(leaseWaitStep):
		}
		value, lease, ok, _ = t.Get(ctx, key)
	}
	if ok {
		return value, true, nil
	}
	if value, err = compute(); err == nil {
		_ = t.Put(ctx, key, value, lease)
	}
	return value, false, err
}

// Lease-wait tuning: how long Fill waits on another node's fill lease
// before duplicating the computation locally.
const (
	leaseWaitRetries = 3
	leaseWaitStep    = 50 * time.Millisecond
)

type entry struct {
	key   string
	value []byte
}

// Cache is a bounded LRU of stored bytes by key, safe for concurrent use.
// The zero value is not usable; call New.
type Cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evictions uint64
}

// New returns a cache bounded to max entries (max <= 0 defaults to 128).
func New(max int) *Cache {
	if max <= 0 {
		max = 128
	}
	return &Cache{
		max:   max,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the bytes stored under key, marking the entry most recently
// used. The returned slice is shared — callers must not mutate it.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry).value, true
	}
	c.misses++
	return nil, false
}

// Put stores value under key, evicting the least recently used entries
// beyond the bound.
func (c *Cache) Put(key string, value []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry).value = value
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, value: value})
	for c.ll.Len() > c.max {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.items, old.Value.(*entry).key)
		c.evictions++
	}
}

// Stats is a point-in-time view of the cache's counters.
type Stats struct {
	Entries   int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// HitRate returns the fraction of lookups that hit, or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   c.ll.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
