// Package cache models the set-associative caches used by the non-Millipede
// architectures: SSMC's 5 KB per-core L1 D-cache, the GPGPU SM's 32 KB L1
// D-cache, and the conventional multicore's 64 KB L1 / 1 MB L2 hierarchy
// (Table III). All of them apply sequential next-block prefetch to the input
// stream, the paper's "cache-block prefetch" baseline.
//
// The model is tag-only: hits and misses are tracked per line, fills arrive
// via the backing store's callback, and the functional data always comes
// from the DRAM word store (the input dataset is read-only during a kernel).
// Live state is modeled as cache-resident (the paper stipulates that BMLA
// live state "completely fits" in the small caches, Section V), so only the
// streaming input competes for lines here.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// Config sizes a cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Assoc     int
	// PrefetchDepth is how many blocks ahead to prefetch;
	// 0 disables prefetching.
	PrefetchDepth int
	// PrefetchStrideBlocks is the distance between prefetched blocks in
	// units of blocks (0 or 1 = next-block). SSMC uses the row stride: a
	// core's slab recurs every DRAM row, so its stream prefetcher strides
	// by RowBytes/LineBytes blocks.
	PrefetchStrideBlocks int
	// HashSets XOR-folds high block bits into the set index, the standard
	// anti-aliasing hash for strided streams (a row-strided stream would
	// otherwise land in gcd(stride, sets) sets and thrash).
	HashSets bool
}

// Validate checks the configuration and returns the number of sets.
func (c Config) Validate() (sets int, err error) {
	if c.LineBytes <= 0 || c.SizeBytes <= 0 || c.Assoc <= 0 {
		return 0, fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines == 0 || lines%c.Assoc != 0 {
		return 0, fmt.Errorf("cache: %d lines not divisible by assoc %d", lines, c.Assoc)
	}
	if c.PrefetchDepth < 0 {
		return 0, fmt.Errorf("cache: negative prefetch depth")
	}
	if c.PrefetchStrideBlocks < 0 {
		return 0, fmt.Errorf("cache: negative prefetch stride")
	}
	return lines / c.Assoc, nil
}

// Stats counts cache events.
type Stats struct {
	Hits          uint64
	Misses        uint64
	MSHRMerges    uint64 // demand accesses merged into an in-flight fill
	PrefetchIssue uint64
	PrefetchHits  uint64 // demand hits on lines brought in by prefetch
	Retries       uint64 // accesses bounced because backing was full
}

// HitRate returns hits/(hits+misses+merges).
func (s Stats) HitRate() float64 {
	t := s.Hits + s.Misses + s.MSHRMerges
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

type line struct {
	tag        int64 // block id; -1 invalid
	lastUse    uint64
	prefetched bool // filled by prefetch, not yet demand-referenced
	inFlight   bool // fill requested but not arrived
}

// Cache is a single level. It is driven entirely by Access calls and fill
// callbacks; it has no clock of its own.
type Cache struct {
	cfg   Config
	sets  [][]line
	nsets int
	// lineShift/setMask fast-path blockOf and setOf when the line size and
	// set count are powers of two (the only geometries the models use);
	// -1/0 fall back to the general divide/modulo, computing identical
	// indices either way.
	lineShift int
	setMask   int64
	// lastWay[set] points at the line most recently returned by find in
	// that set (nil until its first hit) — a per-set MRU filter over the
	// way scan that survives many interleaved streams (a single global
	// entry thrashes when every context streams through its own lines).
	lastWay []*line
	backing mem.Port
	useTick uint64
	// mshr holds the in-flight fills (block id -> waiters). A linear-scan
	// slice, not a map: mshrMax is single-digit, and a map's delete/insert
	// churn allocates overflow buckets in the steady state.
	mshr []mshrEntry
	// limit of distinct in-flight fills (simple MSHR count).
	mshrMax int
	stats   Stats
	// nextPrefetch remembers a prefetch that bounced off a full backing
	// queue, retried on the next access.
	pendingPrefetch int64 // block id, -1 none
	// fillFree and wlistFree recycle the per-fill Done context and the MSHR
	// waiter lists so the steady-state access path allocates nothing.
	fillFree  []*fillCtx
	wlistFree [][]func()
	relayFree []*relayCtx
	// refused records where the last Access that returned Retry bounced:
	// true when the backing refused the fill, false at this cache.
	refused bool
}

// mshrEntry is one in-flight fill and the demand accesses merged into it.
type mshrEntry struct {
	block   int64
	waiters []func()
}

// mshrFind returns the index of block's in-flight fill, or -1.
func (c *Cache) mshrFind(block int64) int {
	for i := range c.mshr {
		if c.mshr[i].block == block {
			return i
		}
	}
	return -1
}

// mshrDelete swap-removes entry i (no behavior depends on entry order).
func (c *Cache) mshrDelete(i int) {
	last := len(c.mshr) - 1
	c.mshr[i] = c.mshr[last]
	c.mshr[last] = mshrEntry{}
	c.mshr = c.mshr[:last]
}

// fillCtx carries one in-flight fill's completion state. Its done closure is
// built once and reused for every fill the context serves.
type fillCtx struct {
	c          *Cache
	block      int64
	prefetched bool
	done       func(int64, bool)
}

func (c *Cache) newFillCtx() *fillCtx {
	ctx := &fillCtx{c: c}
	ctx.done = func(int64, bool) {
		ctx.c.fill(ctx.block, ctx.prefetched)
		ctx.c.fillFree = append(ctx.c.fillFree, ctx)
	}
	return ctx
}

func (c *Cache) getFillCtx(block int64, prefetched bool) *fillCtx {
	n := len(c.fillFree)
	if n == 0 {
		c.fillFree = append(c.fillFree, c.newFillCtx())
		n = 1
	}
	ctx := c.fillFree[n-1]
	c.fillFree = c.fillFree[:n-1]
	ctx.block, ctx.prefetched = block, prefetched
	return ctx
}

// getWlist pops a recycled waiter list (fill returns them emptied).
func (c *Cache) getWlist() []func() {
	n := len(c.wlistFree)
	if n == 0 {
		return make([]func(), 0, 8)
	}
	w := c.wlistFree[n-1]
	c.wlistFree = c.wlistFree[:n-1]
	return w
}

// New builds a cache over the given backing memory port — the memory fabric
// itself, or a lower-level Cache. mshrMax bounds distinct outstanding fills
// (demand + prefetch).
func New(cfg Config, backing mem.Port, mshrMax int) (*Cache, error) {
	nsets, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if backing == nil {
		return nil, fmt.Errorf("cache: nil backing")
	}
	if mshrMax <= 0 {
		return nil, fmt.Errorf("cache: bad mshrMax %d", mshrMax)
	}
	c := &Cache{
		cfg:             cfg,
		nsets:           nsets,
		backing:         backing,
		mshr:            make([]mshrEntry, 0, mshrMax),
		mshrMax:         mshrMax,
		pendingPrefetch: -1,
		lineShift:       -1,
	}
	c.lastWay = make([]*line, nsets)
	if cfg.LineBytes&(cfg.LineBytes-1) == 0 {
		c.lineShift = bits.TrailingZeros(uint(cfg.LineBytes))
	}
	if nsets&(nsets-1) == 0 {
		c.setMask = int64(nsets - 1)
	}
	c.fillFree = make([]*fillCtx, 0, mshrMax+1)
	for i := 0; i < mshrMax; i++ {
		c.fillFree = append(c.fillFree, c.newFillCtx())
	}
	c.wlistFree = make([][]func(), 0, mshrMax+1)
	for i := 0; i < mshrMax; i++ {
		c.wlistFree = append(c.wlistFree, make([]func(), 0, 8))
	}
	// Relay contexts are only used when this cache backs another cache
	// (mem.Port Enqueue); outstanding relays are bounded by the upstream
	// cache's MSHR count, for which our own mshrMax is a fair proxy.
	c.relayFree = make([]*relayCtx, 0, 4*mshrMax)
	for i := 0; i < 2*mshrMax; i++ {
		c.relayFree = append(c.relayFree, c.newRelayCtx())
	}
	c.sets = make([][]line, nsets)
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Assoc)
		for j := range c.sets[i] {
			c.sets[i][j].tag = -1
		}
	}
	return c, nil
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) blockOf(addr uint32) int64 {
	if c.lineShift >= 0 {
		return int64(addr >> uint(c.lineShift))
	}
	return int64(addr) / int64(c.cfg.LineBytes)
}

func (c *Cache) setOf(block int64) int {
	if c.cfg.HashSets {
		block ^= block >> 5
		block ^= block >> 10
	}
	if c.setMask != 0 {
		// Blocks are non-negative (32-bit addresses), so the masked index
		// equals the sign-fixed double modulo below.
		return int(block & c.setMask)
	}
	return int((block%int64(c.nsets) + int64(c.nsets)) % int64(c.nsets))
}

func (c *Cache) find(block int64) *line {
	// MRU shortcut: streaming kernels touch a line's 16 words back to back,
	// so each set's last-hit way answers most lookups without a way scan.
	// Lines live in fixed arrays (never reallocated) and the tag check
	// makes the shortcut self-validating across evictions.
	s := c.setOf(block)
	if ln := c.lastWay[s]; ln != nil && ln.tag == block {
		return ln
	}
	set := c.sets[s]
	for i := range set {
		if set[i].tag == block {
			c.lastWay[s] = &set[i]
			return &set[i]
		}
	}
	return nil
}

// victim returns an invalid line if the set has one, else the LRU line that
// is not mid-fill; nil if every line is mid-fill (access must retry).
func (c *Cache) victim(block int64) *line {
	set := c.sets[c.setOf(block)]
	var v *line
	for i := range set {
		ln := &set[i]
		if ln.inFlight {
			continue
		}
		if ln.tag == -1 {
			return ln
		}
		if v == nil || ln.lastUse < v.lastUse {
			v = ln
		}
	}
	return v
}

// Result of an Access.
type Result int

const (
	// Hit: data available now.
	Hit Result = iota
	// Miss: fill requested; onFill will be called when it arrives.
	Miss
	// Retry: the access could not be handled this cycle (backing queue or
	// MSHRs full); the caller must re-issue later. onFill is dropped.
	Retry
)

// Access performs a demand read of addr. On Miss the caller's onFill runs
// when the line arrives (in the backing's clock domain).
func (c *Cache) Access(addr uint32, onFill func()) Result {
	c.useTick++
	block := c.blockOf(addr)
	if ln := c.find(block); ln != nil && !ln.inFlight {
		ln.lastUse = c.useTick
		c.stats.Hits++
		if ln.prefetched {
			ln.prefetched = false
			c.stats.PrefetchHits++
		}
		c.maybePrefetch(block)
		return Hit
	}
	// In-flight fill for this block: merge.
	if i := c.mshrFind(block); i >= 0 {
		c.mshr[i].waiters = append(c.mshr[i].waiters, onFill)
		c.stats.MSHRMerges++
		return Miss
	}
	if len(c.mshr) >= c.mshrMax {
		c.stats.Retries++
		c.refused = false
		return Retry
	}
	ln := c.victim(block)
	if ln == nil {
		c.stats.Retries++
		c.refused = false
		return Retry
	}
	// Register the line and MSHR entry *before* calling the backing: a
	// lower-level cache hit completes synchronously, re-entering fill.
	saved := *ln
	ln.tag = block
	ln.inFlight = true
	ln.prefetched = false
	ln.lastUse = c.useTick
	wl := append(c.getWlist(), onFill)
	c.mshr = append(c.mshr, mshrEntry{block: block, waiters: wl})
	ctx := c.getFillCtx(block, false)
	fillAddr := uint32(block) * uint32(c.cfg.LineBytes)
	ok := c.backing.Enqueue(mem.Request{Addr: fillAddr, Bytes: c.cfg.LineBytes, Done: ctx.done})
	if !ok {
		*ln = saved
		if i := c.mshrFind(block); i >= 0 {
			c.mshrDelete(i)
		}
		c.wlistFree = append(c.wlistFree, wl[:0])
		c.fillFree = append(c.fillFree, ctx)
		c.stats.Retries++
		c.refused = true
		return Retry
	}
	c.stats.Misses++
	c.maybePrefetch(block)
	return Miss
}

// Refused reports whether the last Access that returned Retry bounced off
// the backing (its Enqueue refused the fill) rather than at this cache (its
// MSHRs full, or every way of the set mid-fill).
func (c *Cache) Refused() bool { return c.refused }

// TallyRetries accounts for n Accesses that return Retry while nothing
// changes the cache, as a caller that knows a re-issued access must bounce
// again may do instead of making them: each such Access only advances the
// LRU clock and the retry counter (a fill it registers is undone when the
// backing refuses it). The backing's own share of a refused Access is the
// caller's to account.
func (c *Cache) TallyRetries(n uint64) {
	c.useTick += n
	c.stats.Retries += n
}

// fill completes a line fill and releases waiters.
func (c *Cache) fill(block int64, prefetched bool) {
	if ln := c.find(block); ln != nil {
		ln.inFlight = false
		ln.prefetched = prefetched
	}
	i := c.mshrFind(block)
	if i < 0 {
		return
	}
	waiters := c.mshr[i].waiters
	c.mshrDelete(i)
	for _, w := range waiters {
		if w != nil {
			w()
		}
	}
	c.wlistFree = append(c.wlistFree, waiters[:0])
}

// maybePrefetch issues sequential next-block prefetches after a demand
// reference to block.
func (c *Cache) maybePrefetch(block int64) {
	if c.cfg.PrefetchDepth == 0 {
		return
	}
	if c.pendingPrefetch >= 0 {
		p := c.pendingPrefetch
		c.pendingPrefetch = -1
		c.issuePrefetch(p)
	}
	stride := int64(c.cfg.PrefetchStrideBlocks)
	if stride == 0 {
		stride = 1
	}
	for d := 1; d <= c.cfg.PrefetchDepth; d++ {
		c.issuePrefetch(block + int64(d)*stride)
	}
}

func (c *Cache) issuePrefetch(block int64) {
	if c.find(block) != nil {
		return // present or already in flight
	}
	if c.mshrFind(block) >= 0 {
		return
	}
	if len(c.mshr) >= c.mshrMax {
		return // drop; demand stream will re-trigger
	}
	ln := c.victim(block)
	if ln == nil {
		return
	}
	// Evict the victim for the incoming prefetch before calling the
	// backing (see Access for the synchronous-completion ordering).
	saved := *ln
	ln.tag = block
	ln.inFlight = true
	ln.prefetched = false
	ln.lastUse = c.useTick
	wl := c.getWlist()
	c.mshr = append(c.mshr, mshrEntry{block: block, waiters: wl})
	ctx := c.getFillCtx(block, true)
	fillAddr := uint32(block) * uint32(c.cfg.LineBytes)
	ok := c.backing.Enqueue(mem.Request{Addr: fillAddr, Bytes: c.cfg.LineBytes, Done: ctx.done})
	if !ok {
		*ln = saved
		if i := c.mshrFind(block); i >= 0 {
			c.mshrDelete(i)
		}
		c.wlistFree = append(c.wlistFree, wl[:0])
		c.fillFree = append(c.fillFree, ctx)
		c.pendingPrefetch = block
		return
	}
	c.stats.PrefetchIssue++
}

// Contains reports whether block holding addr is resident and filled
// (for tests and assertions).
func (c *Cache) Contains(addr uint32) bool {
	ln := c.find(c.blockOf(addr))
	return ln != nil && !ln.inFlight
}

// relayCtx adapts one upstream mem.Request Done to this cache's onFill
// callback shape without allocating a fresh closure per request.
type relayCtx struct {
	c    *Cache
	done func(int64, bool)
	fn   func()
}

func (c *Cache) newRelayCtx() *relayCtx {
	ctx := &relayCtx{c: c}
	ctx.fn = func() {
		if ctx.done != nil {
			ctx.done(0, false)
		}
		ctx.done = nil
		ctx.c.relayFree = append(ctx.c.relayFree, ctx)
	}
	return ctx
}

func (c *Cache) getRelayCtx(done func(int64, bool)) *relayCtx {
	n := len(c.relayFree)
	if n == 0 {
		c.relayFree = append(c.relayFree, c.newRelayCtx())
		n = 1
	}
	ctx := c.relayFree[n-1]
	c.relayFree = c.relayFree[:n-1]
	ctx.done = done
	return ctx
}

// Enqueue implements mem.Port, allowing a Cache to back another Cache (the
// multicore's L1 -> L2). A hit returns data "immediately" (Done called
// synchronously with cycle 0 and rowHit true; the L1 model adds the L2 hit
// latency itself). A Retry maps to false, as a full controller queue would.
func (c *Cache) Enqueue(r mem.Request) bool {
	ctx := c.getRelayCtx(r.Done)
	res := c.Access(r.Addr, ctx.fn)
	switch res {
	case Hit:
		ctx.done = nil
		c.relayFree = append(c.relayFree, ctx)
		if r.Done != nil {
			r.Done(0, true)
		}
		return true
	case Miss:
		return true
	default:
		ctx.done = nil
		c.relayFree = append(c.relayFree, ctx)
		return false
	}
}

// Tick implements mem.Port. The cache has no clock of its own — fills
// arrive on the backing's clock — so it is a no-op.
func (c *Cache) Tick() {}

// Idle implements mem.Port: true when no fills are outstanding.
func (c *Cache) Idle() bool { return len(c.mshr) == 0 }
