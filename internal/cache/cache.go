// Package cache implements the resolver-side DNS cache: TTL-honoring
// storage with optional TTL caps/floors (the rewriting §3.4 of the paper
// observes in the wild), RFC 2308 negative caching, RFC 2181 credibility
// ranking (authoritative answers override glue — Appendix A), serve-stale
// (draft-tale-dnsop-serve-stale, §5.3), LRU capacity limits, and cache
// fragmentation: N independent shards emulating a load-balanced resolver
// farm whose backends do not share a cache (§3.5).
package cache

import (
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Rank is the RFC 2181 §5.4.1 credibility of cached data. Higher ranks
// replace lower ones; lower-ranked data never overwrites fresher
// higher-ranked data.
type Rank int

// Credibility ranks, weakest first.
const (
	// RankAdditional covers glue learned from additional sections.
	RankAdditional Rank = iota + 1
	// RankAuthority covers NS sets learned from referral authority
	// sections.
	RankAuthority
	// RankAnswer covers records from the answer section of an
	// authoritative reply.
	RankAnswer
)

// Key identifies a cache entry. Class is implicitly IN.
type Key struct {
	Name string
	Type dnswire.Type
}

// Entry is what Put stores.
type Entry struct {
	// Records are the RRset with the TTLs as received.
	Records []dnswire.RR
	// Rank is the credibility of the data.
	Rank Rank
	// Negative marks an NXDOMAIN or NODATA entry; SOA carries the
	// authority SOA whose Minimum bounds the negative TTL.
	Negative bool
	NXDomain bool
	SOA      dnswire.RR
}

// View is the result of a lookup.
type View struct {
	// Hit reports whether usable data was found.
	Hit bool
	// Stale is set when the data is past its TTL and returned only
	// because serve-stale was requested. Stale records carry TTL 0, as in
	// the serve-stale draft (the paper observed exactly this, §5.3).
	Stale bool
	// Records hold the RRset with TTLs decremented to the remaining
	// lifetime.
	Records  []dnswire.RR
	Rank     Rank
	Negative bool
	NXDomain bool
	SOA      dnswire.RR
	// Age is how long ago the entry was stored.
	Age time.Duration
}

// Config tunes a Cache. The zero value means: unlimited capacity, no TTL
// rewriting, 1 shard, no serve-stale.
type Config struct {
	// Capacity limits entries per shard; <= 0 is unlimited.
	Capacity int
	// MinTTL raises TTLs below it (a floor some resolvers configure).
	MinTTL time.Duration
	// MaxTTL caps TTLs (BIND defaults to 7 d, Unbound to 1 d; EC2's
	// resolver caps at 60 s).
	MaxTTL time.Duration
	// NegTTLCap caps negative TTLs; 0 defaults to the SOA Minimum alone.
	NegTTLCap time.Duration
	// ServeStale allows GetStale to return expired entries.
	ServeStale bool
	// StaleWindow bounds how long past expiry an entry may be served
	// stale; 0 with ServeStale means a 1-hour default.
	StaleWindow time.Duration
	// Shards is the number of independent backend caches; queries carry a
	// shard hint. <= 1 means one shared cache.
	Shards int
}

const defaultStaleWindow = time.Hour

// Cache is a sharded DNS cache. It is not safe for concurrent use; the
// simulation is single-threaded and real-server callers wrap it in a lock.
type Cache struct {
	cfg    Config
	clk    clock.Clock
	shards []shard
	shard0 [1]shard // inline backing for the common single-shard case
	trace  *trace.Buffer
	m      counters
}

// SetTrace enables lookup-outcome tracing (nil disables). Only Get and
// GetStale emit; Peek stays uninstrumented — it serves read-only internal
// scans (zone-server lookups) whose volume would drown the trace.
func (c *Cache) SetTrace(tr *trace.Buffer) { c.trace = tr }

// counters instruments the lookup and store paths. At most one counter is
// touched per call, and hits/stale/negative/misses partition the Get
// outcomes, so hit-rate arithmetic needs no cross-referencing.
type counters struct {
	hits         metrics.Counter // fresh positive Get/GetStale hits
	staleHits    metrics.Counter // expired entries served via serve-stale
	negativeHits metrics.Counter // fresh negative (NXDOMAIN/NODATA) hits
	misses       metrics.Counter // Get/GetStale finding nothing usable
	peekHits     metrics.Counter
	peekMisses   metrics.Counter
	puts         metrics.Counter
	evictions    metrics.Counter // LRU capacity evictions
}

// CollectMetrics folds the cache's counters into a metrics scope.
func (c *Cache) CollectMetrics(s metrics.Scope) {
	s.Add("hits", c.m.hits.Value())
	s.Add("stale_hits", c.m.staleHits.Value())
	s.Add("negative_hits", c.m.negativeHits.Value())
	s.Add("misses", c.m.misses.Value())
	s.Add("peek_hits", c.m.peekHits.Value())
	s.Add("peek_misses", c.m.peekMisses.Value())
	s.Add("puts", c.m.puts.Value())
	s.Add("evictions", c.m.evictions.Value())
}

// shard is a single backend cache. The zero value is empty and ready:
// entries is allocated on first Put, so idle shards stay allocation-free.
// The LRU list is intrusive — cached nodes carry their own prev/next
// links — so a store costs one allocation (the node), not two.
type shard struct {
	entries map[Key]*cached
	// head/tail of the recency list; head = most recent.
	head, tail *cached
	count      int
	// Node arena: fresh nodes come from slab chunks and evicted nodes are
	// recycled through free (linked via next), so a steady-state shard
	// allocates one chunk per slabChunk insertions instead of one node
	// per Put. Capacity (reserved) grows 4 → 8 → 16 → 32 nodes, then
	// slabChunk at a time: most of a population's caches hold a handful.
	slab     []cached
	used     int
	reserved int
	free     *cached
}

// slabChunk is the node-arena growth quantum once the arena is grown.
const slabChunk = 32

func (sh *shard) newNode() *cached {
	if n := sh.free; n != nil {
		sh.free = n.next
		*n = cached{}
		return n
	}
	if sh.used == len(sh.slab) {
		chunk := min(max(sh.reserved, 4), slabChunk)
		sh.slab = make([]cached, chunk)
		sh.used = 0
		sh.reserved += chunk
	}
	n := &sh.slab[sh.used]
	sh.used++
	return n
}

func (sh *shard) freeNode(n *cached) {
	*n = cached{next: sh.free}
	sh.free = n
}

type cached struct {
	key        Key
	entry      Entry
	storedAt   time.Time
	expires    time.Time
	prev, next *cached
}

// moveToFront makes item the most recently used node.
func (sh *shard) moveToFront(item *cached) {
	if sh.head == item {
		return
	}
	sh.unlink(item)
	sh.pushFront(item)
}

func (sh *shard) pushFront(item *cached) {
	item.prev = nil
	item.next = sh.head
	if sh.head != nil {
		sh.head.prev = item
	}
	sh.head = item
	if sh.tail == nil {
		sh.tail = item
	}
	sh.count++
}

func (sh *shard) unlink(item *cached) {
	if item.prev != nil {
		item.prev.next = item.next
	} else {
		sh.head = item.next
	}
	if item.next != nil {
		item.next.prev = item.prev
	} else {
		sh.tail = item.prev
	}
	item.prev, item.next = nil, nil
	sh.count--
}

// New creates a cache on clk with the given configuration. Shards are
// value-typed and lazily initialized: an idle shard (most of a large
// population's caches, most of the time) costs its struct header and
// nothing else until the first Put.
func New(clk clock.Clock, cfg Config) *Cache {
	c := &Cache{}
	c.Init(clk, cfg)
	return c
}

// Init prepares a Cache in place (the embedded-by-value twin of New, for
// callers that arena-allocate the enclosing struct). Single-shard caches
// (the overwhelmingly common shape) use the inline shard0 buffer and
// allocate nothing.
func (c *Cache) Init(clk clock.Clock, cfg Config) {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	*c = Cache{cfg: cfg, clk: clk}
	if n == 1 {
		c.shards = c.shard0[:]
	} else {
		c.shards = make([]shard, n)
	}
}

// Shards returns the number of independent shards.
func (c *Cache) Shards() int { return len(c.shards) }

// shardIndex maps a possibly-negative hint onto [0, n). Negating the hint
// would overflow for math.MinInt (-MinInt == MinInt), so the reduction is
// done with a Euclidean-style modulo instead.
func shardIndex(hint, n int) int {
	i := hint % n
	if i < 0 {
		i += n
	}
	return i
}

func (c *Cache) shard(hint int) *shard {
	return &c.shards[shardIndex(hint, len(c.shards))]
}

// effectiveTTL applies the configured floor/cap to a record TTL.
func (c *Cache) effectiveTTL(ttl time.Duration) time.Duration {
	if c.cfg.MaxTTL > 0 && ttl > c.cfg.MaxTTL {
		ttl = c.cfg.MaxTTL
	}
	if c.cfg.MinTTL > 0 && ttl < c.cfg.MinTTL {
		ttl = c.cfg.MinTTL
	}
	return ttl
}

// Put stores e under key in the hinted shard. Data of lower rank does not
// replace unexpired data of higher rank.
func (c *Cache) Put(key Key, e Entry, shardHint int) {
	key.Name = dnswire.CanonicalName(key.Name)
	sh := c.shard(shardHint)
	if sh.entries == nil {
		sh.entries = make(map[Key]*cached)
	}
	now := c.clk.Now()

	c.m.puts.Inc()
	item, exists := sh.entries[key]
	if exists {
		if item.entry.Rank > e.Rank && item.expires.After(now) {
			return
		}
	}

	var ttl time.Duration
	if e.Negative {
		minimum := time.Duration(0)
		if soa, ok := e.SOA.Data.(dnswire.SOA); ok {
			minimum = time.Duration(soa.Minimum) * time.Second
			if soaTTL := time.Duration(e.SOA.TTL) * time.Second; soaTTL < minimum {
				minimum = soaTTL
			}
		}
		ttl = minimum
		if c.cfg.NegTTLCap > 0 && ttl > c.cfg.NegTTLCap {
			ttl = c.cfg.NegTTLCap
		}
	} else {
		if len(e.Records) == 0 {
			return
		}
		min := time.Duration(e.Records[0].TTL) * time.Second
		for _, rr := range e.Records[1:] {
			if d := time.Duration(rr.TTL) * time.Second; d < min {
				min = d
			}
		}
		ttl = c.effectiveTTL(min)
	}

	if exists {
		// Overwrite the resident struct rather than allocating a fresh one.
		// Callers aliasing the old Records via Peek keep their (now old)
		// slice; only the header in the cache is replaced.
		item.entry, item.storedAt, item.expires = e, now, now.Add(ttl)
		sh.moveToFront(item)
		return
	}
	item = sh.newNode()
	item.key, item.entry, item.storedAt, item.expires = key, e, now, now.Add(ttl)
	sh.entries[key] = item
	sh.pushFront(item)
	if c.cfg.Capacity > 0 {
		for sh.count > c.cfg.Capacity {
			oldest := sh.tail
			sh.unlink(oldest)
			delete(sh.entries, oldest.key)
			sh.freeNode(oldest)
			c.m.evictions.Inc()
		}
	}
}

// Get returns fresh cached data for key from the hinted shard.
func (c *Cache) Get(key Key, shardHint int) View {
	return c.get(key, shardHint, false)
}

// Peek is Get without the per-hit RRset clone: View.Records aliases the
// cache-owned slice with TTLs as stored, not decremented to the remaining
// lifetime. Callers must treat the records as read-only and must not retain
// them past a subsequent Put. Lookup semantics — freshness, canonicalization,
// and the LRU touch — are identical to Get, so switching a read-only call
// site between the two never changes cache behavior.
func (c *Cache) Peek(key Key, shardHint int) View {
	key.Name = dnswire.CanonicalName(key.Name)
	sh := c.shard(shardHint)
	item, ok := sh.entries[key]
	if !ok {
		c.m.peekMisses.Inc()
		return View{}
	}
	now := c.clk.Now()
	if !item.expires.After(now) {
		c.m.peekMisses.Inc()
		return View{}
	}
	c.m.peekHits.Inc()
	sh.moveToFront(item)
	return View{
		Hit:      true,
		Records:  item.entry.Records,
		Rank:     item.entry.Rank,
		Negative: item.entry.Negative,
		NXDomain: item.entry.NXDomain,
		SOA:      item.entry.SOA,
		Age:      now.Sub(item.storedAt),
	}
}

// GetStale is Get but, when the cache is configured for serve-stale, it
// may also return expired data (with TTL 0) within the stale window. Call
// it only after an upstream resolution attempt has failed.
//
// Boundary semantics (pinned by TestStaleWindowBoundary): an entry is
// stale the instant it expires — at now == expires, Get already misses —
// and the stale window is inclusive at its far edge: an entry exactly
// StaleWindow past expiry is still served (the cutoff test is
// `now - expires > window`, strictly greater). One instant later it is
// a miss.
func (c *Cache) GetStale(key Key, shardHint int) View {
	return c.get(key, shardHint, c.cfg.ServeStale)
}

func (c *Cache) get(key Key, shardHint int, allowStale bool) View {
	key.Name = dnswire.CanonicalName(key.Name)
	sh := c.shard(shardHint)
	item, ok := sh.entries[key]
	if !ok {
		c.m.misses.Inc()
		if tr := c.trace; tr != nil {
			tr.Emit(trace.Event{Type: trace.EvCacheMiss,
				Probe: trace.ProbeFromName(key.Name), Name: key.Name, A: uint32(key.Type)})
		}
		return View{}
	}
	now := c.clk.Now()
	remaining := item.expires.Sub(now)
	stale := remaining <= 0
	if stale {
		window := c.cfg.StaleWindow
		if window == 0 {
			window = defaultStaleWindow
		}
		if !allowStale || now.Sub(item.expires) > window {
			c.m.misses.Inc()
			if tr := c.trace; tr != nil {
				tr.Emit(trace.Event{Type: trace.EvCacheExpired,
					Probe: trace.ProbeFromName(key.Name), Name: key.Name, A: uint32(key.Type)})
			}
			return View{}
		}
		remaining = 0
	}
	switch {
	case stale:
		c.m.staleHits.Inc()
	case item.entry.Negative:
		c.m.negativeHits.Inc()
	default:
		c.m.hits.Inc()
	}
	if tr := c.trace; tr != nil {
		t := trace.EvCacheHit
		switch {
		case stale:
			t = trace.EvCacheStale
		case item.entry.Negative:
			t = trace.EvCacheNegHit
		}
		tr.Emit(trace.Event{Type: t,
			Probe: trace.ProbeFromName(key.Name), Name: key.Name, A: uint32(key.Type)})
	}
	sh.moveToFront(item)

	v := View{
		Hit:      true,
		Stale:    stale,
		Rank:     item.entry.Rank,
		Negative: item.entry.Negative,
		NXDomain: item.entry.NXDomain,
		Age:      now.Sub(item.storedAt),
	}
	secs := uint32(remaining / time.Second)
	if len(item.entry.Records) > 0 {
		v.Records = make([]dnswire.RR, len(item.entry.Records))
		copy(v.Records, item.entry.Records)
		for i := range v.Records {
			v.Records[i].TTL = secs
		}
	}
	if item.entry.Negative {
		v.SOA = item.entry.SOA
		v.SOA.TTL = secs
	}
	return v
}

// Flush empties every shard (an operator flush or a resolver restart,
// §3.1).
func (c *Cache) Flush() {
	for i := range c.shards {
		c.shards[i] = shard{}
	}
}

// FlushShard empties a single backend cache.
func (c *Cache) FlushShard(hint int) {
	c.shards[shardIndex(hint, len(c.shards))] = shard{}
}

// Len returns the total number of entries across shards, including expired
// ones not yet evicted.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].count
	}
	return n
}

// Dump returns the fresh entries of the hinted shard, mirroring
// `rndc dumpdb` / `unbound-control dump_cache` (used for the Appendix A
// Listings 3–4 reproduction).
func (c *Cache) Dump(shardHint int) []dnswire.RR {
	sh := c.shard(shardHint)
	now := c.clk.Now()
	var out []dnswire.RR
	for _, item := range sh.entries {
		if !item.expires.After(now) || item.entry.Negative {
			continue
		}
		secs := uint32(item.expires.Sub(now) / time.Second)
		for _, rr := range item.entry.Records {
			rr.TTL = secs
			out = append(out, rr)
		}
	}
	return out
}
