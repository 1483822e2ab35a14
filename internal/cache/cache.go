// Package cache implements the resolver-side DNS cache: TTL-honoring
// storage with optional TTL caps/floors (the rewriting §3.4 of the paper
// observes in the wild), RFC 2308 negative caching, RFC 2181 credibility
// ranking (authoritative answers override glue — Appendix A), serve-stale
// (draft-tale-dnsop-serve-stale, §5.3), LRU capacity limits, and cache
// fragmentation: N independent shards emulating a load-balanced resolver
// farm whose backends do not share a cache (§3.5).
package cache

import (
	"hash/maphash"
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Rank is the RFC 2181 §5.4.1 credibility of cached data. Higher ranks
// replace lower ones; lower-ranked data never overwrites fresher
// higher-ranked data.
type Rank uint8

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

// Entry is what Put stores. Put copies the records and the SOA it keeps:
// the caller may reuse Records as soon as Put returns.
type Entry struct {
	// Records are the RRset with the TTLs as received.
	Records []dnswire.RR
	// Rank is the credibility of the data.
	Rank Rank
	// Negative marks an NXDOMAIN or NODATA entry; SOA carries the
	// authority SOA whose Minimum bounds the negative TTL. Only negative
	// entries keep their SOA.
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
	// Records hold the RRset: from Get and GetStale a copy with TTLs
	// decremented to the remaining lifetime; from Peek and Lookup the
	// cache's own set, TTLs as stored.
	Records  []dnswire.RR
	Rank     Rank
	Negative bool
	NXDomain bool
	SOA      dnswire.RR
	// Age is how long ago the entry was stored.
	Age time.Duration
	// TTL is the remaining lifetime in whole seconds (0 when Stale): the
	// TTL Get writes into each record it returns.
	TTL uint32
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
	cfg Config
	clk clock.Clock
	// epoch is the clock reading at Init: stored and expiry times are
	// nanosecond offsets from it (clk.Now().Sub(epoch), so a real clock's
	// monotonic reading is what they measure).
	epoch time.Time
	// seed keys the bucket hash: recursived hashes names its clients
	// choose, so chain placement must not be predictable.
	seed   maphash.Seed
	shards []shard
	shard0 [1]shard // inline backing for the common single-shard case
	// arena supplies the nodes: the one UseArena set, else the cache's
	// own, made on first Put.
	arena *Arena
	trace *trace.Buffer
	m     counters
}

// UseArena makes the cache take its nodes from a, which it shares with
// every other cache on a.
func (c *Cache) UseArena(a *Arena) { c.arena = a }

// SetTrace enables lookup-outcome tracing (nil disables). Only Get,
// GetStale and Lookup emit; Peek stays uninstrumented — it serves
// read-only internal scans (zone-server lookups) whose volume would drown
// the trace.
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

// cached is one entry, and the only per-entry object: it carries its key,
// its data, its LRU links and its hash-chain link. A one-record set — the
// common shape — lives in one; so does a negative entry's SOA. A positive
// set of two or more records, or a negative entry's records, is the owned
// slice many. 128 bytes on 64-bit platforms.
type cached struct {
	name            string
	one             [1]dnswire.RR
	many            []dnswire.RR
	stored, expires int64 // nanoseconds since Cache.epoch
	prev, next      *cached
	hnext           *cached // next node in the same bucket
	hash            uint32
	typ             dnswire.Type
	rank            Rank
	flags           uint8
}

const (
	flagNegative uint8 = 1 << iota
	flagNXDomain
)

func (n *cached) negative() bool { return n.flags&flagNegative != 0 }

// records is the cached set (nil for a negative entry without records).
func (n *cached) records() []dnswire.RR {
	if n.many != nil || n.negative() {
		return n.many
	}
	return n.one[:]
}

// set stores e's data in n, reusing n's own storage: a one-record set is
// rewritten in place, and a longer set reuses the slice it replaces when
// that is large enough.
func (n *cached) set(e *Entry, now, ttl int64) {
	n.rank, n.stored, n.expires = e.Rank, now, now+ttl
	n.flags, n.one[0] = 0, dnswire.RR{}
	rrs := e.Records
	switch {
	case e.Negative:
		n.flags, n.one[0] = flagNegative, e.SOA
		if e.NXDomain {
			n.flags |= flagNXDomain
		}
	case len(rrs) == 1:
		n.one[0], n.many = rrs[0], nil
		return
	}
	if len(rrs) == 0 {
		n.many = nil
		return
	}
	n.many = append(n.many[:0], rrs...)
}

// shard is a single backend cache: an intrusive hash table and LRU list
// over nodes taken from its cache's arena. The zero value is empty and
// ready; the bucket array is allocated on first Put, so idle shards stay
// allocation-free.
type shard struct {
	// buckets is a power-of-two table of hash chains (linked through
	// hnext), grown so it holds at most one node per bucket on average.
	// Chain order never decides a lookup: the key does.
	buckets []*cached
	// head/tail of the recency list; head = most recent.
	head, tail *cached
	count      int
}

// Arena is the node store of a set of caches: a cell's resolvers share
// one, so a population of small caches reserves no per-cache slack. Fresh
// nodes are carved from chunks of arenaChunk, and a node a cache drops
// (eviction, Flush, FlushShard) goes on the free list for the next Put of
// any cache on the arena. The zero value is ready. Like the caches, an
// arena is not safe for concurrent use.
type Arena struct {
	chunk []cached // the current chunk's unused nodes
	free  *cached  // dropped nodes, linked through next
}

// arenaChunk is how many nodes an arena allocates at once: 63 nodes and
// the allocator's 8-byte header of a pointerful object fill its 8 KiB
// size class, where 64 would spill into the 9 472-byte one.
const arenaChunk = 63

func (a *Arena) node() *cached {
	if n := a.free; n != nil {
		a.free, n.next = n.next, nil
		return n
	}
	if len(a.chunk) == 0 {
		a.chunk = make([]cached, arenaChunk)
	}
	n := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return n
}

func (a *Arena) drop(n *cached) {
	*n = cached{next: a.free}
	a.free = n
}

// find returns the node for (name, typ) with hash h, or nil.
func (sh *shard) find(name string, typ dnswire.Type, h uint32) *cached {
	if len(sh.buckets) == 0 {
		return nil
	}
	for n := sh.buckets[h&uint32(len(sh.buckets)-1)]; n != nil; n = n.hnext {
		if n.hash == h && n.typ == typ && n.name == name {
			return n
		}
	}
	return nil
}

// insert links a node that is not yet in the table into its bucket,
// doubling the table first when it is full.
func (sh *shard) insert(n *cached) {
	if sh.count >= len(sh.buckets) {
		sh.grow()
	}
	b := &sh.buckets[n.hash&uint32(len(sh.buckets)-1)]
	n.hnext, *b = *b, n
}

func (sh *shard) grow() {
	sh.buckets = make([]*cached, max(4, 2*len(sh.buckets)))
	mask := uint32(len(sh.buckets) - 1)
	for n := sh.head; n != nil; n = n.next {
		b := &sh.buckets[n.hash&mask]
		n.hnext, *b = *b, n
	}
}

// remove unlinks n from its bucket's chain.
func (sh *shard) remove(n *cached) {
	p := &sh.buckets[n.hash&uint32(len(sh.buckets)-1)]
	for *p != n {
		p = &(*p).hnext
	}
	*p, n.hnext = n.hnext, nil
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
	*c = Cache{cfg: cfg, clk: clk, epoch: clk.Now(), seed: maphash.MakeSeed()}
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

// now is the clock's reading as an offset from the epoch.
func (c *Cache) now() int64 { return int64(c.clk.Now().Sub(c.epoch)) }

// hash places a canonical key in a bucket. The type is folded in with an
// odd multiplier so a name's several types spread over the low bits.
func (c *Cache) hash(name string, typ dnswire.Type) uint32 {
	return uint32(maphash.String(c.seed, name)) ^ uint32(typ)*0x9e3779b9
}

// lookup canonicalizes key and returns its shard and node (nil if absent).
func (c *Cache) lookup(key *Key, shardHint int) (*shard, *cached) {
	key.Name = dnswire.CanonicalName(key.Name)
	sh := c.shard(shardHint)
	return sh, sh.find(key.Name, key.Type, c.hash(key.Name, key.Type))
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

// Put stores a copy of e under key in the hinted shard. Data of lower
// rank does not replace unexpired data of higher rank. Views returned by
// Peek and Lookup for the key are valid until the next Put or Flush: an
// overwrite rewrites the stored set in place.
func (c *Cache) Put(key Key, e Entry, shardHint int) {
	key.Name = dnswire.CanonicalName(key.Name)
	sh := c.shard(shardHint)
	h := c.hash(key.Name, key.Type)
	now := c.now()

	c.m.puts.Inc()
	item := sh.find(key.Name, key.Type, h)
	if item != nil && item.rank > e.Rank && item.expires > now {
		return
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

	if item != nil {
		item.set(&e, now, int64(ttl))
		sh.moveToFront(item)
		return
	}
	if c.arena == nil {
		c.arena = new(Arena)
	}
	item = c.arena.node()
	item.name, item.typ, item.hash = key.Name, key.Type, h
	item.set(&e, now, int64(ttl))
	sh.insert(item)
	sh.pushFront(item)
	if c.cfg.Capacity > 0 {
		for sh.count > c.cfg.Capacity {
			oldest := sh.tail
			sh.unlink(oldest)
			sh.remove(oldest)
			c.arena.drop(oldest)
			c.m.evictions.Inc()
		}
	}
}

// Get returns fresh cached data for key from the hinted shard.
func (c *Cache) Get(key Key, shardHint int) View {
	return c.get(key, shardHint, false, true)
}

// Peek is a lookup without the per-hit RRset clone and without the
// Get counters and trace events (it counts peek hits and misses):
// View.Records aliases the cache-owned set with TTLs as stored, not
// decremented to the remaining lifetime, and is valid until the next Put.
// Freshness, canonicalization and the LRU touch are Get's, so switching a
// read-only call site between the two never changes cache behavior.
func (c *Cache) Peek(key Key, shardHint int) View {
	sh, item := c.lookup(&key, shardHint)
	if item == nil {
		c.m.peekMisses.Inc()
		return View{}
	}
	now := c.now()
	if item.expires <= now {
		c.m.peekMisses.Inc()
		return View{}
	}
	c.m.peekHits.Inc()
	sh.moveToFront(item)
	v := view(item, now)
	v.TTL = uint32(time.Duration(item.expires-now) / time.Second)
	return v
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
	return c.get(key, shardHint, true, true)
}

// Lookup is Get (stale false) or GetStale (stale true) without the
// per-hit clone: the same counters, trace events and LRU touch, but
// View.Records is the cache's own set with TTLs as stored, valid until the
// next Put. View.TTL is the remaining lifetime a clone would carry; the
// SOA of a negative entry already carries it.
func (c *Cache) Lookup(key Key, shardHint int, stale bool) View {
	return c.get(key, shardHint, stale, false)
}

// get is Lookup, and with clone Get/GetStale: the records are copied out,
// each carrying the remaining lifetime.
func (c *Cache) get(key Key, shardHint int, stale, clone bool) View {
	sh, item := c.lookup(&key, shardHint)
	if item == nil {
		c.m.misses.Inc()
		if c.trace != nil {
			c.emit(trace.EvCacheMiss, key)
		}
		return View{}
	}
	now := c.now()
	remaining := time.Duration(item.expires - now)
	expired := remaining <= 0
	if expired {
		window := c.cfg.StaleWindow
		if window == 0 {
			window = defaultStaleWindow
		}
		if !stale || !c.cfg.ServeStale || time.Duration(now-item.expires) > window {
			c.m.misses.Inc()
			if c.trace != nil {
				c.emit(trace.EvCacheExpired, key)
			}
			return View{}
		}
		remaining = 0
	}
	event := trace.EvCacheHit
	switch {
	case expired:
		c.m.staleHits.Inc()
		event = trace.EvCacheStale
	case item.negative():
		c.m.negativeHits.Inc()
		event = trace.EvCacheNegHit
	default:
		c.m.hits.Inc()
	}
	if c.trace != nil {
		c.emit(event, key)
	}
	sh.moveToFront(item)

	v := view(item, now)
	v.Stale = expired
	v.TTL = uint32(remaining / time.Second)
	if v.Negative {
		v.SOA.TTL = v.TTL
	}
	if clone && v.Records != nil {
		rrs := make([]dnswire.RR, len(v.Records))
		copy(rrs, v.Records)
		for i := range rrs {
			rrs[i].TTL = v.TTL
		}
		v.Records = rrs
	}
	return v
}

// emit records a lookup outcome; callers check that tracing is on.
func (c *Cache) emit(t trace.Type, key Key) {
	c.trace.Emit(trace.Event{Type: t,
		Probe: trace.ProbeFromName(key.Name), Name: key.Name, A: uint32(key.Type)})
}

// view describes a live node; Records alias its set.
func view(item *cached, now int64) View {
	v := View{
		Hit:      true,
		Records:  item.records(),
		Rank:     item.rank,
		Negative: item.negative(),
		NXDomain: item.flags&flagNXDomain != 0,
		Age:      time.Duration(now - item.stored),
	}
	if v.Negative {
		v.SOA = item.one[0]
	}
	return v
}

// Flush empties every shard (an operator flush or a resolver restart,
// §3.1).
func (c *Cache) Flush() {
	for i := range c.shards {
		c.empty(&c.shards[i])
	}
}

// FlushShard empties a single backend cache.
func (c *Cache) FlushShard(hint int) { c.empty(c.shard(hint)) }

// empty returns sh's nodes to the arena and clears its buckets, which it
// keeps for the refill.
func (c *Cache) empty(sh *shard) {
	for n := sh.head; n != nil; {
		next := n.next
		c.arena.drop(n)
		n = next
	}
	clear(sh.buckets)
	sh.head, sh.tail, sh.count = nil, nil, 0
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

// Dump returns the fresh positive entries of the hinted shard, most
// recently used first, mirroring `rndc dumpdb` / `unbound-control
// dump_cache` (used for the Appendix A Listings 3–4 reproduction).
func (c *Cache) Dump(shardHint int) []dnswire.RR {
	sh := c.shard(shardHint)
	now := c.now()
	var out []dnswire.RR
	for item := sh.head; item != nil; item = item.next {
		if item.expires <= now || item.negative() {
			continue
		}
		secs := uint32(time.Duration(item.expires-now) / time.Second)
		for _, rr := range item.records() {
			rr.TTL = secs
			out = append(out, rr)
		}
	}
	return out
}
