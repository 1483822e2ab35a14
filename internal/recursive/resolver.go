// Package recursive implements a caching recursive DNS resolver engine.
//
// The engine supports the two deployment shapes the paper studies:
//
//   - Iterative mode: full resolution from root hints, chasing referrals
//     and CNAMEs, with per-server SRTT tracking, retries with exponential
//     backoff, a bounded work budget per client query, RFC 2308 negative
//     caching, RFC 2181 credibility ranking, and optional serve-stale
//     (§5.3 of the paper).
//
//   - Forwarding mode: a first-level recursive (R1 in the paper's Figure 1)
//     that relays queries to one or more upstream resolvers (Rn), retrying
//     across them on failure — the behavior that amplifies legitimate
//     traffic during DDoS (§6.2, Figure 11/12).
//
// The engine is event-driven against clock.Clock and netsim.Conn, so the
// same code runs inside the deterministic simulation and on real UDP
// sockets (cmd/recursived).
package recursive

import (
	"encoding/binary"
	"math/rand"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/lazyrand"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// ServerHint names a root (or forwarder) server.
type ServerHint struct {
	Name string
	Addr netsim.Addr
}

// HarvestMode selects how eagerly a resolver re-fetches a delegated
// zone's nameserver records (§6.2: part of why implementations differ in
// their query mix).
type HarvestMode int

const (
	// HarvestNone never issues background NS-record fetches (BIND-like).
	HarvestNone HarvestMode = iota
	// HarvestAAAA fetches only the missing AAAA records of a zone's
	// nameservers (the Unbound behavior Appendix E measures: its extra
	// queries over BIND are AAAA-for-NS lookups).
	HarvestAAAA
	// HarvestFull re-fetches the NS set and both address types whenever
	// the cached copies are not authoritatively confirmed, replacing glue
	// with child data (Appendix A) and producing the full Figure 10 mix.
	HarvestFull
)

// Fixed resolver limits: every deployment the simulator models shares them.
const (
	// maxTimeout caps the per-upstream-query timeout as it doubles.
	maxTimeout = 3 * time.Second
	// maxCNAME bounds alias chains.
	maxCNAME = 8
	// maxDepth bounds nested NS-address resolutions.
	maxDepth = 3
	// staleAnswerDelay is how long a serve-stale resolver keeps trying
	// upstream before answering the client with expired data (the
	// draft's client-response timer, ~1.8 s). The refresh continues in
	// the background.
	staleAnswerDelay = 1800 * time.Millisecond
)

// Config is the behaviour of a Resolver. New takes it with its defaults
// applied (a Profile row, or WithDefaults) and only reads it, so one value
// serves every resolver of a kind.
type Config struct {
	// Cache configures the resolver cache (TTL caps, shards, capacity).
	// Its ServeStale is ignored: the resolver's ServeStale sets it.
	Cache cache.Config
	// RootHints seed iterative resolution. Required unless forwarding.
	RootHints []ServerHint
	// Forwarders, when non-empty, puts the resolver in forwarding mode.
	Forwarders []netsim.Addr
	// NoCache disables caching entirely (a pass-through R1, one of the
	// cache-miss causes in §3.5).
	NoCache bool

	// InitialTimeout is the first per-upstream-query timeout: secDNS's
	// per-exchange `timeout`. It doubles each time the candidate server
	// list has been exhausted (each retry *round*, not each attempt), up
	// to maxTimeout (3 s), so every server in a round is probed with the
	// same deadline. A forwarder starts at twice it, since its upstream
	// resolves in full. Default 750 ms.
	InitialTimeout time.Duration
	// MaxAttempts bounds upstream tries per fetch, across servers: the
	// product of secDNS's per-server `retries` and the servers it walks.
	// Default 7, matching the ~6-7 retries prior work and §6.2 observe
	// when authoritatives are dead.
	MaxAttempts int
	// WorkBudget bounds total upstream queries spawned by one client
	// query, including NS-address harvesting: the bound secDNS's
	// `maxReferrals` puts on one resolution's descent. Default 40.
	WorkBudget int
	// ClientTimeout is the deadline after which a client query is
	// answered SERVFAIL (or stale). Default 8 s.
	ClientTimeout time.Duration
	// ServeStale enables answering with expired cache entries (TTL 0)
	// when resolution fails, per draft-tale-dnsop-serve-stale.
	ServeStale bool
	// Prefetch, when positive, refreshes a cache entry in the background
	// whenever a hit finds less than this fraction of the original TTL
	// remaining (Unbound's prefetch uses 0.1). Prefetching keeps popular
	// names continuously cached, which extends DDoS protection past one
	// TTL — an extension experiment beyond the paper. 0 disables.
	Prefetch float64
	// TrustAnchors enables DNSSEC validation: upstream queries carry the
	// EDNS0 DO bit, and answers from any zone listed here must carry an
	// RRSIG that verifies against the anchored DNSKEY (simplified
	// validation: per-zone anchors instead of DS-chain chasing; no
	// authenticated denial). Bogus answers become SERVFAIL, as validating
	// resolvers do.
	TrustAnchors map[string]dnswire.DNSKEY
	// Harvest controls background fetching of a newly learned zone's
	// NS / A-for-NS / AAAA-for-NS records, the behavior that produces the
	// paper's Figure 10 query mix at the authoritatives.
	Harvest HarvestMode
	// ExplorationProb is the probability of querying a random candidate
	// server instead of the lowest-SRTT one, modeling the "recursives
	// query all authoritatives over time" behavior of [27]: where secDNS
	// tries the `probeTopN` best servers by EWMA RTT, this resolver
	// mostly takes the best and sometimes any. 1 is a load balancer's
	// uniform choice. Default 0.25.
	ExplorationProb float64
	// AnswerFromReferral lets cached referral data (NS sets and glue
	// learned from parent-side responses, credibility below RankAnswer)
	// be returned directly to clients. Standards-conforming resolvers do
	// not do this (RFC 2181 §5.4.1); the paper's Appendix A finds a small
	// minority of deployed resolvers that answer with the parent's TTL,
	// which this flag models.
	AnswerFromReferral bool
	// MaxFetch caps how many of a glueless referral's NS hosts the
	// resolver will try to resolve addresses for — the NXNSAttack
	// "Max Fetch(k)" mitigation (Afek et al.; see internal/adversary).
	// 0 leaves the fan-out bounded only by WorkBudget and maxDepth.
	MaxFetch int
	// RandomIDs draws upstream query IDs uniformly from the full 16-bit
	// space (seeded by Seed) instead of the sequential counter.
	// Sequential IDs are trivially predictable by an off-path spoofer;
	// this knob is the ID-entropy axis of the poisoning experiments.
	RandomIDs bool
	// NoBailiwick disables the bailiwick credibility check on
	// authority/additional-section records, modeling a pre-hardening
	// resolver for the adversary experiments. Never enable it outside
	// experiments: it admits Kaminsky-style poisoning by design.
	NoBailiwick bool
	// EDNSSize, when non-zero, advertises this EDNS0 UDP payload size on
	// upstream queries (RFC 6891), raising the truncation threshold at
	// the authoritatives above the classic 512 octets. Zero sends no OPT
	// record unless DNSSEC validation needs one (TrustAnchors, which
	// advertises 4096).
	EDNSSize uint16
	// TCPFallback retries a TC=1 upstream response over the simulated
	// TCP plane against the same server (RFC 7766) instead of rotating
	// to the next candidate. Requires a TCP transport (Attach binds one).
	TCPFallback bool
	ready       bool // set by WithDefaults: the form New takes
	// Seed seeds the resolver NewResolver builds. New takes its seed as
	// an argument and ignores this field, so a shared Config holds
	// behaviour only.
	Seed int64
}

// WithDefaults returns c with every zero field that has a default filled
// in: the form New takes.
func (c Config) WithDefaults() Config {
	if c.InitialTimeout == 0 {
		c.InitialTimeout = 750 * time.Millisecond
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 7
	}
	if c.WorkBudget == 0 {
		c.WorkBudget = 40
	}
	if c.ClientTimeout == 0 {
		c.ClientTimeout = 8 * time.Second
	}
	if c.ExplorationProb == 0 {
		c.ExplorationProb = 0.25
	}
	c.ready = true
	return c
}

// Stats is a point-in-time snapshot of the resolver's counters.
type Stats struct {
	ClientQueries   int64
	ClientResponses int64
	CacheHits       int64
	CacheMisses     int64
	NegativeHits    int64
	StaleServes     int64
	// LateAnswers counts upstream responses that arrived after the client
	// was already answered (stale serve or timeout) and were absorbed into
	// the cache — the serve-stale refresh completing late.
	LateAnswers     int64
	UpstreamQueries int64
	UpstreamRetries int64
	Timeouts        int64
	ServFails       int64
	Lame            int64
	Bogus           int64
	// Truncated counts TC=1 responses received from upstreams (each one
	// either retried over TCP or rotated past, never consumed as data).
	Truncated int64
	// ClientTruncated counts responses this resolver truncated to fit a
	// client's advertised UDP size when serving.
	ClientTruncated int64
}

// Result is the outcome of a Resolve call.
type Result struct {
	RCode   dnswire.RCode
	Answers []dnswire.RR
	SOA     dnswire.RR // present on negative answers
	// Stale marks answers served from expired cache entries.
	Stale bool
	// FromCache reports that no upstream query was needed.
	FromCache bool
	// ServFail is true when resolution failed outright.
	ServFail bool
}

// Resolver is a caching recursive resolver bound to one network address.
// It holds what differs from its kind: its behaviour is a shared Config it
// never writes, and its per-key state (in-flight queries, coalesced jobs,
// SRTTs, harvest times) lives in its working set's maps under its rid.
type Resolver struct {
	clk   clock.Clock
	cfg   *Config
	cache cache.Cache
	rng   *rand.Rand
	conn  netsim.Conn
	// port backs conn once attached, so binding allocates no port.
	port netsim.Port
	// tcpConn is the TCP-plane transport (nil when unbound): TC=1
	// fallback retries go out on it, and clients reached over it are
	// answered without the UDP size limit.
	tcpConn netsim.Conn

	nextID uint16
	// rid keys this resolver's entries in its working set's maps, and
	// inflight counts its entries in ws.inflight.
	rid      uint32
	inflight int32
	// ws is the working set this resolver borrows (see work); retired
	// holds the jobs retired during the depth dispatches in progress, and
	// jobsOut counts jobs out (neither back nor pinned).
	ws             *workingSet
	retired        *clientJob
	depth, jobsOut int
	// trace and timeline are the cell's observers, read from the network
	// at Attach; n is the live counter per event kind (see event.go).
	trace    *trace.Buffer
	timeline *timeline.Timeline
	n        [numKinds]metrics.Counter
	// upstreamRTTms observes every upstream round-trip sample, in
	// milliseconds (the same samples that feed SRTT selection).
	upstreamRTTms metrics.Histogram
}

// workingSet is the decode and encode scratch, the free lists and the
// per-key state of every resolver on one network (netsim.Shared). The
// network's engines run one dispatch at a time, no scratch contents
// survive a dispatch, and a node goes back to a free list only under
// putOQ's rule, which holds whichever resolver takes it next. It is the
// only place the package declares dnswire.Message fields (make obs-guard).
type workingSet struct {
	// upMsg is the decode target for upstream responses read off a real
	// socket (Receive). Response processing never retains the message or
	// its section slices (data that outlives the dispatch — cache sets,
	// Result answers — is always copied).
	upMsg dnswire.Message
	// cqMsg is the decode target for client queries read off a real
	// socket, and at answer time the scratch each waiter's query is
	// rebuilt in (see waiter).
	cqMsg dnswire.Message
	// qMsg and respMsg are the messages sent (upstream queries and client
	// responses), handed over before the dispatch returns and never
	// retained (Conn.SendMsg copies); packBuf is where an over-the-bound
	// response is packed to measure it.
	qMsg    dnswire.Message
	respMsg dnswire.Message
	packBuf []byte
	// rrScratch, nsScratch, setScratch and keyScratch serve the
	// response-processing path (cacheAuthorityAndGlue and answerBuf,
	// referralNS, and cacheRRs's sets and keys).
	rrScratch  []dnswire.RR
	nsScratch  []dnswire.RR
	setScratch []dnswire.RR
	keyScratch []cache.Key
	// The free lists and their lengths (see putOQ).
	oqFree            *outquery
	jobFree           *clientJob
	oqFreeN, jobFreeN int
	// arena holds the nodes of every attached resolver's cache.
	arena cache.Arena

	// The resolvers' per-key state, each key led by the owner's rid
	// (rids counts those handed out); each map is made on first use.
	// inflight holds upstream queries awaiting an answer (rid<<16 | ID),
	// coalesce the client jobs identical queries join, srtt the smoothed
	// RTT per server, and harvests the last NS harvest per zone, in
	// nanoseconds since epoch, the clock reading when the map was made.
	// srtt and harvests key by rid<<32 | n, where ids numbers the server
	// addresses and zone names from 1 (see key).
	rids     uint32
	inflight map[uint64]*outquery
	coalesce map[coalesceKey]*clientJob
	ids      map[string]uint32
	srtt     map[uint64]time.Duration
	harvests map[uint64]int64
	epoch    time.Time
}

type coalesceKey struct {
	name  string
	qtype dnswire.Type
	rid   uint32
	shard int
}

// join makes r one of the working set's resolvers.
func (r *Resolver) join(ws *workingSet) {
	ws.rids++
	r.ws, r.rid = ws, ws.rids
}

// work returns the resolver's working set: the network's, from Attach,
// or for a resolver that never attached (SetConn, a bare Resolve) its own,
// made on first use.
func (r *Resolver) work() *workingSet {
	if r.ws == nil {
		r.join(new(workingSet))
	}
	return r.ws
}

// forwarding reports whether r relays to its forwarders instead of
// iterating from the root.
func (r *Resolver) forwarding() bool { return len(r.cfg.Forwarders) > 0 }

// key is r's key for the server address or zone name s in ws.srtt and
// ws.harvests, numbering s on first use.
func (r *Resolver) key(s string) uint64 {
	ws := r.work()
	n, ok := ws.ids[s]
	if !ok {
		if ws.ids == nil {
			ws.ids = make(map[string]uint32)
		}
		n = uint32(len(ws.ids)) + 1
		ws.ids[s] = n
	}
	return uint64(r.rid)<<32 | uint64(n)
}

// oqKey is r's key for query id in ws.inflight.
func (r *Resolver) oqKey(id uint16) uint64 { return uint64(r.rid)<<16 | uint64(id) }

// New creates a resolver on clk that runs cfg, its random choices seeded
// by seed. cfg has its defaults applied (a Profile row, or WithDefaults);
// the resolver only reads it, so every resolver of a kind may share one.
// Call Attach (or SetConn) before resolving.
func New(clk clock.Clock, cfg *Config, seed int64) *Resolver {
	r := new(Resolver)
	r.init(clk, cfg, seed)
	return r
}

// NewResolver is New for a one-off Config: the resolver carries its own
// copy, defaults applied, in the same allocation, seeded by cfg.Seed.
func NewResolver(clk clock.Clock, cfg Config) *Resolver {
	own := &struct {
		Resolver
		cfg Config
	}{cfg: cfg.WithDefaults()}
	own.init(clk, &own.cfg, cfg.Seed)
	return &own.Resolver
}

func (r *Resolver) init(clk clock.Clock, cfg *Config, seed int64) {
	if !cfg.ready {
		panic("recursive: New needs a Config with its defaults applied (Profile or WithDefaults)")
	}
	// The RTT histogram and the per-key state in the working set are
	// made on first use: a large population builds thousands of
	// resolvers per cell but exercises only the handful its probes query,
	// so an idle resolver must cost a couple of allocations, not dozens.
	r.clk, r.cfg, r.rng = clk, cfg, lazyrand.New(seed)
	cc := cfg.Cache
	cc.ServeStale = cfg.ServeStale
	r.cache.Init(clk, cc)
	r.upstreamRTTms.Init(metrics.DefaultLatencyBucketsMs) // aliases shared bounds; no allocation
}

// Cache exposes the resolver cache (tests and the Appendix A cache-dump
// reproduction use it).
func (r *Resolver) Cache() *cache.Cache { return &r.cache }

// Stats returns a snapshot of the counters.
func (r *Resolver) Stats() Stats {
	n := func(k kind) int64 { return r.n[k].Value() }
	return Stats{
		ClientQueries:   n(kClientQuery),
		ClientResponses: n(kClientResponse),
		CacheHits:       n(kCacheHit),
		CacheMisses:     n(kCacheMiss),
		NegativeHits:    n(kNegativeHit),
		StaleServes:     n(kStaleServe),
		LateAnswers:     n(kLateAnswer),
		UpstreamQueries: n(kUpstreamQuery),
		UpstreamRetries: n(kUpstreamRetry),
		Timeouts:        n(kTimeout),
		ServFails:       n(kServFail),
		Lame:            n(kLame),
		Bogus:           n(kBogus),
		Truncated:       n(kTruncated),
		ClientTruncated: n(kClientTruncated),
	}
}

// Addr returns the resolver's bound address, or "" before Attach.
func (r *Resolver) Addr() netsim.Addr {
	if r.conn == nil {
		return ""
	}
	return r.conn.Addr()
}

// SetConn binds the resolver to an existing transport.
func (r *Resolver) SetConn(conn netsim.Conn) { r.conn = conn }

// Attach binds the resolver at addr on the simulated network; with
// Config.TCPFallback armed it binds the TCP plane too, so TC=1 fallback
// and TCP clients work out of the box. The UDP-only default keeps
// Attach allocation-parity with the pre-TCP engine on benchmark hot
// paths. Inbound packets are dispatched to the client-serving or
// upstream-response paths by the QR bit. The resolver (and its cache)
// inherit the network's observers, and the resolver its working set.
func (r *Resolver) Attach(net *netsim.Network, addr netsim.Addr) {
	r.trace, r.timeline = net.Trace(), net.Timeline()
	r.join(netsim.Shared[workingSet](net))
	r.cache.UseArena(&r.ws.arena)
	r.cache.SetTrace(r.trace)
	r.port = net.BindHost(addr, r)
	r.conn = &r.port
	if r.cfg.TCPFallback {
		r.tcpConn = net.BindTCP(addr, r.deliverTCP)
	}
}

// headerLen is the fixed DNS header size; anything shorter cannot carry
// a QR bit, let alone a message.
const headerLen = 12

// Deliver is the simulated network's entry point (netsim.Host).
func (r *Resolver) Deliver(src netsim.Addr, m *dnswire.Message) { r.dispatch(src, m, false) }

// deliverTCP is Deliver for the TCP plane. Responses route to the same
// in-flight table (query IDs are transport-agnostic); client queries are
// answered over TCP without the UDP size limit.
func (r *Resolver) deliverTCP(src netsim.Addr, m *dnswire.Message) { r.dispatch(src, m, true) }

// Receive is the real-socket entry point (udprun.Conn.Serve): it decodes
// payload into the scratch message of its direction, a response only
// when its ID has a query in flight, so a late answer costs no decode
// and a malformed one leaves its query in flight.
func (r *Resolver) Receive(src netsim.Addr, payload []byte) {
	if len(payload) < headerLen {
		return
	}
	m := &r.work().cqMsg
	if payload[2]&0x80 != 0 {
		if r.outqueryOf(binary.BigEndian.Uint16(payload)) == nil {
			return // late or spoofed; ignore
		}
		m = &r.ws.upMsg
	}
	if dnswire.UnpackInto(m, payload) == nil {
		r.dispatch(src, m, false)
	}
}

// dispatch routes m on its QR bit.
func (r *Resolver) dispatch(src netsim.Addr, m *dnswire.Message, tcp bool) {
	r.depth++
	if m.Response {
		r.handleUpstream(m)
	} else {
		r.serveClient(src, m, tcp)
	}
	r.leave()
}

// leave ends a dispatch (a packet, a timer callback or a Resolve call);
// the outermost one clears the jobs retired meanwhile onto the free list.
// A job keeps its server buffer, emptied, so the next miss with a long
// candidate list (a forwarder's upstreams) does not grow another.
func (r *Resolver) leave() {
	if r.depth--; r.depth > 0 {
		return
	}
	ws := r.work()
	for j := r.retired; j != nil; {
		next := j.next
		servers := j.servers[:cap(j.servers)]
		clear(servers)
		*j = clientJob{}
		if cap(servers) > len(j.servers0) {
			j.servers = servers[:0]
		}
		if ws.jobFreeN < maxFree {
			j.next, ws.jobFree = ws.jobFree, j
			ws.jobFreeN++
		}
		r.jobsOut--
		j = next
	}
	r.retired = nil
}

// allocID returns a nonzero message ID not currently in flight, or false
// when all 65 535 are (an upstream black-holing a flood), so the caller
// moves on instead of searching forever.
func (r *Resolver) allocID() (uint16, bool) {
	if r.inflight >= 1<<16-1 {
		return 0, false
	}
	inflight := r.work().inflight
	if r.cfg.RandomIDs {
		// Full 16-bit entropy: the defense the poisoning experiments
		// measure. Re-draw on the rare collision with an in-flight ID.
		rng := r.rng
		for {
			id := uint16(rng.Intn(1 << 16))
			if _, busy := inflight[r.oqKey(id)]; !busy && id != 0 {
				return id, true
			}
		}
	}
	for {
		r.nextID++
		if _, busy := inflight[r.oqKey(r.nextID)]; !busy && r.nextID != 0 {
			return r.nextID, true
		}
	}
}

// outqueryOf returns r's in-flight query with the given ID, nil if none.
func (r *Resolver) outqueryOf(id uint16) *outquery { return r.work().inflight[r.oqKey(id)] }

// landed takes oq out of flight.
func (r *Resolver) landed(oq *outquery) {
	delete(r.ws.inflight, r.oqKey(oq.id))
	r.inflight--
}

// outquery is one upstream query awaiting a response or timeout. Nodes
// are pooled on the working set (see getOQ/putOQ): the continuation is the
// owning task instead of per-send closures, so a query burst allocates
// nothing after the first rotation.
type outquery struct {
	id     uint16
	tcp    bool // sent over the TCP plane (a TC=1 fallback retry)
	server netsim.Addr
	sentAt time.Time
	timer  clock.TimerRef
	t      *task
	next   *outquery // freelist link
}

func (r *Resolver) getOQ() *outquery {
	ws := r.work()
	if oq := ws.oqFree; oq != nil {
		ws.oqFree = oq.next
		ws.oqFreeN--
		oq.next = nil
		return oq
	}
	return new(outquery)
}

// maxFree caps each free list of a working set: a flood's peak goes back
// to the GC.
const maxFree = 64

// putOQ retires a node and drops its reference on its task. The recycle
// rule, for this list, the working set's jobs and every other free list on a
// cell's path (stub's pending records, vantage's round queries, netsim's
// packets): a node goes back only when no queued callback can reach it —
// inside its own timer callback, or after that timer's Stop() reported
// true. On a wall clock Stop can lose to a callback waiting for
// udprun.Loop's lock: an outquery is then cleared and left to the GC. A
// task counts what can reach it (refs: in-flight outquery, deadline and
// serve-stale timers, a lost Stop holding on until its callback runs); its
// job goes back once it is done, unreferenced and unpinned, when the
// outermost dispatch ends (leave): frames below may still read it.
func (r *Resolver) putOQ(oq *outquery, timerDone bool) {
	t := oq.t
	*oq = outquery{}
	if ws := r.work(); timerDone && ws.oqFreeN < maxFree {
		oq.next, ws.oqFree = ws.oqFree, oq
		ws.oqFreeN++
	}
	t.release()
}

// send transmits the task's (name, qtype) to server and arms a timeout;
// tcp routes the query over the TCP plane (the TC=1 fallback retry). A
// forwarder sets the recursion-desired bit: its upstream is a recursive.
func (r *Resolver) send(t *task, server netsim.Addr, tcp bool) {
	id, ok := r.allocID()
	if !ok {
		t.tryNextServer()
		return
	}
	oq := r.getOQ()
	oq.id, oq.tcp, oq.server, oq.sentAt, oq.t = id, tcp, server, r.clk.Now(), t
	t.refs++
	ws := r.work()
	if ws.inflight == nil {
		ws.inflight = make(map[uint64]*outquery)
	}
	ws.inflight[r.oqKey(id)] = oq
	r.inflight++
	r.event(kUpstreamQuery, payload{name: t.name, a: uint32(t.qtype), dst: server})

	q := &ws.qMsg
	q.ResetQuery(id, t.name, t.qtype)
	q.RecursionDesired = r.forwarding()
	do := len(r.cfg.TrustAnchors) > 0
	if size := r.cfg.EDNSSize; size > 0 {
		q.AddEDNS(size, do)
	} else if do {
		q.AddEDNS(4096, true)
	}
	// The query goes as its message (the transport packs it if it needs
	// bytes); the bound refuses exactly what packing would.
	if _, err := q.WireLenBound(); err != nil {
		r.landed(oq)
		r.putOQ(oq, true) // no timer armed yet
		t.tryNextServer()
		return
	}
	oq.timer = r.clk.AfterFuncRef(t.timeout, outqueryTimeout, oq)
	conn := r.conn
	if tcp {
		conn = r.tcpConn
	}
	conn.SendMsg(server, q)
}

// outqueryTimeout is the static timeout callback armed by send. A node
// the answer retired first (see putOQ) is empty or no longer in flight.
func outqueryTimeout(arg any) {
	oq := arg.(*outquery)
	t, server := oq.t, oq.server
	if t == nil || t.r.outqueryOf(oq.id) != oq {
		return
	}
	r := t.r
	r.depth++
	r.landed(oq)
	r.event(kTimeout, payload{name: t.name, dst: server})
	r.srttPenalty(server)
	r.putOQ(oq, true)
	t.tryNextServer()
	r.leave()
}

// handleUpstream routes a response to its pending query.
func (r *Resolver) handleUpstream(m *dnswire.Message) {
	oq := r.outqueryOf(m.ID)
	if oq == nil {
		return // late or spoofed; ignore
	}
	r.landed(oq)
	sample := r.clk.Now().Sub(oq.sentAt)
	r.upstreamRTTms.Observe(float64(sample) / float64(time.Millisecond))
	r.srttUpdate(oq.server, sample)
	t, server, tcp := oq.t, oq.server, oq.tcp
	r.putOQ(oq, oq.timer.Stop())
	if m.Truncated {
		// TC=1 never carries a usable answer: the data sections were
		// stripped to fit the UDP limit. Retry over TCP (or rotate) —
		// consuming it as data is the bug the transport family measures.
		t.handleTruncated(server, tcp)
		return
	}
	t.handleResponse(m)
}

// srttTable returns the working set's SRTT map, made on first use.
func (r *Resolver) srttTable() map[uint64]time.Duration {
	ws := r.work()
	if ws.srtt == nil {
		ws.srtt = make(map[uint64]time.Duration)
	}
	return ws.srtt
}

// srttUpdate folds a new RTT sample into the server's smoothed RTT.
func (r *Resolver) srttUpdate(server netsim.Addr, sample time.Duration) {
	srtt, k := r.srttTable(), r.key(string(server))
	if old, ok := srtt[k]; ok {
		srtt[k] = (old*7 + sample*3) / 10
	} else {
		srtt[k] = sample
	}
}

// srttPenalty doubles a server's SRTT after a timeout so selection drifts
// away from unresponsive servers (BIND-style decay).
func (r *Resolver) srttPenalty(server netsim.Addr) {
	srtt, k := r.srttTable(), r.key(string(server))
	if old, ok := srtt[k]; ok {
		srtt[k] = min(old*2, 10*time.Second)
	} else {
		srtt[k] = time.Second
	}
}

// pickServer chooses the fetch's next candidate index, preferring low
// SRTT but exploring randomly with ExplorationProb, and skipping indices
// tried this round. When every candidate has been, it starts another
// round with a doubled timeout: the per-query timeout grows only here, so
// every server of a round is probed with the same deadline, exponential
// backoff across rounds as Config.InitialTimeout documents. ok is false
// only for an empty list.
func (t *task) pickServer() (int, bool) {
	r, candidates := t.r, t.servers
	isTried := func(i int) bool { return t.tried[i>>6]&(1<<(uint(i)&63)) != 0 }
	n := 0
	for i := range candidates {
		if !isTried(i) {
			n++
		}
	}
	if n == 0 {
		t.resetTried(len(candidates))
		t.timeout = min(t.timeout*2, maxTimeout)
		if n = len(candidates); n == 0 {
			return 0, false
		}
	}
	if r.rng.Float64() < r.cfg.ExplorationProb {
		k := r.rng.Intn(n)
		for i := range candidates {
			if isTried(i) {
				continue
			}
			if k == 0 {
				return i, true
			}
			k--
		}
	}
	// Lowest SRTT wins; the first server with no SRTT yet is tried
	// eagerly, matching the exploration contract for unknown servers.
	best := -1
	var bestRTT time.Duration
	ws := r.work()
	for i, a := range candidates {
		if isTried(i) {
			continue
		}
		// An unnumbered address reads n = 0, which no key holds: the
		// lookup numbers nothing.
		rtt, ok := ws.srtt[uint64(r.rid)<<32|uint64(ws.ids[string(a)])]
		if !ok {
			return i, true
		}
		if best < 0 || rtt < bestRTT {
			best, bestRTT = i, rtt
		}
	}
	return best, true
}
