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

// Config tunes a Resolver. NewResolver fills zero fields with defaults.
type Config struct {
	// Cache configures the resolver cache (TTL caps, shards, serve-stale,
	// capacity). Cache.ServeStale is forced to match ServeStale.
	Cache cache.Config
	// RootHints seed iterative resolution. Required unless forwarding.
	RootHints []ServerHint
	// Forwarders, when non-empty, puts the resolver in forwarding mode.
	Forwarders []netsim.Addr
	// NoCache disables caching entirely (a pass-through R1, one of the
	// cache-miss causes in §3.5).
	NoCache bool

	// InitialTimeout is the first per-upstream-query timeout. It doubles
	// each time the candidate server list has been exhausted (each retry
	// *round*, not each attempt), up to MaxTimeout, so every server in a
	// round is probed with the same deadline. Default 750 ms / 3 s.
	InitialTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxAttempts bounds upstream tries per fetch (across servers).
	// Default 7, matching the ~6-7 retries prior work and §6.2 observe
	// when authoritatives are dead.
	MaxAttempts int
	// WorkBudget bounds total upstream queries spawned by one client
	// query, including NS-address harvesting. Default 40.
	WorkBudget int
	// MaxCNAME bounds alias chains. Default 8.
	MaxCNAME int
	// MaxDepth bounds nested NS-address resolutions. Default 3.
	MaxDepth int
	// ClientTimeout is the deadline after which a client query is
	// answered SERVFAIL (or stale). Default 8 s.
	ClientTimeout time.Duration
	// ServeStale enables answering with expired cache entries (TTL 0)
	// when resolution fails, per draft-tale-dnsop-serve-stale.
	ServeStale bool
	// StaleAnswerDelay is how long a serve-stale resolver keeps trying
	// upstream before answering the client with expired data (the
	// draft's client-response timer, ~1.8 s). The refresh continues in
	// the background. Default 1.8 s.
	StaleAnswerDelay time.Duration
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
	// query all authoritatives over time" behavior of [27]. Default 0.25.
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
	// 0 leaves the fan-out bounded only by WorkBudget and MaxDepth.
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
	// Seed makes the resolver's random choices reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.InitialTimeout == 0 {
		c.InitialTimeout = 750 * time.Millisecond
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 3 * time.Second
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 7
	}
	if c.WorkBudget == 0 {
		c.WorkBudget = 40
	}
	if c.MaxCNAME == 0 {
		c.MaxCNAME = 8
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 3
	}
	if c.ClientTimeout == 0 {
		c.ClientTimeout = 8 * time.Second
	}
	if c.ExplorationProb == 0 {
		c.ExplorationProb = 0.25
	}
	if c.StaleAnswerDelay == 0 {
		c.StaleAnswerDelay = 1800 * time.Millisecond
	}
	c.Cache.ServeStale = c.ServeStale
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
type Resolver struct {
	clk   clock.Clock
	cfg   Config
	cache cache.Cache
	rng   *rand.Rand
	conn  netsim.Conn
	// tcpConn is the TCP-plane transport (nil when unbound): TC=1
	// fallback retries go out on it, and clients reached over it are
	// answered without the UDP size limit.
	tcpConn netsim.Conn

	nextID   uint16
	inflight map[uint32]*outquery // 16-bit IDs; uint32 keys take the map's fast path
	// Free lists and their lengths (see putOQ), jobs retired during the
	// depth dispatches in progress, and jobs out (neither back nor pinned).
	oqFree            *outquery
	jobFree, retired  *clientJob
	oqFreeN, jobFreeN int
	depth, jobsOut    int
	srtt              map[netsim.Addr]time.Duration
	coalesce          map[coalesceKey]*clientJob
	harvests          map[string]time.Time // zone -> last NS harvest
	// trace and timeline are the cell's observers, read from the network
	// at Attach; n is the live counter per event kind (see event.go).
	trace    *trace.Buffer
	timeline *timeline.Collector
	n        [numKinds]metrics.Counter
	// upstreamRTTms observes every upstream round-trip sample, in
	// milliseconds (the same samples that feed SRTT selection).
	upstreamRTTms metrics.Histogram

	// rrScratch, nsScratch, setScratch and keyScratch are reusable
	// buffers for the single-threaded response-processing path
	// (cacheAuthorityAndGlue and answerBuf, referralNS, and cacheRRs's
	// sets and keys); their contents never survive an event dispatch.
	rrScratch  []dnswire.RR
	nsScratch  []dnswire.RR
	setScratch []dnswire.RR
	keyScratch []cache.Key
	// upMsg is the scratch decode target for upstream responses. Response
	// processing never retains the message or its section slices (data
	// that outlives the dispatch — cache sets, Result answers — is always
	// copied), so one message per resolver serves every response.
	upMsg dnswire.Message
	// cqMsg is the scratch decode target for client queries, and at answer
	// time the scratch each waiter's query is rebuilt in (see waiter).
	cqMsg dnswire.Message
	// qMsg and respMsg are scratch encode sources (upstream queries and
	// client responses), and packBuf the scratch wire buffer; all three
	// are transmitted before the dispatch returns and never retained
	// (Conn.Send copies).
	qMsg    dnswire.Message
	respMsg dnswire.Message
	packBuf []byte
}

type coalesceKey struct {
	name  string
	qtype dnswire.Type
	shard int
}

// NewResolver creates a resolver on clk. Call Attach (or SetConn) before
// resolving.
func NewResolver(clk clock.Clock, cfg Config) *Resolver {
	cfg = cfg.withDefaults()
	// Hot state (in-flight and SRTT maps, the RTT histogram) is
	// created on first use: a large population builds thousands of
	// resolvers per cell but exercises only the handful its probes query,
	// so an idle resolver must cost a couple of allocations, not dozens.
	r := &Resolver{clk: clk, cfg: cfg, rng: lazyrand.New(cfg.Seed)}
	r.cache.Init(clk, cfg.Cache)
	r.upstreamRTTms.Init(metrics.DefaultLatencyBucketsMs) // aliases shared bounds; no allocation
	return r
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
// inherit the network's observers.
func (r *Resolver) Attach(net *netsim.Network, addr netsim.Addr) {
	r.trace, r.timeline = net.Trace(), net.Timeline()
	r.cache.SetTrace(r.trace)
	r.conn = net.Bind(addr, r.Receive)
	if r.cfg.TCPFallback {
		r.tcpConn = net.BindTCP(addr, r.ReceiveTCP)
	}
}

// headerLen is the fixed DNS header size; anything shorter cannot carry
// a QR bit, let alone a message.
const headerLen = 12

// Receive is the raw packet entry point (exported for custom transports).
func (r *Resolver) Receive(src netsim.Addr, payload []byte) { r.receive(src, payload, false) }

// ReceiveTCP is Receive for the TCP plane. Responses route to the same
// in-flight table (query IDs are transport-agnostic); client queries are
// answered over TCP without the UDP size limit.
func (r *Resolver) ReceiveTCP(src netsim.Addr, payload []byte) { r.receive(src, payload, true) }

// receive routes on the QR bit before decoding: responses and client
// queries decode into their own scratch messages.
func (r *Resolver) receive(src netsim.Addr, payload []byte, tcp bool) {
	if len(payload) < headerLen {
		return
	}
	r.depth++
	if payload[2]&0x80 != 0 {
		if err := dnswire.UnpackInto(&r.upMsg, payload); err == nil {
			r.handleUpstream(&r.upMsg)
		}
	} else if err := dnswire.UnpackInto(&r.cqMsg, payload); err == nil {
		r.serveClient(src, &r.cqMsg, tcp)
	}
	r.leave()
}

// leave ends a dispatch (a packet, a timer callback or a Resolve call);
// the outermost one clears the jobs retired meanwhile onto the free list.
func (r *Resolver) leave() {
	if r.depth--; r.depth > 0 {
		return
	}
	for j := r.retired; j != nil; {
		next := j.next
		*j = clientJob{}
		if r.jobFreeN < maxFree {
			j.next, r.jobFree = r.jobFree, j
			r.jobFreeN++
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
	if len(r.inflight) >= 1<<16-1 {
		return 0, false
	}
	if r.cfg.RandomIDs {
		// Full 16-bit entropy: the defense the poisoning experiments
		// measure. Re-draw on the rare collision with an in-flight ID.
		rng := r.rng
		for {
			id := uint16(rng.Intn(1 << 16))
			if _, busy := r.inflight[uint32(id)]; !busy && id != 0 {
				return id, true
			}
		}
	}
	for {
		r.nextID++
		if _, busy := r.inflight[uint32(r.nextID)]; !busy && r.nextID != 0 {
			return r.nextID, true
		}
	}
}

// outquery is one upstream query awaiting a response or timeout. Nodes
// are pooled on the resolver (see getOQ/putOQ): the continuation is the
// owning task plus a mode bit instead of per-send closures, so a query
// burst allocates nothing after the first rotation.
type outquery struct {
	id     uint16
	fwd    bool // forward-mode continuation (forwardNext vs tryNextServer)
	tcp    bool // sent over the TCP plane (a TC=1 fallback retry)
	server netsim.Addr
	sentAt time.Time
	timer  clock.TimerRef
	t      *task
	next   *outquery // freelist link
}

func (r *Resolver) getOQ() *outquery {
	if oq := r.oqFree; oq != nil {
		r.oqFree = oq.next
		r.oqFreeN--
		oq.next = nil
		return oq
	}
	return new(outquery)
}

// maxFree caps each free list: a flood's peak goes back to the GC.
const maxFree = 64

// putOQ retires a node and drops its reference on its task. The recycle
// rule, for this list, the resolver's jobs and every other free list on a
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
	if timerDone && r.oqFreeN < maxFree {
		oq.next, r.oqFree = r.oqFree, oq
		r.oqFreeN++
	}
	t.release()
}

// send transmits the task's (name, qtype) to server and arms a timeout.
// fwd marks forwarding mode: the recursion-desired bit is set (the
// upstream is itself a recursive) and failures continue the forwarder
// rotation instead of the iterative one.
func (r *Resolver) send(t *task, server netsim.Addr, fwd bool) {
	r.sendVia(t, server, fwd, false)
}

// sendVia is send with an explicit transport: tcp routes the query over
// the TCP plane (the TC=1 fallback retry path).
func (r *Resolver) sendVia(t *task, server netsim.Addr, fwd, tcp bool) {
	id, ok := r.allocID()
	if !ok {
		t.rotate(fwd)
		return
	}
	oq := r.getOQ()
	oq.id, oq.fwd, oq.tcp, oq.server, oq.sentAt, oq.t = id, fwd, tcp, server, r.clk.Now(), t
	t.refs++
	if r.inflight == nil {
		r.inflight = make(map[uint32]*outquery)
	}
	r.inflight[uint32(id)] = oq
	r.event(kUpstreamQuery, payload{name: t.name, a: uint32(t.qtype), dst: server})

	q := &r.qMsg
	q.ResetQuery(id, t.name, t.qtype)
	q.RecursionDesired = fwd
	do := len(r.cfg.TrustAnchors) > 0
	if size := r.cfg.EDNSSize; size > 0 {
		q.AddEDNS(size, do)
	} else if do {
		q.AddEDNS(4096, true)
	}
	wire, err := q.AppendPack(r.packBuf[:0])
	r.packBuf = wire[:0]
	if err != nil {
		delete(r.inflight, uint32(id))
		r.putOQ(oq, true) // no timer armed yet
		t.rotate(fwd)
		return
	}
	oq.timer = clock.AfterFuncRef(r.clk, t.timeout, outqueryTimeout, oq)
	if tcp {
		r.tcpConn.Send(server, wire)
		return
	}
	r.conn.Send(server, wire)
}

// outqueryTimeout is the static timeout callback armed by send. A node
// the answer retired first (see putOQ) is empty or no longer in flight.
func outqueryTimeout(arg any) {
	oq := arg.(*outquery)
	t, server, fwd := oq.t, oq.server, oq.fwd
	if t == nil || t.r.inflight[uint32(oq.id)] != oq {
		return
	}
	r := t.r
	r.depth++
	delete(r.inflight, uint32(oq.id))
	r.event(kTimeout, payload{name: t.name, dst: server})
	r.srttPenalty(server)
	r.putOQ(oq, true)
	t.rotate(fwd)
	r.leave()
}

// handleUpstream routes a response to its pending query.
func (r *Resolver) handleUpstream(m *dnswire.Message) {
	oq, ok := r.inflight[uint32(m.ID)]
	if !ok {
		return // late or spoofed; ignore
	}
	delete(r.inflight, uint32(m.ID))
	sample := r.clk.Now().Sub(oq.sentAt)
	r.upstreamRTTms.Observe(float64(sample) / float64(time.Millisecond))
	r.srttUpdate(oq.server, sample)
	t, server, fwd, tcp := oq.t, oq.server, oq.fwd, oq.tcp
	r.putOQ(oq, oq.timer.Stop())
	if m.Truncated {
		// TC=1 never carries a usable answer: the data sections were
		// stripped to fit the UDP limit. Retry over TCP (or rotate) —
		// consuming it as data is the bug the transport family measures.
		t.handleTruncated(server, fwd, tcp)
		return
	}
	if fwd {
		t.handleForwardResponse(m)
	} else {
		t.handleResponse(server, m)
	}
}

// srttUpdate folds a new RTT sample into the server's smoothed RTT.
func (r *Resolver) srttUpdate(server netsim.Addr, sample time.Duration) {
	if r.srtt == nil {
		r.srtt = make(map[netsim.Addr]time.Duration)
	}
	if old, ok := r.srtt[server]; ok {
		r.srtt[server] = (old*7 + sample*3) / 10
	} else {
		r.srtt[server] = sample
	}
}

// srttPenalty doubles a server's SRTT after a timeout so selection drifts
// away from unresponsive servers (BIND-style decay).
func (r *Resolver) srttPenalty(server netsim.Addr) {
	if r.srtt == nil {
		r.srtt = make(map[netsim.Addr]time.Duration)
	}
	if old, ok := r.srtt[server]; ok {
		penalized := old * 2
		if penalized > 10*time.Second {
			penalized = 10 * time.Second
		}
		r.srtt[server] = penalized
	} else {
		r.srtt[server] = time.Second
	}
}

// pickServer chooses the next candidate index, preferring low SRTT but
// exploring randomly with ExplorationProb, and skipping indices whose bit
// is set in tried.
func (r *Resolver) pickServer(candidates []netsim.Addr, tried []uint64) (int, bool) {
	isTried := func(i int) bool { return tried[i>>6]&(1<<(uint(i)&63)) != 0 }
	n := 0
	for i := range candidates {
		if !isTried(i) {
			n++
		}
	}
	if n == 0 {
		return 0, false
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
	for i, a := range candidates {
		if isTried(i) {
			continue
		}
		rtt, ok := r.srtt[a]
		if !ok {
			return i, true
		}
		if best < 0 || rtt < bestRTT {
			best, bestRTT = i, rtt
		}
	}
	return best, true
}
