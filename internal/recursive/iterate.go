package recursive

import (
	"net/netip"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// timeSecond avoids importing time twice in TTL math call sites.
const timeSecond = time.Second

// task tracks one resolution (a client query, a CNAME restart, or an
// NS-address subtask). Tasks form a tree sharing one work budget.
type task struct {
	r      *Resolver
	name   string
	qtype  dnswire.Type
	shard  int
	depth  int
	chain  int // CNAME links consumed so far
	budget *int
	prefix []dnswire.RR // CNAME chain accumulated before this task
	done   bool
	// skipCacheLookup forces an upstream fetch even when the cache holds
	// data (used by the NS harvest to replace glue with authoritative
	// records, Appendix A).
	skipCacheLookup bool
	cb              func(Result)
	// job is the pooled job embedding the task: a client job (root, whose
	// complete method delivers, so serveClient builds no closure) or a
	// background fetch. Resolve tasks and subtasks have none.
	job *clientJob
	// root marks the client-facing task started by resolveTask; delivery
	// runs the client-response bookkeeping (deadline, metrics, trace)
	// inline instead of through a wrapping closure.
	root     bool
	deadline clock.TimerRef
	// refs counts what outside the call stack can reach the task (see
	// putOQ); pinned marks one its NS-address subtasks' closures hold.
	refs   int32
	pinned bool

	// fetch state for the current zone iteration
	zoneName string
	// servers is the candidate list, rebuilt in place (serverBuf) on
	// every zone change: one buffer serves the task's whole descent. It
	// starts on servers0, which holds a typical NS set without growing.
	servers  []netsim.Addr
	servers0 [4]netsim.Addr
	// tried is a bitset over servers indices (reset each rotation round).
	// A bitset instead of a map: rotation is the hottest retry path. Lists
	// of up to 64 candidates — all but hostile referrals — use the inline
	// word.
	tried   []uint64
	tried0  [1]uint64
	attempt int
	timeout time.Duration
	// budget0 backs budget for the task that owns the tree's work budget.
	budget0 int
}

// resetTried clears the tried bitset for a candidate list of n servers,
// reusing the task's existing words when they are large enough.
func (t *task) resetTried(n int) {
	w := (n + 63) / 64
	if t.tried == nil {
		t.tried = t.tried0[:0]
	}
	if cap(t.tried) < w {
		t.tried = make([]uint64, w)
		return
	}
	t.tried = t.tried[:w]
	for i := range t.tried {
		t.tried[i] = 0
	}
}

// serverBuf returns the task's candidate buffer, emptied.
func (t *task) serverBuf() []netsim.Addr {
	if t.servers == nil {
		return t.servers0[:0]
	}
	return t.servers[:0]
}

// markTried records that servers[idx] was attempted. Every index holding
// the same address is marked, preserving the semantics of the map this
// replaces (a duplicated candidate was tried once, not per copy).
func (t *task) markTried(idx int) {
	a := t.servers[idx]
	for i, s := range t.servers {
		if s == a {
			t.tried[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// Resolve answers (name, qtype) using the cache and, on a miss, upstream
// resolution. The shard hint selects the backend cache in fragmented
// deployments; callers without an opinion pass a random value. cb runs
// exactly once.
func (r *Resolver) Resolve(name string, qtype dnswire.Type, shard int, cb func(Result)) {
	r.depth++
	r.resolveTask(&task{cb: cb}, dnswire.CanonicalName(name), qtype, shard)
	r.leave()
}

// resolveTask starts t, fresh but for its cb or job, as the client-facing
// resolution of the canonical (name, qtype). A stale-serve timer, a late
// upstream answer or a subtask callback can still reach the task after
// finish, so a pooled one is recycled only once refs says nothing can.
func (r *Resolver) resolveTask(t *task, name string, qtype dnswire.Type, shard int) {
	t.r, t.name, t.qtype, t.shard, t.root = r, name, qtype, shard, true
	t.budget0 = r.cfg.WorkBudget
	t.budget = &t.budget0
	r.event(kClientQuery, payload{name: name, a: uint32(qtype)})
	t.deadline = r.clk.AfterFuncRef(r.cfg.ClientTimeout, taskDeadline, t)
	t.refs++
	t.run()
}

// taskDeadline is the static client-timeout callback armed by Resolve.
func taskDeadline(arg any) {
	t := arg.(*task)
	r := t.r
	r.depth++
	t.fail()
	t.release()
	r.leave()
}

// release drops one of the references refs counts; retire queues a pooled
// task that is done and unreachable for the free list (see putOQ).
func (t *task) release() {
	t.refs--
	t.retire()
}

func (t *task) retire() {
	if t.done && t.refs == 0 && !t.pinned && t.job != nil {
		t.job.next, t.r.retired = t.r.retired, t.job
	}
}

func (t *task) run() {
	if t.cacheAnswer() {
		return
	}
	t.r.event(kCacheMiss, payload{})
	t.armStaleTimer()
	if !t.initFetch() {
		t.fail()
		return
	}
	t.tryNextServer()
}

// armStaleTimer makes a serve-stale resolver answer the client with
// expired data after the client-response delay while the refresh keeps
// running (draft-tale-dnsop-serve-stale; the paper observed exactly this
// from public resolvers during outages, §5.3).
func (t *task) armStaleTimer() {
	if !t.r.cfg.ServeStale || t.r.cfg.NoCache {
		return
	}
	// Lookup, not GetStale: only whether a stale set exists matters here.
	v := t.r.cache.Lookup(cache.Key{Name: t.name, Type: t.qtype}, t.shard, true)
	if !v.Hit || !v.Stale || v.Negative {
		return
	}
	t.r.clk.AfterFuncRef(staleAnswerDelay, staleAnswer, t)
	t.refs++
}

// staleAnswer is the static client-response timer armed by armStaleTimer.
func staleAnswer(arg any) {
	t := arg.(*task)
	r := t.r
	r.depth++
	if !t.done {
		sv := r.cache.Lookup(cache.Key{Name: t.name, Type: t.qtype}, t.shard, true)
		if sv.Hit && sv.Stale && !sv.Negative {
			r.event(kStaleServe, payload{name: t.name})
			t.finish(Result{RCode: dnswire.RCodeNoError, Answers: t.cachedAnswers(sv),
				Stale: true, FromCache: true})
		}
	}
	t.release()
	r.leave()
}

// finish delivers res exactly once. Fresh upstream answers get their TTLs
// rewritten per the cache's cap/floor, since that is what the resolver
// would serve for the rest of the record's life (§3.4 TTL rewriting).
func (t *task) finish(res Result) {
	if t.done {
		return
	}
	t.done = true
	if len(t.prefix) > 0 {
		res.Answers = append(append([]dnswire.RR(nil), t.prefix...), res.Answers...)
	}
	if !res.FromCache && !t.r.cfg.NoCache {
		maxTTL := uint32(t.r.cfg.Cache.MaxTTL / timeSecond)
		minTTL := uint32(t.r.cfg.Cache.MinTTL / timeSecond)
		// In place: fresh answers sit in the task's own answerBuf.
		for i := range res.Answers {
			if maxTTL > 0 && res.Answers[i].TTL > maxTTL {
				res.Answers[i].TTL = maxTTL
			}
			if minTTL > 0 && res.Answers[i].TTL < minTTL {
				res.Answers[i].TTL = minTTL
			}
		}
	}
	t.deliver(res)
	t.retire()
}

// deliver hands res to the task's callback, running the client-response
// bookkeeping first when this is the Resolve-created root task.
func (t *task) deliver(res Result) {
	if t.root {
		if t.deadline.Stop() {
			t.refs-- // stopped: the callback will not run to drop it
		}
		if res.ServFail {
			// Terminal failures bypass sampling (pForce) so a SERVFAIL
			// chain is never invisible in a sampled trace.
			t.r.event(kClientServFail, payload{name: t.name})
		}
		stale := uint32(0)
		if res.Stale {
			stale = 1
		}
		t.r.event(kClientResponse, payload{name: t.name, a: uint32(res.RCode), b: stale})
	}
	if t.cb != nil {
		t.cb(res)
	} else if t.root {
		t.job.complete(res) // a client job; a background fetch tells nobody
	}
}

// fail ends the task with serve-stale if available, else SERVFAIL.
func (t *task) fail() {
	if t.done {
		return
	}
	if t.r.cfg.ServeStale && !t.r.cfg.NoCache {
		if v := t.r.cache.Lookup(cache.Key{Name: t.name, Type: t.qtype}, t.shard, true); v.Hit && !v.Negative {
			t.r.event(kStaleServe, payload{name: t.name, a: 1})
			t.finish(Result{RCode: dnswire.RCodeNoError, Answers: t.cachedAnswers(v), Stale: true, FromCache: true})
			return
		}
	}
	t.r.event(kServFail, payload{})
	t.finish(Result{RCode: dnswire.RCodeServFail, ServFail: true})
}

// cacheAnswer tries to answer entirely from cache, chasing CNAMEs. It
// returns true when the task was finished. A partial CNAME chain found in
// cache becomes the task prefix and resolution restarts at the dangling
// target.
func (t *task) cacheAnswer() bool {
	if t.r.cfg.NoCache || t.skipCacheLookup {
		return false
	}
	minRank := cache.RankAnswer
	if t.r.cfg.AnswerFromReferral {
		minRank = cache.RankAdditional
	}
	cur := t.name
	for hop := 0; hop <= maxCNAME; hop++ {
		v := t.r.cache.Lookup(cache.Key{Name: cur, Type: t.qtype}, t.shard, false)
		if v.Hit && !v.Negative && v.Rank < minRank {
			// Referral-learned data is good enough to guide resolution
			// but not to answer clients (RFC 2181 §5.4.1).
			v = cache.View{}
		}
		if v.Hit {
			if v.Negative {
				t.r.event(kNegativeHit, payload{})
				rcode := dnswire.RCodeNoError
				if v.NXDomain {
					rcode = dnswire.RCodeNXDomain
				}
				t.finish(Result{RCode: rcode, SOA: v.SOA, FromCache: true})
				return true
			}
			t.r.event(kCacheHit, payload{})
			t.r.maybePrefetch(cur, t.qtype, t.shard, v)
			// Copied only now: a background fetch may have used the
			// working set's record scratch, which answerBuf hands a job.
			t.finish(Result{RCode: dnswire.RCodeNoError, Answers: t.cachedAnswers(v), FromCache: true})
			return true
		}
		if t.qtype == dnswire.TypeCNAME {
			break
		}
		cv := t.r.cache.Lookup(cache.Key{Name: cur, Type: dnswire.TypeCNAME}, t.shard, false)
		if !cv.Hit || cv.Negative {
			break
		}
		n := len(t.prefix)
		t.prefix = append(t.prefix, cv.Records...)
		for i := n; i < len(t.prefix); i++ {
			t.prefix[i].TTL = cv.TTL
		}
		cur = dnswire.CanonicalName(cv.Records[0].Data.(dnswire.CNAME).Target)
		t.chain++
		if t.chain > maxCNAME {
			t.fail()
			return true
		}
	}
	t.name = cur
	return false
}

// cachedAnswers copies a Lookup view's records into the task's answer
// buffer, each carrying the remaining lifetime, as Get's clone would.
func (t *task) cachedAnswers(v cache.View) []dnswire.RR {
	answers := append(t.answerBuf(len(v.Records)), v.Records...)
	for i := range answers {
		answers[i].TTL = v.TTL
	}
	return answers
}

// initFetch seeds the fetch state. A forwarder's servers are its
// forwarders in a random rotation (R1 of the paper's Figure 1: during a
// DDoS its retries fan one client query out over many Rn resolvers, §6.2,
// Figure 11), each first asked with twice InitialTimeout since the
// upstream resolves in full. Otherwise they are the deepest cached
// delegation with usable addresses, falling back to the root hints.
func (t *task) initFetch() bool {
	r := t.r
	if r.forwarding() {
		servers := append(t.serverBuf(), r.cfg.Forwarders...)
		r.rng.Shuffle(len(servers), func(i, j int) {
			servers[i], servers[j] = servers[j], servers[i]
		})
		t.fetch(".", servers, r.cfg.InitialTimeout*2)
		return true
	}
	if !r.cfg.NoCache {
		for z := t.name; ; z = dnswire.Parent(z) {
			if addrs := t.zoneServersFromCache(z); len(addrs) > 0 {
				t.fetch(z, addrs, r.cfg.InitialTimeout)
				return true
			}
			if z == "." {
				break
			}
		}
	}
	if len(r.cfg.RootHints) == 0 {
		return false
	}
	servers := t.serverBuf()
	for _, h := range r.cfg.RootHints {
		servers = append(servers, h.Addr)
	}
	t.fetch(".", servers, r.cfg.InitialTimeout)
	return true
}

// fetch starts the fetch of zone from servers: none tried, no attempt
// made, the first round's per-query timeout set.
func (t *task) fetch(zone string, servers []netsim.Addr, timeout time.Duration) {
	t.zoneName, t.servers, t.attempt, t.timeout = zone, servers, 0, timeout
	t.resetTried(len(servers))
}

// zoneServersFromCache returns cached addresses for zone's NS set, built
// in the task's server buffer. Only the record data is read, so the
// clone-free Peek suffices.
func (t *task) zoneServersFromCache(zone string) []netsim.Addr {
	ns := t.r.cache.Peek(cache.Key{Name: zone, Type: dnswire.TypeNS}, t.shard)
	if !ns.Hit || ns.Negative {
		return nil
	}
	addrs := t.serverBuf()
	for _, rr := range ns.Records {
		host := dnswire.CanonicalName(rr.Data.(dnswire.NS).Host)
		a := t.r.cache.Peek(cache.Key{Name: host, Type: dnswire.TypeA}, t.shard)
		if a.Hit && !a.Negative {
			for _, arr := range a.Records {
				addrs = append(addrs, internAddr(arr.Data.(dnswire.A).Addr))
			}
		}
	}
	return addrs
}

// tryNextServer sends the query to the next candidate of the current
// fetch: the one retry loop of both modes. Every exchange that fails, or
// is never sent, comes back here.
func (t *task) tryNextServer() {
	if t.done {
		return
	}
	if t.spent() {
		t.fail()
		return
	}
	idx, ok := t.pickServer()
	if !ok {
		t.fail()
		return
	}
	t.markTried(idx)
	t.try(t.servers[idx], false)
}

// spent reports whether the fetch has used its attempts or the task tree
// its work budget.
func (t *task) spent() bool { return t.attempt >= t.r.cfg.MaxAttempts || *t.budget <= 0 }

// try spends an attempt and a unit of budget on one exchange with server.
func (t *task) try(server netsim.Addr, tcp bool) {
	t.attempt++
	*t.budget--
	if t.attempt > 1 {
		t.r.event(kUpstreamRetry, payload{})
	}
	t.r.send(t, server, tcp)
}

// handleTruncated reacts to a TC=1 upstream response (routed here by
// handleUpstream before handleResponse, so no answer-stripped response is
// mistaken for data): retry the same server over TCP when fallback is
// enabled and this attempt was UDP, otherwise move to the next candidate.
func (t *task) handleTruncated(server netsim.Addr, tcp bool) {
	r := t.r
	r.event(kTruncated, payload{name: t.name, dst: server})
	if t.done {
		return // late TC response: nothing cacheable to absorb
	}
	if !tcp && r.cfg.TCPFallback && r.tcpConn != nil {
		if t.spent() {
			t.fail()
			return
		}
		r.event(kTCPFallback, payload{name: t.name, dst: server})
		t.try(server, true)
		return
	}
	// Fallback disabled (or TCP itself claimed truncation): the stripped
	// response is unusable, treat the server like a lame one.
	t.tryNextServer()
}

// handleResponse processes an upstream reply for the current fetch.
func (t *task) handleResponse(m *dnswire.Message) {
	if t.done {
		// The client was already answered (stale data or a timeout
		// SERVFAIL) but this fetch was still in flight. The refresh
		// contract (armStaleTimer) requires its result to repopulate the
		// cache: dropping it here would leave a serve-stale resolver
		// answering stale long after the upstream recovered.
		t.absorbLateResponse(m)
		return
	}
	switch m.RCode {
	case dnswire.RCodeNoError:
	case dnswire.RCodeNXDomain:
		t.cacheNegative(m, true)
		t.finish(Result{RCode: dnswire.RCodeNXDomain, SOA: soaOf(m)})
		return
	default:
		// SERVFAIL, REFUSED, lame servers: try the next one.
		t.r.event(kLame, payload{})
		t.tryNextServer()
		return
	}
	if len(m.Answers) > 0 && !t.validateAnswer(m) {
		// Bogus data, relayed or authoritative: a validating resolver
		// refuses it and tries another server, then fails hard.
		t.r.event(kBogus, payload{})
		t.tryNextServer()
		return
	}
	if t.r.forwarding() {
		t.relay(m)
		return
	}
	if len(m.Answers) > 0 {
		t.handleAnswer(m)
		return
	}
	if ns := referralNS(t.r, m, t.zoneName, t.name); len(ns) > 0 {
		t.handleReferral(m, ns)
		return
	}
	if m.Authoritative {
		// NODATA.
		t.cacheNegative(m, false)
		t.finish(Result{RCode: dnswire.RCodeNoError, SOA: soaOf(m)})
		return
	}
	// Empty, non-authoritative, no referral: lame.
	t.r.event(kLame, payload{})
	t.tryNextServer()
}

// relay finishes a forwarder's fetch with its upstream's NOERROR: the
// upstream resolved in full, so its answer (validated, see
// handleResponse), or its NODATA with the SOA, is final.
func (t *task) relay(m *dnswire.Message) {
	if len(m.Answers) > 0 {
		t.cacheRRs(m.Answers, cache.RankAnswer)
		// Copy: m is the working set's scratch message. The signatures
		// stay in the cache, which hands them to DO clients, as on the
		// iterative path.
		answers := t.answerBuf(len(m.Answers))
		for _, rr := range m.Answers {
			if rr.Type() != dnswire.TypeRRSIG || t.qtype == dnswire.TypeRRSIG {
				answers = append(answers, rr)
			}
		}
		t.finish(Result{RCode: dnswire.RCodeNoError, Answers: answers})
		return
	}
	t.cacheNegative(m, false)
	t.finish(Result{RCode: dnswire.RCodeNoError, SOA: soaOf(m)})
}

// absorbLateResponse caches what a late upstream reply teaches without
// touching the already-delivered client result: positive answers at
// answer rank (with their in-bailiwick authority and glue sections), and
// NXDOMAIN/NODATA negatives. Referrals are not chased — the background
// refresh ends with whichever response lands, it never spawns new
// queries for a client that is no longer waiting.
func (t *task) absorbLateResponse(m *dnswire.Message) {
	switch m.RCode {
	case dnswire.RCodeNoError:
	case dnswire.RCodeNXDomain:
		t.cacheNegative(m, true)
		t.r.event(kLateAnswer, payload{})
		return
	default:
		return
	}
	if len(m.Answers) > 0 {
		if !t.validateAnswer(m) {
			return
		}
		t.cacheRRs(m.Answers, cache.RankAnswer)
		t.cacheAuthorityAndGlue(m)
		t.r.event(kLateAnswer, payload{})
		return
	}
	// NODATA: trustworthy from an authoritative source, or from the
	// upstream recursive when forwarding (forwarders never set AA).
	if m.Authoritative || t.r.forwarding() {
		if soaOf(m).Data != nil {
			t.cacheNegative(m, false)
			t.r.event(kLateAnswer, payload{})
		}
	}
}

// answerBuf returns an empty buffer for the n or so answers of a Result.
// A Resolve caller may keep them, so its buffer is fresh; a job packs
// them and a subtask reads them before the dispatch returns, so theirs is
// the working set's record scratch (free once cacheAuthorityAndGlue is
// done).
// Either way the task owns the records and finish may rewrite their TTLs.
func (t *task) answerBuf(n int) []dnswire.RR {
	if t.root && t.job == nil {
		return make([]dnswire.RR, 0, n)
	}
	ws := t.r.work()
	if cap(ws.rrScratch) < n {
		ws.rrScratch = make([]dnswire.RR, 0, n)
	}
	return ws.rrScratch[:0]
}

// handleAnswer caches the validated answer RRsets and finishes or
// restarts on a dangling CNAME.
func (t *task) handleAnswer(m *dnswire.Message) {
	t.cacheRRs(m.Answers, cache.RankAnswer)
	// Also cache authority NS sets delivered alongside answers.
	t.cacheAuthorityAndGlue(m)

	collected := t.answerBuf(len(m.Answers))
	cur := t.name
	for hop := 0; hop <= maxCNAME; hop++ {
		matched := false
		for _, rr := range m.Answers {
			if dnswire.CanonicalName(rr.Name) != cur {
				continue
			}
			if rr.Type() == t.qtype {
				// Collect the full RRset for cur/qtype.
				for _, rr2 := range m.Answers {
					if dnswire.CanonicalName(rr2.Name) == cur && rr2.Type() == t.qtype {
						collected = append(collected, rr2)
					}
				}
				t.finish(Result{RCode: dnswire.RCodeNoError, Answers: collected})
				return
			}
			if rr.Type() == dnswire.TypeCNAME && t.qtype != dnswire.TypeCNAME {
				collected = append(collected, rr)
				cur = dnswire.CanonicalName(rr.Data.(dnswire.CNAME).Target)
				t.chain++
				matched = true
				break
			}
		}
		if !matched {
			break
		}
		if t.chain > maxCNAME {
			t.fail()
			return
		}
	}
	if len(collected) > 0 {
		// Dangling CNAME: restart resolution at the target.
		t.prefix = append(t.prefix, collected...)
		t.name = cur
		if !t.initFetch() {
			t.fail()
			return
		}
		t.tryNextServer()
		return
	}
	// Answers that do not relate to the question: lame.
	t.r.event(kLame, payload{})
	t.tryNextServer()
}

// handleReferral descends into the delegated zone.
func (t *task) handleReferral(m *dnswire.Message, ns []dnswire.RR) {
	newZone := dnswire.CanonicalName(ns[0].Name)
	t.cacheAuthorityAndGlue(m)

	// Gather in-bailiwick glue in NS-host order into the task's server
	// buffer (it becomes t.servers). The host×additional scan replaces a
	// per-referral map; both lists are a handful of records.
	// Out-of-bailiwick glue is skipped: the parent has no authority over
	// addresses outside the zone it is delegating, so a response
	// volunteering them is the classic poisoning vector. Such NS hosts are
	// resolved independently below instead.
	addrs := t.serverBuf()
	for _, rr := range ns {
		host := dnswire.CanonicalName(rr.Data.(dnswire.NS).Host)
		for _, g := range m.Additionals {
			a, ok := g.Data.(dnswire.A)
			if !ok {
				continue
			}
			gh := dnswire.CanonicalName(g.Name)
			if gh == host && (t.r.cfg.NoBailiwick || dnswire.IsSubdomain(gh, newZone)) {
				addrs = append(addrs, internAddr(a.Addr))
			}
		}
	}
	if len(addrs) > 0 {
		t.descend(newZone, addrs)
		return
	}

	// Glueless referral: the host list is only needed now, off the hot
	// path.
	hosts := make([]string, 0, len(ns))
	for _, rr := range ns {
		hosts = append(hosts, dnswire.CanonicalName(rr.Data.(dnswire.NS).Host))
	}
	if !t.r.cfg.NoCache {
		// Try cache for the NS host addresses (they may be out of
		// bailiwick but already known).
		for _, host := range hosts {
			v := t.r.cache.Peek(cache.Key{Name: host, Type: dnswire.TypeA}, t.shard)
			if v.Hit && !v.Negative {
				for _, rr := range v.Records {
					addrs = append(addrs, internAddr(rr.Data.(dnswire.A).Addr))
				}
			}
		}
	}

	if len(addrs) == 0 {
		t.resolveNSAddrs(hosts, newZone)
		return
	}

	t.descend(newZone, addrs)
}

func (t *task) descend(newZone string, addrs []netsim.Addr) {
	// Callers descend only into a zone they hold an address for.
	t.r.event(kReferral, payload{name: newZone, probe: t.name, a: uint32(len(addrs)), dst: addrs[0]})
	// Referral progress starts a new fetch, its attempts counted afresh;
	// the shared budget still bounds total work.
	t.fetch(newZone, addrs, t.r.cfg.InitialTimeout)
	// The client's own query goes out before any background harvesting,
	// so a tight work budget is spent on the answer first.
	t.tryNextServer()
	if t.r.cfg.Harvest != HarvestNone {
		t.r.maybeHarvest(newZone, t.shard)
	}
}

// resolveNSAddrs resolves the address of a delegated zone's nameservers
// via a subtask, then descends.
func (t *task) resolveNSAddrs(hosts []string, newZone string) {
	if t.depth >= maxDepth || len(hosts) == 0 {
		t.fail()
		return
	}
	if k := t.r.cfg.MaxFetch; k > 0 && len(hosts) > k {
		// NXNSAttack max-fetch(k): a glueless delegation only gets k
		// NS-address resolutions, capping the fan-out a malicious
		// referral can force (Afek et al. §6).
		hosts = hosts[:k]
	}
	// Try hosts in order until one yields addresses. The closures pin t.
	if !t.pinned && t.job != nil {
		t.r.jobsOut--
	}
	t.pinned = true
	var tryHost func(i int)
	tryHost = func(i int) {
		if t.done {
			return
		}
		if i >= len(hosts) || *t.budget <= 0 {
			t.fail()
			return
		}
		sub := &task{
			r: t.r, name: hosts[i], qtype: dnswire.TypeA,
			shard: t.shard, depth: t.depth + 1, budget: t.budget,
			cb: func(res Result) {
				addrs := t.serverBuf()
				for _, rr := range res.Answers {
					if a, ok := rr.Data.(dnswire.A); ok {
						addrs = append(addrs, internAddr(a.Addr))
					}
				}
				if len(addrs) > 0 {
					t.descend(newZone, addrs)
					return
				}
				tryHost(i + 1)
			},
		}
		sub.run()
	}
	tryHost(0)
}

// maybeHarvest issues background NS/A/AAAA queries for a zone's
// nameservers, at most once per negative-TTL-ish interval. This reproduces
// the authoritative-side query mix of Figure 10: the AAAA-for-NS records
// do not exist, so their negative entries expire quickly and the harvest
// repeats. The harvest runs on its own bounded budget so it never starves
// the client's query.
func (r *Resolver) maybeHarvest(zone string, shard int) {
	const harvestInterval = 60 * time.Second
	ws := r.work()
	now, k := r.clk.Now(), ridZone{r.rid, zone}
	if last, ok := ws.harvests[k]; ok && now.Sub(last) < harvestInterval {
		return
	}
	if ws.harvests == nil {
		ws.harvests = make(map[ridZone]time.Time)
	}
	ws.harvests[k] = now
	pool := r.cfg.WorkBudget/4 + 2
	budget := &pool

	ns := r.cache.Peek(cache.Key{Name: zone, Type: dnswire.TypeNS}, shard)
	if !ns.Hit || ns.Negative {
		return
	}
	// Re-fetch the zone's nameserver records. Entries already confirmed
	// by an authoritative answer (RankAnswer) are not re-fetched. In
	// HarvestAAAA mode only the (usually missing) AAAA records are
	// chased; HarvestFull also replaces the referral NS set and glue with
	// child-side data (Appendix A).
	if r.cfg.Harvest == HarvestFull {
		r.background(zone, dnswire.TypeNS, shard, budget, false)
	}
	for _, rr := range ns.Records {
		host := dnswire.CanonicalName(rr.Data.(dnswire.NS).Host)
		if r.cfg.Harvest == HarvestFull {
			r.background(host, dnswire.TypeA, shard, budget, false)
		}
		r.background(host, dnswire.TypeAAAA, shard, budget, false)
	}
}

// maybePrefetch refreshes an entry nearing expiry (Unbound-style
// prefetch): when a hit finds less than cfg.Prefetch of the original TTL
// remaining, the record is refetched in the background so popular names
// never leave the cache.
func (r *Resolver) maybePrefetch(name string, qtype dnswire.Type, shard int, v cache.View) {
	if r.cfg.Prefetch <= 0 || len(v.Records) == 0 {
		return
	}
	remaining := time.Duration(v.TTL) * time.Second
	original := v.Age + remaining
	if original <= 0 || float64(remaining) > r.cfg.Prefetch*float64(original) {
		return
	}
	pool := 4
	r.background(name, qtype, shard, &pool, true)
}

// background runs a fire-and-forget resolution on a pooled job, spending
// budget and bypassing cache entries that were not authoritatively
// confirmed. force refetches even over confirmed data (prefetch).
func (r *Resolver) background(name string, qtype dnswire.Type, shard int, budget *int, force bool) {
	if *budget <= 0 {
		return
	}
	name = dnswire.CanonicalName(name)
	if !force {
		if v := r.cache.Peek(cache.Key{Name: name, Type: qtype}, shard); v.Hit && v.Rank >= cache.RankAnswer {
			return // authoritative data already cached
		}
	}
	t := &r.getJob().task
	t.r, t.name, t.qtype, t.shard = r, name, qtype, shard
	t.depth = maxDepth // no nested subtasks
	t.budget, t.skipCacheLookup = budget, true
	if !t.initFetch() {
		t.finish(Result{}) // never started: straight back to the pool
		return
	}
	t.tryNextServer()
}

// validateAnswer checks the DNSSEC signatures of every answer RRset whose
// signer zone has a trust anchor. Unsigned data from unanchored zones
// passes (insecure), matching a validator without a chain to it; signed
// or anchored data must verify.
func (t *task) validateAnswer(m *dnswire.Message) bool {
	anchors := t.r.cfg.TrustAnchors
	if len(anchors) == 0 {
		return true
	}
	type setKey struct {
		name string
		typ  dnswire.Type
	}
	sets := make(map[setKey][]dnswire.RR)
	sigs := make(map[setKey]dnswire.RR)
	for _, rr := range m.Answers {
		name := dnswire.CanonicalName(rr.Name)
		if sig, ok := rr.Data.(dnswire.RRSIG); ok {
			sigs[setKey{name, sig.TypeCovered}] = rr
			continue
		}
		k := setKey{name, rr.Type()}
		sets[k] = append(sets[k], rr)
	}
	for k, rrs := range sets {
		// Which anchor zone encloses this owner?
		anchorZone, key, found := "", dnswire.DNSKEY{}, false
		for zone, dk := range anchors {
			zone = dnswire.CanonicalName(zone)
			if dnswire.IsSubdomain(k.name, zone) &&
				(!found || dnswire.CountLabels(zone) > dnswire.CountLabels(anchorZone)) {
				anchorZone, key, found = zone, dk, true
			}
		}
		if !found {
			continue // no anchor: insecure, accepted
		}
		sig, ok := sigs[k]
		if !ok {
			return false // anchored zone data without a signature: bogus
		}
		if err := dnssec.Verify(key, sig, rrs, t.r.clk.Now()); err != nil {
			return false
		}
	}
	return true
}

// cacheRRs groups records into RRsets and stores them at the given rank,
// in the order of each set's first record. Each owner name is
// canonicalized once into the working set's key scratch; a set is gathered
// in its set scratch by rescanning from its first record (the lists are a
// handful of records), and Put copies what it keeps.
func (t *task) cacheRRs(rrs []dnswire.RR, rank cache.Rank) {
	r := t.r
	if r.cfg.NoCache || len(rrs) == 0 {
		return
	}
	ws := r.work()
	keys := ws.keyScratch[:0]
	for i := range rrs {
		keys = append(keys, cache.Key{Name: dnswire.CanonicalName(rrs[i].Name), Type: rrs[i].Type()})
	}
	for i, k := range keys {
		if k.Name == "" {
			continue // in an earlier record's set
		}
		set := ws.setScratch[:0]
		for j := i; j < len(keys); j++ {
			if keys[j] == k {
				set = append(set, rrs[j])
				keys[j].Name = "" // canonical names are never empty
			}
		}
		r.cache.Put(k, cache.Entry{Records: set, Rank: rank}, t.shard)
		ws.setScratch = set[:0]
	}
	ws.keyScratch = keys[:0]
}

// cacheAuthorityAndGlue stores referral NS sets and in-bailiwick glue
// addresses. Glue credibility is scoped by the delegation: an
// additional-section record is cached only when it is an address record
// whose owner sits inside the zone the NS set covers. Anything else —
// addresses outside the bailiwick, or non-address types such as the EDNS
// OPT pseudo-record — is dropped, never cached.
func (t *task) cacheAuthorityAndGlue(m *dnswire.Message) {
	if t.r.cfg.NoCache {
		return
	}
	// The NS and glue lists live only for this call (Put copies what the
	// cache keeps), so they borrow the working set's scratch buffer. The
	// event loop is single-threaded and this function never yields, so the
	// buffer cannot be observed mid-use.
	ws := t.r.work()
	nsRRs := ws.rrScratch[:0]
	for _, rr := range m.Authorities {
		if rr.Type() == dnswire.TypeNS {
			nsRRs = append(nsRRs, rr)
		}
	}
	rank := cache.RankAuthority
	if m.Authoritative {
		rank = cache.RankAnswer
	}
	t.cacheRRs(nsRRs, rank)

	bailiwick := ""
	if len(nsRRs) > 0 {
		bailiwick = dnswire.CanonicalName(nsRRs[0].Name)
	} else {
		// An authoritative NS answer (no authority NS set) still carries
		// its glue in the additional section; scope it to the answer's
		// owner zone.
		for _, rr := range m.Answers {
			if rr.Type() == dnswire.TypeNS {
				bailiwick = dnswire.CanonicalName(rr.Name)
				break
			}
		}
	}
	if bailiwick == "" {
		ws.rrScratch = nsRRs[:0]
		return // no NS set in sight: no additional is credible
	}
	glue := nsRRs[:0] // the NS set was copied by cacheRRs above
	for _, rr := range m.Additionals {
		if typ := rr.Type(); typ != dnswire.TypeA && typ != dnswire.TypeAAAA {
			continue
		}
		if !t.r.cfg.NoBailiwick && !dnswire.IsSubdomain(dnswire.CanonicalName(rr.Name), bailiwick) {
			continue
		}
		glue = append(glue, rr)
	}
	t.cacheRRs(glue, cache.RankAdditional)
	ws.rrScratch = glue[:0]
}

// cacheNegative stores an NXDOMAIN or NODATA entry for the current name.
func (t *task) cacheNegative(m *dnswire.Message, nxdomain bool) {
	if t.r.cfg.NoCache {
		return
	}
	soa := soaOf(m)
	if soa.Data == nil {
		return // unusable without a SOA (RFC 2308)
	}
	t.r.cache.Put(cache.Key{Name: t.name, Type: t.qtype}, cache.Entry{
		Negative: true, NXDomain: nxdomain, SOA: soa, Rank: cache.RankAnswer,
	}, t.shard)
}

// soaOf extracts the authority SOA from a negative response.
func soaOf(m *dnswire.Message) dnswire.RR {
	for _, rr := range m.Authorities {
		if rr.Type() == dnswire.TypeSOA {
			return rr
		}
	}
	return dnswire.RR{}
}

// referralNS returns the NS set of a referral that makes downward
// progress: owned by a name deeper than the current zone and enclosing
// the query name.
// The returned slice borrows the working set's scratch buffer: it is
// valid only until the next referralNS call on the network (callers
// consume it within the same event dispatch).
func referralNS(r *Resolver, m *dnswire.Message, currentZone, qname string) []dnswire.RR {
	if m.Authoritative {
		return nil
	}
	ws := r.work()
	ns := ws.nsScratch[:0]
	defer func() { ws.nsScratch = ns[:0] }()
	owner := ""
	for _, rr := range m.Authorities {
		if rr.Type() != dnswire.TypeNS {
			continue
		}
		name := dnswire.CanonicalName(rr.Name)
		if owner == "" {
			owner = name
		}
		if name == owner {
			ns = append(ns, rr)
		}
	}
	if owner == "" {
		return nil
	}
	if !dnswire.IsSubdomain(qname, owner) {
		return nil
	}
	if dnswire.CountLabels(owner) <= dnswire.CountLabels(currentZone) {
		return nil // upward or sideways referral: lame
	}
	return ns
}

// internAddr converts a glue address to its simulator string form
// (dnswire interns it: bounded, and free after the first sighting).
func internAddr(a netip.Addr) netsim.Addr { return netsim.Addr(dnswire.AddrString(a)) }
