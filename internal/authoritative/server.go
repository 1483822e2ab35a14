// Package authoritative implements an authoritative DNS server engine: it
// answers queries for the zones it hosts with authoritative answers,
// referrals with glue, CNAME chains, and RFC 2308 negative answers. The
// engine is transport-agnostic (Handle is a pure function of the query);
// Attach binds it to a netsim network, and cmd/authd runs it on real UDP.
package authoritative

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/zone"
)

// maxCNAMEChase bounds in-zone CNAME chain expansion.
const maxCNAMEChase = 8

// Stats counts served traffic.
type Stats struct {
	Queries   int64
	Responses int64
	ByRCode   map[dnswire.RCode]int64
	ByType    map[dnswire.Type]int64
	Referrals int64
	Malformed int64
	Truncated int64
	// Forced counts answers whose rcode was overridden by the
	// SetForcedRCode failure dial (disruption-phase emulation).
	Forced int64
}

// counters holds the server's scalar metrics as embedded atomics so the
// wire paths never take the zone lock just to count (see internal/metrics).
type counters struct {
	queries   metrics.Counter
	responses metrics.Counter
	referrals metrics.Counter
	malformed metrics.Counter
	truncated metrics.Counter
}

// Server hosts one or more zones at a single network address.
type Server struct {
	mu    sync.RWMutex
	zones []*zone.Zone // sorted by descending origin label count
	// zone0 backs zones for the ubiquitous single-zone server, so adding
	// the first zone allocates nothing.
	zone0   [1]*zone.Zone
	m       counters
	trace   *trace.Buffer
	port    netsim.Port
	tcpPort *netsim.TCPPort
	// byRCode and byType tally responses and queries. Fixed arrays keep
	// the per-query paths allocation-free; the rare query type outside
	// the array range falls back to a lazily built map.
	byRCode     [16]int64
	byType      [64]int64
	byTypeOther map[dnswire.Type]int64
	// Forced-rcode failure dial (SetForcedRCode), all under mu. The
	// accumulator implements deterministic error diffusion: no RNG, so a
	// run's forced-answer pattern is a pure function of arrival order.
	forcedRC   dnswire.RCode
	forcedFrac float64
	forcedAcc  float64
	forcedHits int64
}

// SetForcedRCode makes the server answer frac of subsequent in-zone
// queries with rc instead of zone data, emulating an authoritative that
// stays reachable but fails (the NXDOMAIN/SERVFAIL disruption modes of
// internal/ddos.Phase). The selection is deterministic error diffusion —
// an accumulator gains frac per eligible query and a forced answer fires
// each time it crosses 1 — so the same query sequence always corrupts
// the same answers. frac <= 0 clears the dial.
func (s *Server) SetForcedRCode(rc dnswire.RCode, frac float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if frac <= 0 {
		s.forcedFrac, s.forcedAcc = 0, 0
		return
	}
	s.forcedRC, s.forcedFrac, s.forcedAcc = rc, frac, 0
}

// forceRCode advances the error-diffusion accumulator for one eligible
// query and reports whether this answer's rcode is overridden.
func (s *Server) forceRCode(resp *dnswire.Message) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.forcedFrac <= 0 {
		return false
	}
	s.forcedAcc += s.forcedFrac
	if s.forcedAcc < 1 {
		return false
	}
	s.forcedAcc--
	s.forcedHits++
	resp.RCode = s.forcedRC
	// The server is authoritative for the zone, so the forced negative
	// carries the AA bit — caches treat it like a genuine denial.
	resp.Authoritative = true
	return true
}

// New creates a server hosting the given zones.
func New(zones ...*zone.Zone) *Server {
	s := &Server{}
	for _, z := range zones {
		s.AddZone(z)
	}
	return s
}

// Init prepares a single-zone server in place (the arena-friendly twin of
// New, for callers that batch-allocate servers).
func (s *Server) Init(z *zone.Zone) {
	*s = Server{}
	s.AddZone(z)
}

// AddZone adds z to the served set.
func (s *Server) AddZone(z *zone.Zone) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.zones == nil {
		s.zones = s.zone0[:0]
	}
	s.zones = append(s.zones, z)
	if len(s.zones) > 1 {
		sort.SliceStable(s.zones, func(i, j int) bool {
			return dnswire.CountLabels(s.zones[i].Origin()) > dnswire.CountLabels(s.zones[j].Origin())
		})
	}
}

// Zones returns the hosted zones, most specific first.
func (s *Server) Zones() []*zone.Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*zone.Zone(nil), s.zones...)
}

// findZone returns the most specific hosted zone containing name.
func (s *Server) findZone(name string) *zone.Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, z := range s.zones {
		if dnswire.IsSubdomain(name, z.Origin()) {
			return z
		}
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	out := Stats{
		Queries:   s.m.queries.Value(),
		Responses: s.m.responses.Value(),
		Referrals: s.m.referrals.Value(),
		Malformed: s.m.malformed.Value(),
		Truncated: s.m.truncated.Value(),
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out.Forced = s.forcedHits
	out.ByRCode = make(map[dnswire.RCode]int64)
	for k, v := range s.byRCode {
		if v != 0 {
			out.ByRCode[dnswire.RCode(k)] = v
		}
	}
	out.ByType = make(map[dnswire.Type]int64)
	for k, v := range s.byType {
		if v != 0 {
			out.ByType[dnswire.Type(k)] = v
		}
	}
	for k, v := range s.byTypeOther {
		out.ByType[k] = v
	}
	return out
}

// CollectMetrics folds the server's counters into sc. Per-rcode and
// per-qtype tallies become counters named rcode_NOERROR, qtype_AAAA, etc.
func (s *Server) CollectMetrics(sc metrics.Scope) {
	sc.Add("queries", s.m.queries.Value())
	sc.Add("responses", s.m.responses.Value())
	sc.Add("referrals", s.m.referrals.Value())
	sc.Add("malformed", s.m.malformed.Value())
	sc.Add("truncated", s.m.truncated.Value())
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.forcedHits != 0 {
		sc.Add("forced_rcode", s.forcedHits)
	}
	for k, v := range s.byRCode {
		if v != 0 {
			sc.Add("rcode_"+dnswire.RCode(k).String(), v)
		}
	}
	for k, v := range s.byType {
		if v != 0 {
			sc.Add("qtype_"+dnswire.Type(k).String(), v)
		}
	}
	for k, v := range s.byTypeOther {
		sc.Add("qtype_"+k.String(), v)
	}
}

// HandleWire unpacks a query, answers it, and packs the response. A nil
// return means the input should be dropped silently (malformed, or a
// response packet). Responses exceeding the client's UDP payload size
// (512 octets, or the EDNS0-advertised size) are truncated: sections
// emptied and the TC bit set, telling the client to retry over TCP.
func (s *Server) HandleWire(payload []byte) []byte {
	return s.HandleWireAppend(nil, payload)
}

// HandleWireAppend is HandleWire building the response in dst's storage
// (pass buf[:0]; nil allocates), so a caller that answers one packet at a
// time — authd's UDP handler — reuses one buffer for every response.
func (s *Server) HandleWireAppend(dst, payload []byte) []byte {
	return s.handleWireAppend(payload, false, dst)
}

// HandleWireTCP is HandleWire without the UDP size limit (RFC 7766: TCP
// responses are never truncated below the 64 KiB framing bound).
func (s *Server) HandleWireTCP(payload []byte) []byte {
	return s.handleWireAppend(payload, true, nil)
}

// msgPool recycles decode/encode scratch messages for the wire path. The
// pool (rather than per-server scratch) keeps handleWireAppend safe for the
// real servers in cmd/, which handle connections concurrently.
var msgPool = sync.Pool{New: func() any { return new(dnswire.Message) }}

// handleWireAppend answers payload into dst's storage (which may be
// nil): authd's UDP handler hands in a reused buffer, the TCP daemon
// passes nil and owns the returned slice. The query is decoded borrowed
// (dnswire.UnpackBorrow): its names, and a wildcard answer's owner, are
// packed before q goes back to the pool.
func (s *Server) handleWireAppend(payload []byte, tcp bool, dst []byte) []byte {
	q := msgPool.Get().(*dnswire.Message)
	defer msgPool.Put(q)
	if err := dnswire.UnpackBorrow(q, payload); err != nil {
		s.m.malformed.Inc()
		return nil
	}
	resp := msgPool.Get().(*dnswire.Message)
	defer msgPool.Put(resp)
	if !s.handle(q, resp) {
		return nil
	}
	wire, cut := s.fit(q, resp, tcp, dst)
	if cut {
		wire, _ = resp.AppendPack(wire[:0])
	}
	return wire
}

// fit packs resp, the answer to q, into dst's storage; nil means nothing
// is sent. A UDP response over the query's size limit is counted, traced
// and truncated in place (dnswire.Message.Truncate), and fit reports the
// cut: the returned bytes are then those of the reply before it.
func (s *Server) fit(q, resp *dnswire.Message, tcp bool, dst []byte) ([]byte, bool) {
	wire, err := resp.AppendPack(dst) // nil on error
	if limit := q.UDPPayloadLimit(); err == nil && !tcp && len(wire) > limit {
		s.m.truncated.Inc()
		if tr := s.trace; tr != nil {
			tr.Emit(trace.Event{Type: trace.EvTruncate,
				Probe: trace.ProbeFromMsg(q),
				A:     uint32(len(wire)), B: uint32(limit)})
		}
		resp.Truncate()
		return wire, true
	}
	return wire, false
}

// Handle answers a parsed query. It returns nil for messages that must be
// ignored (responses, or queries without a question).
func (s *Server) Handle(q *dnswire.Message) *dnswire.Message {
	resp := &dnswire.Message{}
	if !s.handle(q, resp) {
		return nil
	}
	return resp
}

// handle answers q into resp (a response skeleton is built in place, so
// pooled messages keep their section capacity). It reports whether resp
// holds a response to send.
func (s *Server) handle(q, resp *dnswire.Message) bool {
	if q.Response {
		return false
	}
	s.m.queries.Inc()
	resp.ResetResponse(q)
	resp.RecursionAvailable = false

	if q.Opcode != dnswire.OpcodeQuery || len(q.Questions) != 1 {
		resp.RCode = dnswire.RCodeNotImp
		s.finish(resp)
		return true
	}
	question := q.Questions[0]
	question.Name = dnswire.CanonicalName(question.Name)
	if question.Class != dnswire.ClassIN && question.Class != dnswire.ClassANY {
		resp.RCode = dnswire.RCodeRefused
		s.finish(resp)
		return true
	}
	s.mu.Lock()
	if question.Type < dnswire.Type(len(s.byType)) {
		s.byType[question.Type]++
	} else {
		if s.byTypeOther == nil {
			s.byTypeOther = make(map[dnswire.Type]int64)
		}
		s.byTypeOther[question.Type]++
	}
	// Sampled inside the critical section the tally already pays for, so
	// the disabled dial costs the fast path nothing extra.
	forcedArmed := s.forcedFrac > 0
	s.mu.Unlock()

	z := s.findZone(question.Name)
	if z == nil {
		resp.RCode = dnswire.RCodeRefused
		s.finish(resp)
		return true
	}
	_, do, hasEDNS := q.EDNS()
	if !forcedArmed || !s.forceRCode(resp) {
		s.answerFromZone(resp, z, question.Name, question.Type, 0)
		if do {
			s.addDenialProof(resp, z, question)
			s.addSignatures(resp, z)
		}
	}
	if hasEDNS {
		resp.AddEDNS(4096, do)
	}
	s.finish(resp)
	if tr := s.trace; tr != nil {
		// The event outlives the query, whose name may be borrowed.
		if probe := trace.ProbeFromName(question.Name); tr.Sampled(probe) {
			tr.Emit(trace.Event{Type: trace.EvAuthAnswer, Probe: probe,
				A: uint32(resp.RCode), B: uint32(question.Type), Name: strings.Clone(question.Name)})
		}
	}
	return true
}

// addDenialProof attaches the covering NSEC record to negative responses
// (RFC 4035 §3.1.3) when the zone carries a chain. Wildcard-denial NSECs
// are not included (this implementation synthesizes no signed wildcards).
func (s *Server) addDenialProof(resp *dnswire.Message, z *zone.Zone, q dnswire.Question) {
	negative := resp.RCode == dnswire.RCodeNXDomain ||
		(resp.RCode == dnswire.RCodeNoError && len(resp.Answers) == 0 && resp.Authoritative)
	if !negative {
		return
	}
	if nsec, ok := dnssec.CoveringNSEC(z, q.Name); ok {
		resp.Authorities = append(resp.Authorities, nsec)
	}
}

// addSignatures appends the RRSIGs covering every RRset already placed in
// the answer and authority sections (RFC 4035 §3.1: signatures accompany
// the data when the DO bit is set).
func (s *Server) addSignatures(resp *dnswire.Message, z *zone.Zone) {
	resp.Answers = appendSigs(resp.Answers, z)
	resp.Authorities = appendSigs(resp.Authorities, z)
}

// appendSigs appends to section the zone's RRSIGs over each RRset in it,
// once per set: a record whose (name, type) an earlier record of the
// section has is skipped. Sections are a handful of records, so the scan
// back costs less than a set would.
func appendSigs(section []dnswire.RR, z *zone.Zone) []dnswire.RR {
	n := len(section)
	for i := 0; i < n; i++ {
		rr := section[i]
		t := rr.Type()
		if t == dnswire.TypeRRSIG || seenSet(section[:i], rr.Name, t) {
			continue
		}
		z.AppendSigs(&section, dnswire.CanonicalName(rr.Name), t)
	}
	return section
}

// seenSet reports whether rrs hold a record of the set (name, t).
func seenSet(rrs []dnswire.RR, name string, t dnswire.Type) bool {
	for j := len(rrs) - 1; j >= 0; j-- {
		if rrs[j].Type() == t && dnswire.CanonicalName(rrs[j].Name) == dnswire.CanonicalName(name) {
			return true
		}
	}
	return false
}

func (s *Server) answerFromZone(resp *dnswire.Message, z *zone.Zone, name string, qtype dnswire.Type, depth int) {
	// Records land in resp.Answers and glue in resp.Additionals without an
	// intermediate slice; the delegation branch relocates the NS set into
	// the authority section afterwards.
	ansStart := len(resp.Answers)
	kind, soa := z.AppendLookup(name, qtype, &resp.Answers, &resp.Additionals)
	switch kind {
	case zone.Success:
		resp.Authoritative = true
		if qtype == dnswire.TypeNS {
			s.addNSGlue(resp, z, resp.Answers[ansStart:])
		}
	case zone.CName:
		resp.Authoritative = true
		target := dnswire.CanonicalName(resp.Answers[ansStart].Data.(dnswire.CNAME).Target)
		if depth < maxCNAMEChase && dnswire.IsSubdomain(target, z.Origin()) {
			s.answerFromZone(resp, z, target, qtype, depth+1)
		}
	case zone.Delegation:
		// Referral: not authoritative, NS set in authority, glue in
		// additional (the Appendix A parent-side shape).
		resp.Authorities = append(resp.Authorities, resp.Answers[ansStart:]...)
		resp.Answers = resp.Answers[:ansStart]
		s.m.referrals.Inc()
	case zone.NXDomain:
		resp.Authoritative = true
		if depth == 0 {
			resp.RCode = dnswire.RCodeNXDomain
		}
		if soa.Data != nil {
			resp.Authorities = append(resp.Authorities, soa)
		}
	case zone.NoData:
		resp.Authoritative = true
		if soa.Data != nil {
			resp.Authorities = append(resp.Authorities, soa)
		}
	case zone.NotInZone:
		resp.RCode = dnswire.RCodeRefused
	}
}

// addNSGlue appends in-zone addresses for NS answer targets.
func (s *Server) addNSGlue(resp *dnswire.Message, z *zone.Zone, nsSet []dnswire.RR) {
	for _, rr := range nsSet {
		ns, ok := rr.Data.(dnswire.NS)
		if !ok {
			continue
		}
		host := dnswire.CanonicalName(ns.Host)
		for _, t := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
			start := len(resp.Additionals)
			var spill []dnswire.RR
			if kind, _ := z.AppendLookup(host, t, &resp.Additionals, &spill); kind != zone.Success {
				resp.Additionals = resp.Additionals[:start]
			}
		}
	}
}

func (s *Server) finish(resp *dnswire.Message) {
	s.m.responses.Inc()
	s.mu.Lock()
	s.byRCode[resp.RCode&0xF]++
	s.mu.Unlock()
}

// Attach binds the server to addr on the network and returns the port.
// The server inherits the network's trace buffer, which carries its own
// clock, so the transport-agnostic Handle needs none.
func (s *Server) Attach(net *netsim.Network, addr netsim.Addr) *netsim.Port {
	s.trace = net.Trace()
	s.port = net.BindHost(addr, s)
	return &s.port
}

// AttachTCP additionally binds the server on the network's TCP plane at
// addr, serving the same zones without the UDP size limit.
func (s *Server) AttachTCP(net *netsim.Network, addr netsim.Addr) *netsim.TCPPort {
	s.tcpPort = net.BindTCP(addr, s.deliverTCP)
	return s.tcpPort
}

// deliverTCP is the TCP plane's entry point: the reply goes as its
// message, never truncated.
func (s *Server) deliverTCP(src netsim.Addr, q *dnswire.Message) {
	resp := msgPool.Get().(*dnswire.Message)
	if s.handle(q, resp) {
		if _, err := resp.WireLenBound(); err == nil {
			s.tcpPort.SendMsg(src, resp)
		}
	}
	msgPool.Put(resp)
}

// Deliver is the attached port's entry point (netsim.Host).
func (s *Server) Deliver(src netsim.Addr, q *dnswire.Message) { s.serve(&s.port, src, q) }

// AttachAnycast announces the server at service from every site
// (netsim.Network.BindAnycast). Each site answers the packets its
// catchment delivers as Attach's port does, replying from service. Like
// Attach, it hands the server the network's trace buffer.
func (s *Server) AttachAnycast(net *netsim.Network, service netsim.Addr, sites []netsim.Addr) {
	s.trace = net.Trace()
	h := &anycastSite{s: s, port: net.BindAnycast(service, sites, nil)}
	for _, site := range sites {
		net.BindHost(site, h)
	}
}

// anycastSite is the host bound at each site of an anycast service.
type anycastSite struct {
	s    *Server
	port *netsim.Port
}

func (h *anycastSite) Deliver(src netsim.Addr, q *dnswire.Message) { h.s.serve(h.port, src, q) }

// serve answers a UDP query and replies through port with the message.
// A reply whose uncompressed length is over the query's UDP limit is
// packed once to measure it, and truncated in place if still over.
func (s *Server) serve(port *netsim.Port, src netsim.Addr, q *dnswire.Message) {
	resp := msgPool.Get().(*dnswire.Message)
	if s.handle(q, resp) {
		if bound, err := resp.WireLenBound(); err == nil && bound <= q.UDPPayloadLimit() {
			port.SendMsg(src, resp)
		} else {
			bp := wireBufPool.Get().(*[]byte)
			if wire, _ := s.fit(q, resp, false, (*bp)[:0]); wire != nil {
				port.SendMsg(src, resp)
				*bp = wire[:0]
			}
			wireBufPool.Put(bp)
		}
	}
	msgPool.Put(resp)
}

// wireBufPool recycles the buffers serve measures over-the-bound replies
// in.
var wireBufPool = sync.Pool{New: func() any { return new([]byte) }}
