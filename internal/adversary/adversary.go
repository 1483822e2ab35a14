// Package adversary implements the malicious actors of the adversarial
// scenario library (experiment family "adversary"):
//
//   - NXNSAuth: a malicious authoritative that answers every in-zone
//     query with a glueless referral to a wide, fabricated NS set under
//     the victim's domain, forcing the resolver to fan one client query
//     out into `width` NS-address resolutions at the victim
//     (NXNSAttack, Afek et al. 2020). internal/recursive's
//     Config.MaxFetch is the max-fetch(k) mitigation it measures.
//
//   - Spoofer: an off-path attacker racing the legitimate answer with
//     forged responses, sweeping a query-ID guess window with a
//     configurable port-guess success rate. Defenses under test:
//     recursive.Config.RandomIDs (ID entropy) and the bailiwick check
//     (recursive.Config.NoBailiwick disables it for baselines).
//
//   - Reflector and VictimSink: a reflection/amplification source that
//     bounces small spoofed-source queries off open servers, and the
//     victim-side byte counter that measures the amplification factor.
//
// All actors are deterministic: they draw nothing from global state, so
// scenario runs embed them in sharded cells and merge results exactly.
package adversary

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// NXNSHostName fabricates the j-th (0-based) NS target of a referral
// triggered by a query whose first label is qlabel. The shape
// "ns<j>.<qlabel>.nx.<victim domain>" keeps every delegation unique per
// triggering query (defeating negative caching across probes) while the
// fixed "nx" marker label lets victim-side taps attribute load.
func NXNSHostName(j int, qlabel, victimDomain string) string {
	return fmt.Sprintf("ns%d.%s.nx.%s", j+1, qlabel, victimDomain)
}

// ParseNXNSHost reports whether name is a fabricated NXNS target and, if
// so, the triggering query's first label.
func ParseNXNSHost(name string) (qlabel string, ok bool) {
	parts := strings.SplitN(name, ".", 4)
	if len(parts) < 4 || parts[2] != "nx" || !strings.HasPrefix(parts[0], "ns") {
		return "", false
	}
	return parts[1], true
}

// NXNSConfig shapes a malicious authoritative.
type NXNSConfig struct {
	// Zone is the apex the attacker controls (delegated from the parent
	// with glue, e.g. "w8.evil.nl.").
	Zone string
	// Width is the number of fabricated out-of-zone NS names per
	// referral — the delegation width axis of the report table.
	Width int
	// VictimDomain is the domain the fabricated NS targets point into.
	// The referral carries no glue, so the resolver must query the
	// victim's authoritatives for every target.
	VictimDomain string
	// TTL of the referral NS set (default 600).
	TTL uint32
}

// NXNSAuth is the malicious authoritative. Attach binds it; it then
// answers every query under its zone with the NXNS referral.
type NXNSAuth struct {
	cfg  NXNSConfig
	port netsim.Port
	tr   *trace.Buffer

	queries   metrics.Counter
	referrals metrics.Counter

	// resp is the reply scratch, as the event loop is single-threaded.
	resp dnswire.Message
}

// NewNXNSAuth builds a malicious authoritative for cfg.
func NewNXNSAuth(cfg NXNSConfig) *NXNSAuth {
	if cfg.TTL == 0 {
		cfg.TTL = 600
	}
	cfg.Zone = dnswire.CanonicalName(cfg.Zone)
	cfg.VictimDomain = dnswire.CanonicalName(cfg.VictimDomain)
	return &NXNSAuth{cfg: cfg}
}

// Attach binds the server at addr; it inherits the network's trace
// buffer.
func (a *NXNSAuth) Attach(net *netsim.Network, addr netsim.Addr) {
	a.tr = net.Trace()
	a.port = net.BindHost(addr, a)
}

// Deliver answers a query (netsim.Host).
func (a *NXNSAuth) Deliver(src netsim.Addr, m *dnswire.Message) {
	if m.Response || len(m.Questions) == 0 {
		return
	}
	a.queries.Inc()
	q := m.Question1()
	qname := dnswire.CanonicalName(q.Name)

	resp := &a.resp
	resp.ResetResponse(m)
	if !dnswire.IsSubdomain(qname, a.cfg.Zone) {
		resp.RCode = dnswire.RCodeRefused
	} else {
		// The NXNS referral: delegate the query name itself to Width
		// fabricated, glueless NS targets under the victim domain. The
		// owner is one label below the current zone, so the resolver's
		// downward-progress check accepts it; the targets are out of
		// bailiwick, so no glue could be credible even if sent.
		resp.Authoritative = false
		qlabel := qname
		if i := strings.IndexByte(qlabel, '.'); i >= 0 {
			qlabel = qlabel[:i]
		}
		for j := 0; j < a.cfg.Width; j++ {
			resp.Authorities = append(resp.Authorities, dnswire.RR{
				Name: qname, Class: dnswire.ClassIN, TTL: a.cfg.TTL,
				Data: dnswire.NS{Host: NXNSHostName(j, qlabel, a.cfg.VictimDomain)},
			})
		}
		a.referrals.Inc()
		if a.tr != nil {
			a.tr.Emit(trace.Event{Type: trace.EvAdvReferral,
				Probe: trace.ProbeFromName(qname), Name: qname,
				A: uint32(a.cfg.Width), Src: string(a.port.Addr()), Dst: string(src)})
		}
	}
	if _, err := resp.WireLenBound(); err == nil {
		a.port.SendMsg(src, resp)
	}
}

// CollectMetrics folds the server's counters into s.
func (a *NXNSAuth) CollectMetrics(s metrics.Scope) {
	s.Add("nxns_queries", a.queries.Value())
	s.Add("nxns_referrals", a.referrals.Value())
}

// Referrals returns the number of NXNS referrals served.
func (a *NXNSAuth) Referrals() int64 { return a.referrals.Value() }

// ForgedPayload is the record content of a forged response.
type ForgedPayload struct {
	Answers     []dnswire.RR
	Authorities []dnswire.RR
	Additionals []dnswire.RR
	// AA sets the authoritative-answer bit on the forgery.
	AA bool
}

// SpoofConfig shapes an off-path spoofer.
type SpoofConfig struct {
	// Target is the victim resolver; Source is the impersonated
	// authoritative the forged responses claim to come from.
	Target, Source netsim.Addr
	// IDFirst..IDFirst+IDWindow-1 is the query-ID guess window swept
	// each wave. A fresh sequential-ID resolver allocates 1, 2, 3, ...,
	// so a small window starting at 1 models a realistic attacker;
	// against RandomIDs the same window hits with p ≈ IDWindow/65536.
	// Defaults: 1, 16.
	IDFirst  uint16
	IDWindow int
	// Waves and WaveEvery pace the spray across the resolution window:
	// wave w fires WaveEvery*w after Spray. Defaults: 24, 5ms.
	Waves     int
	WaveEvery time.Duration
	// PortGuess is the per-packet probability that the forged packet
	// lands on the right source port (1 = resolver has a fixed,
	// known port; 1/256, 1/64k... model port randomization). Packets
	// with a wrong port guess never reach the resolver socket and are
	// not injected. Default 1.
	PortGuess float64
	// Seed drives the port-guess draws.
	Seed int64
}

func (c SpoofConfig) withDefaults() SpoofConfig {
	if c.IDFirst == 0 {
		c.IDFirst = 1
	}
	if c.IDWindow == 0 {
		c.IDWindow = 16
	}
	if c.Waves == 0 {
		c.Waves = 24
	}
	if c.WaveEvery == 0 {
		c.WaveEvery = 5 * time.Millisecond
	}
	if c.PortGuess == 0 {
		c.PortGuess = 1
	}
	return c
}

// Spoofer injects forged responses into netsim with a spoofed source
// address, racing the legitimate answer.
type Spoofer struct {
	clk clock.Clock
	net *netsim.Network
	cfg SpoofConfig
	tr  *trace.Buffer
	rng *prng

	sent    metrics.Counter
	elided  metrics.Counter // wrong port guess: never injected
	payload ForgedPayload
	qname   string
	qtype   dnswire.Type
}

// NewSpoofer builds a spoofer on net (inheriting its trace buffer);
// Spray arms it.
func NewSpoofer(clk clock.Clock, net *netsim.Network, cfg SpoofConfig) *Spoofer {
	cfg = cfg.withDefaults()
	return &Spoofer{clk: clk, net: net, cfg: cfg, tr: net.Trace(), rng: newPRNG(cfg.Seed)}
}

// Spray schedules the full guess sweep for one triggered query: Waves
// bursts, each forging one response per ID in the guess window, starting
// `after` from now. The attacker triggers the query itself, so it times
// the spray relative to its own send.
func (s *Spoofer) Spray(qname string, qtype dnswire.Type, payload ForgedPayload, after time.Duration) {
	s.qname, s.qtype, s.payload = dnswire.CanonicalName(qname), qtype, payload
	for w := 0; w < s.cfg.Waves; w++ {
		w := w
		clock.AfterFunc(s.clk, after+time.Duration(w)*s.cfg.WaveEvery, func() { s.wave(w) })
	}
}

// wave forges one response and sends it once per guessed ID: only the
// header's ID changes between sends, and netsim copies the header.
func (s *Spoofer) wave(w int) {
	probe := trace.ProbeFromName(s.qname)
	m := dnswire.NewQuery(0, s.qname, s.qtype)
	m.Response = true
	m.RecursionAvailable = true
	m.Authoritative = s.payload.AA
	m.Answers = append(m.Answers, s.payload.Answers...)
	m.Authorities = append(m.Authorities, s.payload.Authorities...)
	m.Additionals = append(m.Additionals, s.payload.Additionals...)
	_, err := m.WireLenBound()
	for i := 0; i < s.cfg.IDWindow; i++ {
		m.ID = s.cfg.IDFirst + uint16(i)
		if s.cfg.PortGuess < 1 && s.rng.float64() >= s.cfg.PortGuess {
			s.elided.Inc()
		} else if err == nil {
			s.sent.Inc()
			if s.tr != nil {
				s.tr.Emit(trace.Event{Type: trace.EvSpoofSend, Probe: probe,
					Name: s.qname, A: uint32(m.ID), B: uint32(w),
					Src: string(s.cfg.Source), Dst: string(s.cfg.Target)})
			}
			s.net.SendMsg(s.cfg.Source, s.cfg.Target, m)
		}
	}
}

// CollectMetrics folds the spoofer's counters into sc.
func (s *Spoofer) CollectMetrics(sc metrics.Scope) {
	sc.Add("spoof_sent", s.sent.Value())
	sc.Add("spoof_wrong_port", s.elided.Value())
}

// Sent returns the number of forged packets injected.
func (s *Spoofer) Sent() int64 { return s.sent.Value() }

// ReflectConfig shapes a reflection source.
type ReflectConfig struct {
	// Victim is the forged source address all reflected responses home
	// to; Servers are the open servers bounced off, round-robin.
	Victim  netsim.Addr
	Servers []netsim.Addr
	// EDNSSize, when non-zero, adds an OPT record advertising this
	// buffer size so responses escape the 512-byte truncation floor —
	// the classic amplification enabler.
	EDNSSize uint16
}

// Reflector sends small spoofed-source queries whose (larger) responses
// flood the victim.
type Reflector struct {
	clk clock.Clock
	net *netsim.Network
	cfg ReflectConfig
	tr  *trace.Buffer

	nextID   uint16
	sent     metrics.Counter
	reqBytes metrics.Counter
}

// NewReflector builds a reflection source on net (inheriting its trace
// buffer).
func NewReflector(clk clock.Clock, net *netsim.Network, cfg ReflectConfig) *Reflector {
	return &Reflector{clk: clk, net: net, cfg: cfg, tr: net.Trace()}
}

// Send bounces one spoofed query for (name, qtype) off the next server
// and returns the request size in bytes (what the attacker paid).
func (r *Reflector) Send(name string, qtype dnswire.Type) int {
	r.nextID++
	m := dnswire.NewQuery(r.nextID, name, qtype)
	if r.cfg.EDNSSize > 0 {
		m.AddEDNS(r.cfg.EDNSSize, false)
	}
	wire, err := m.Pack()
	if err != nil {
		return 0
	}
	server := r.cfg.Servers[int(r.nextID)%len(r.cfg.Servers)]
	r.sent.Inc()
	r.reqBytes.Add(int64(len(wire)))
	if r.tr != nil {
		r.tr.Emit(trace.Event{Type: trace.EvReflect,
			Probe: trace.ProbeFromName(name), Name: name,
			A: uint32(len(wire)), Src: string(r.cfg.Victim), Dst: string(server)})
	}
	r.net.SendMsg(r.cfg.Victim, server, m)
	return len(wire)
}

// RequestBytes returns the total bytes of spoofed requests sent.
func (r *Reflector) RequestBytes() int64 { return r.reqBytes.Value() }

// Sent returns the number of spoofed requests sent.
func (r *Reflector) Sent() int64 { return r.sent.Value() }

// CollectMetrics folds the reflector's counters into s.
func (r *Reflector) CollectMetrics(s metrics.Scope) {
	s.Add("reflect_sent", r.sent.Value())
	s.Add("reflect_request_bytes", r.reqBytes.Value())
}

// VictimSink binds the reflection victim's address and counts what
// arrives: the response side of the amplification factor.
type VictimSink struct {
	packets metrics.Counter
	bytes   metrics.Counter
}

// NewVictimSink binds a sink at addr.
func NewVictimSink(net *netsim.Network, addr netsim.Addr) *VictimSink {
	v := &VictimSink{}
	net.Bind(addr, func(src netsim.Addr, payload []byte) {
		v.packets.Inc()
		v.bytes.Add(int64(len(payload)))
	})
	return v
}

// Packets returns the number of packets that reached the victim.
func (v *VictimSink) Packets() int64 { return v.packets.Value() }

// Bytes returns the total bytes that reached the victim.
func (v *VictimSink) Bytes() int64 { return v.bytes.Value() }

// CollectMetrics folds the sink's counters into s.
func (v *VictimSink) CollectMetrics(s metrics.Scope) {
	s.Add("victim_packets", v.packets.Value())
	s.Add("victim_bytes", v.bytes.Value())
}

// prng is a tiny splitmix64, so the spoofer's port-guess draws do not
// depend on math/rand's table-walk seeding cost or sequence stability.
type prng struct{ state uint64 }

func newPRNG(seed int64) *prng { return &prng{state: uint64(seed)*0x9e3779b97f4a7c15 + 1} }

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *prng) float64() float64 { return float64(p.next()>>11) / (1 << 53) }
