package recursive

import (
	"strings"
	"testing"
	"time"

	"repro/internal/authoritative"
	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// fatName is a TXT record whose response outgrows the classic 512-octet
// UDP budget (and the flag-day 1232) but fits in 4096.
const fatName = "fat.cachetest.nl."

// newFatWorld is newWorld plus the fat TXT record on both cachetest
// authoritatives and TCP bindings for them, so truncation and fallback
// are exercisable on the upstream leg.
func newFatWorld(t *testing.T, cfg Config) *world {
	t.Helper()
	w := &world{clk: clock.NewVirtual(epoch)}
	w.net = netsim.New(w.clk, 1)

	fat := mustZone(t, cachetestZoneText)
	for i := 0; i < 8; i++ {
		fat.MustAdd(dnswire.RR{Name: fatName, TTL: 3600,
			Data: dnswire.TXT{Strings: []string{
				string(rune('a'+i)) + strings.Repeat("x", 180)}}})
	}

	w.root = authoritative.New(mustZone(t, rootZoneText))
	w.nl = authoritative.New(mustZone(t, nlZoneText), mustZone(t, otherZoneText))
	w.ns1 = authoritative.New(fat)
	w.ns2 = authoritative.New(fat)

	w.root.Attach(w.net, rootAddr)
	w.nl.Attach(w.net, nlAddr)
	w.ns1.Attach(w.net, ns1Addr)
	w.ns1.AttachTCP(w.net, ns1Addr)
	w.ns2.Attach(w.net, ns2Addr)
	w.ns2.AttachTCP(w.net, ns2Addr)

	if len(cfg.Forwarders) == 0 && len(cfg.RootHints) == 0 {
		cfg.RootHints = []ServerHint{{Name: "a.root-servers.net.", Addr: rootAddr}}
	}
	w.res = NewResolver(w.clk, cfg)
	w.res.Attach(w.net, resAddr)
	return w
}

// askWire sends a packed client query to the resolver over the wire path
// (serveClient → respond) and returns the raw response.
func askWire(t *testing.T, w *world, q *dnswire.Message) *dnswire.Message {
	t.Helper()
	var got *dnswire.Message
	var port *netsim.Port
	port = w.net.Bind("10.9.9.9", func(src netsim.Addr, payload []byte) {
		m, err := dnswire.Unpack(payload)
		if err != nil {
			t.Fatalf("unpack response: %v", err)
		}
		got = m
	})
	defer w.net.Detach("10.9.9.9")
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	port.Send(resAddr, wire)
	w.clk.RunFor(30 * time.Second)
	if got == nil {
		t.Fatalf("no response to %s", q.Question1().Name)
	}
	return got
}

// TestRespondHonorsAdvertisedEDNSSize is the client-leg regression test:
// a query advertising a 4096-octet EDNS0 buffer must receive the fat
// answer in full over UDP. Pre-fix, respond() clamped every UDP response
// at 512 octets and truncated it regardless of the advertised size.
func TestRespondHonorsAdvertisedEDNSSize(t *testing.T) {
	w := newFatWorld(t, Config{EDNSSize: 4096})
	q := dnswire.NewQuery(7, fatName, dnswire.TypeTXT)
	q.AddEDNS(4096, false)
	resp := askWire(t, w, q)
	if resp.Truncated {
		t.Fatal("response truncated despite a 4096-octet advertised buffer")
	}
	if len(resp.Answers) != 8 {
		t.Fatalf("answers = %d, want 8", len(resp.Answers))
	}
	if w.res.Stats().ClientTruncated != 0 {
		t.Errorf("ClientTruncated = %d, want 0", w.res.Stats().ClientTruncated)
	}
}

// TestTruncatedResponseKeepsOPT checks RFC 6891 behavior on the client
// leg: a response truncated to a small advertised buffer strips the data
// sections, sets TC, and retains the OPT record.
func TestTruncatedResponseKeepsOPT(t *testing.T) {
	w := newFatWorld(t, Config{EDNSSize: 4096})
	q := dnswire.NewQuery(8, fatName, dnswire.TypeTXT)
	q.AddEDNS(512, false)
	resp := askWire(t, w, q)
	if !resp.Truncated {
		t.Fatal("fat answer not truncated at a 512-octet buffer")
	}
	if len(resp.Answers) != 0 || len(resp.Authorities) != 0 {
		t.Errorf("truncated response kept data: %d answers, %d authorities",
			len(resp.Answers), len(resp.Authorities))
	}
	if _, _, ok := resp.EDNS(); !ok {
		t.Error("truncated response lost its OPT record")
	}
	if got := w.res.Stats().ClientTruncated; got != 1 {
		t.Errorf("ClientTruncated = %d, want 1", got)
	}
}

// TestTruncationBoundary pins the exact threshold: a response packed to
// exactly the advertised size passes untouched; one octet less and it is
// truncated.
func TestTruncationBoundary(t *testing.T) {
	w := newFatWorld(t, Config{EDNSSize: 4096})

	// Learn the response's exact wire size with a roomy buffer.
	q := dnswire.NewQuery(9, fatName, dnswire.TypeTXT)
	q.AddEDNS(4096, false)
	full := askWire(t, w, q)
	wire, err := full.Pack()
	if err != nil {
		t.Fatal(err)
	}
	size := len(wire)
	if size <= 512 || size >= 4096 {
		t.Fatalf("fat response is %d octets; the test needs 512 < size < 4096", size)
	}

	q = dnswire.NewQuery(10, fatName, dnswire.TypeTXT)
	q.AddEDNS(uint16(size), false)
	if resp := askWire(t, w, q); resp.Truncated {
		t.Errorf("response of exactly %d octets truncated at a %d-octet buffer", size, size)
	}

	q = dnswire.NewQuery(11, fatName, dnswire.TypeTXT)
	q.AddEDNS(uint16(size-1), false)
	if resp := askWire(t, w, q); !resp.Truncated {
		t.Errorf("response of %d octets not truncated at a %d-octet buffer", size, size-1)
	}
}

// TestIteratorReactsToUpstreamTC is the upstream-leg regression test:
// without EDNS the authoritative truncates the fat answer at 512, and
// the resolver must not treat the stripped TC=1 response as an answer.
// Pre-fix, handleResponse absorbed it and returned an empty NOERROR.
func TestIteratorReactsToUpstreamTC(t *testing.T) {
	w := newFatWorld(t, Config{}) // no EDNS, no fallback
	res := resolveOn(t, w.clk, w.res, fatName, dnswire.TypeTXT)
	if !res.ServFail {
		t.Fatalf("result = %+v, want SERVFAIL (TC with no fallback path)", res)
	}
	if len(res.Answers) != 0 {
		t.Errorf("answers from a truncated exchange: %v", res.Answers)
	}
	if got := w.res.Stats().Truncated; got == 0 {
		t.Error("Stats.Truncated = 0, want the upstream TC=1 responses counted")
	}
}

// TestIteratorTCPFallback checks the recovery leg: with TCPFallback
// armed the resolver retries the truncated upstream exchange over TCP
// and assembles the full answer.
func TestIteratorTCPFallback(t *testing.T) {
	w := newFatWorld(t, Config{TCPFallback: true}) // still no EDNS
	res := resolveOn(t, w.clk, w.res, fatName, dnswire.TypeTXT)
	if res.ServFail || res.RCode != dnswire.RCodeNoError {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Answers) != 8 {
		t.Fatalf("answers = %d, want 8", len(res.Answers))
	}
	if got := w.res.Stats().Truncated; got == 0 {
		t.Error("Stats.Truncated = 0, want the TC that triggered fallback counted")
	}
	if s := w.net.Stats(); s.TCPDelivered == 0 {
		t.Errorf("no TCP traffic: %+v", s)
	}
}

// TestForwarderReactsToUpstreamTC covers the forwarding mode leg: a
// forwarder receiving TC=1 from its upstream retries over TCP when
// armed, and fails closed (never "answers" with the stripped message)
// when not.
func TestForwarderReactsToUpstreamTC(t *testing.T) {
	// The upstream truncates over UDP and serves the real answer on TCP.
	build := func(cfg Config) (*clock.Virtual, *Resolver, *netsim.Network) {
		clk := clock.NewVirtual(epoch)
		net := netsim.New(clk, 1)
		const upAddr = "10.0.0.2"
		var uport *netsim.Port
		uport = net.Bind(upAddr, func(src netsim.Addr, payload []byte) {
			q, err := dnswire.Unpack(payload)
			if err != nil || q.Response {
				return
			}
			resp := dnswire.NewResponse(q)
			resp.RecursionAvailable = true
			resp.Truncated = true
			wire, _ := resp.Pack()
			uport.Send(src, wire)
		})
		var utcp *netsim.TCPPort
		utcp = net.BindTCP(upAddr, func(src netsim.Addr, q *dnswire.Message) {
			if q.Response {
				return
			}
			resp := dnswire.NewResponse(q)
			resp.RecursionAvailable = true
			resp.Answers = append(resp.Answers, dnswire.RR{
				Name: q.Question1().Name, Class: dnswire.ClassIN, TTL: 60,
				Data: dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::2")},
			})
			utcp.SendMsg(src, resp)
		})
		cfg.Forwarders = []netsim.Addr{upAddr}
		r := NewResolver(clk, cfg)
		r.Attach(net, resAddr)
		return clk, r, net
	}

	clk, r, _ := build(Config{TCPFallback: true})
	res := resolveOn(t, clk, r, "1414.cachetest.nl.", dnswire.TypeAAAA)
	if res.ServFail || len(res.Answers) != 1 {
		t.Fatalf("forwarder with fallback: %+v", res)
	}
	if r.Stats().Truncated == 0 {
		t.Error("forwarder Stats.Truncated = 0")
	}

	clk, r, _ = build(Config{})
	res = resolveOn(t, clk, r, "1414.cachetest.nl.", dnswire.TypeAAAA)
	if !res.ServFail {
		t.Fatalf("forwarder without fallback: %+v, want SERVFAIL", res)
	}
	if len(res.Answers) != 0 {
		t.Errorf("answers from a truncated forward: %v", res.Answers)
	}
}
