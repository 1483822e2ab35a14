package recursive

import (
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/zone"
)

// TestAnswerFromReferral checks the Appendix A minority behavior: with
// the quirk enabled, a cached referral NS set (parent-side TTL) is
// returned to clients; without it, the resolver re-asks the child and
// returns the authoritative TTL.
func TestAnswerFromReferral(t *testing.T) {
	// Child NS TTL differs from the parent's referral TTL (3600 in the
	// nl zone text): shrink the child's to 60.
	reconfig := func(w *world) {
		child := w.ns1.Zones()[0]
		if err := child.Replace("cachetest.nl.", dnswire.TypeNS, 60,
			dnswire.NS{Host: "ns1.cachetest.nl."},
			dnswire.NS{Host: "ns2.cachetest.nl."}); err != nil {
			t.Fatal(err)
		}
	}

	// Conforming resolver: NS answer carries the child's 60 s.
	w := newWorld(t, Config{})
	reconfig(w)
	w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA) // cache the referral
	res := w.resolve(t, "cachetest.nl.", dnswire.TypeNS)
	if res.ServFail || len(res.Answers) == 0 {
		t.Fatalf("NS result = %+v", res)
	}
	if ttl := res.Answers[0].TTL; ttl != 60 {
		t.Errorf("conforming resolver returned TTL %d, want child's 60", ttl)
	}

	// Quirky resolver: answers straight from the cached referral (TTL
	// 3600, slightly decremented).
	w2 := newWorld(t, Config{AnswerFromReferral: true})
	reconfig(w2)
	w2.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
	res = w2.resolve(t, "cachetest.nl.", dnswire.TypeNS)
	if res.ServFail || len(res.Answers) == 0 {
		t.Fatalf("quirky NS result = %+v", res)
	}
	if ttl := res.Answers[0].TTL; ttl <= 60 || ttl > 3600 {
		t.Errorf("quirky resolver returned TTL %d, want the parent's ~3600", ttl)
	}
	if !res.FromCache {
		t.Error("quirky resolver should answer from the referral cache")
	}
}

// TestStaleAnswerBeatsClientTimeout verifies the serve-stale
// client-response timer: during a total outage the stale answer arrives
// after ~1.8 s, well before a stub's 5 s timeout.
func TestStaleAnswerBeatsClientTimeout(t *testing.T) {
	w := newWorld(t, Config{ServeStale: true})
	w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA) // warm, TTL 60
	w.clk.RunFor(2 * time.Minute)                        // expire
	w.net.SetInboundLoss(ns1Addr, 1)
	w.net.SetInboundLoss(ns2Addr, 1)

	var got *Result
	w.res.Resolve("1414.cachetest.nl.", dnswire.TypeAAAA, 0, func(r Result) { got = &r })
	w.clk.RunFor(30 * time.Second)
	if got == nil || !got.Stale {
		t.Fatalf("result = %+v", got)
	}
	// Check the answer arrived early by re-running with a tight window.
	w2 := newWorld(t, Config{ServeStale: true})
	w2.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
	w2.clk.RunFor(2 * time.Minute)
	w2.net.SetInboundLoss(ns1Addr, 1)
	w2.net.SetInboundLoss(ns2Addr, 1)
	var early *Result
	w2.res.Resolve("1414.cachetest.nl.", dnswire.TypeAAAA, 0, func(r Result) { early = &r })
	w2.clk.RunFor(2500 * time.Millisecond) // > 1.8s delay, < 5s stub timeout
	if early == nil || !early.Stale {
		t.Errorf("stale answer not delivered within 2.5s: %+v", early)
	}
}

// TestHarvestModes compares the upstream query mixes of the three modes.
func TestHarvestModes(t *testing.T) {
	authQueries := func(cfg Config) (ns, a, aaaa int64) {
		w := newWorld(t, cfg)
		w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
		s1, s2 := w.ns1.Stats(), w.ns2.Stats()
		return s1.ByType[dnswire.TypeNS] + s2.ByType[dnswire.TypeNS],
			s1.ByType[dnswire.TypeA] + s2.ByType[dnswire.TypeA],
			s1.ByType[dnswire.TypeAAAA] + s2.ByType[dnswire.TypeAAAA]
	}

	ns, a, aaaa := authQueries(Config{Harvest: HarvestNone})
	if ns != 0 || a != 0 || aaaa != 1 {
		t.Errorf("HarvestNone mix = NS:%d A:%d AAAA:%d, want 0/0/1", ns, a, aaaa)
	}
	ns, a, aaaa = authQueries(Config{Harvest: HarvestAAAA})
	if ns != 0 || a != 0 {
		t.Errorf("HarvestAAAA fetched NS/A: %d/%d", ns, a)
	}
	if aaaa != 3 { // target + AAAA for both NS hosts
		t.Errorf("HarvestAAAA AAAA queries = %d, want 3", aaaa)
	}
	ns, a, aaaa = authQueries(Config{Harvest: HarvestFull})
	if ns != 1 || a != 2 || aaaa != 3 {
		t.Errorf("HarvestFull mix = NS:%d A:%d AAAA:%d, want 1/2/3", ns, a, aaaa)
	}
}

// TestHarvestReplacesGlueWithChildData: after a HarvestFull resolution,
// the cached NS-host address has answer-level credibility and the child's
// TTL (Appendix A, Listings 3-4).
func TestHarvestReplacesGlueWithChildData(t *testing.T) {
	w := newWorld(t, Config{Harvest: HarvestFull})
	w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
	w.clk.RunFor(5 * time.Second)
	v := w.res.Cache().Get(cache.Key{Name: "ns1.cachetest.nl.", Type: dnswire.TypeA}, 0)
	if !v.Hit {
		t.Fatal("NS host address not cached")
	}
	if v.Rank != cache.RankAnswer {
		t.Errorf("rank = %v, want RankAnswer (child-confirmed)", v.Rank)
	}
}

// TestSRTTPrefersFasterServer: with exploration off, the resolver settles
// on the lower-latency authoritative.
func TestSRTTPrefersFasterServer(t *testing.T) {
	w := newWorld(t, Config{ExplorationProb: 0.0001})
	w.net.SetPairDelay(resAddr, ns1Addr, 5*time.Millisecond)
	w.net.SetPairDelay(resAddr, ns2Addr, 80*time.Millisecond)
	// Give both servers one sample, then measure the preference.
	for i := 0; i < 30; i++ {
		name := dnswire.CanonicalName(itoa(9000+i) + ".cachetest.nl.")
		w.resolve(t, name, dnswire.TypeAAAA)
	}
	fast := w.ns1.Stats().Queries
	slow := w.ns2.Stats().Queries
	if fast <= slow {
		t.Errorf("fast server got %d queries, slow got %d; SRTT preference broken", fast, slow)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestWorkBudgetPrioritizesClientQuery: a minimal budget still resolves
// the client's chain — harvesting runs on its own bounded pool and never
// starves it.
func TestWorkBudgetPrioritizesClientQuery(t *testing.T) {
	w := newWorld(t, Config{Harvest: HarvestFull, WorkBudget: 3})
	res := w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
	if res.ServFail {
		t.Fatalf("budget 3 should still resolve the main chain: %+v", res)
	}
	// Main chain (3) plus bounded harvests; total stays small.
	if up := w.res.Stats().UpstreamQueries; up > 15 {
		t.Errorf("upstream queries = %d, want tightly bounded", up)
	}
}

// TestCNAMELoopDetected: a CNAME cycle must terminate with SERVFAIL, not
// hang or recurse forever.
func TestCNAMELoopDetected(t *testing.T) {
	w := newWorld(t, Config{})
	child := w.ns1.Zones()[0]
	mustAdd := func(z *zone.Zone, name, target string) {
		if err := z.Add(dnswire.RR{Name: name, TTL: 60, Data: dnswire.CNAME{Target: target}}); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(child, "loopa.cachetest.nl.", "loopb.cachetest.nl.")
	mustAdd(child, "loopb.cachetest.nl.", "loopa.cachetest.nl.")
	// Same records on the second server.
	child2 := w.ns2.Zones()[0]
	mustAdd(child2, "loopa.cachetest.nl.", "loopb.cachetest.nl.")
	mustAdd(child2, "loopb.cachetest.nl.", "loopa.cachetest.nl.")

	res := w.resolve(t, "loopa.cachetest.nl.", dnswire.TypeAAAA)
	if !res.ServFail {
		t.Errorf("CNAME loop returned %+v, want SERVFAIL", res)
	}
}

// TestForwardNoDataPassthrough: a forwarding R1 relays NODATA with the
// SOA and caches the negative entry.
func TestForwardNoDataPassthrough(t *testing.T) {
	w := newWorld(t, Config{})
	r1 := NewResolver(w.clk, Config{Forwarders: []netsim.Addr{resAddr}})
	r1.Attach(w.net, "10.0.0.1")
	res := resolveOn(t, w.clk, r1, "1414.cachetest.nl.", dnswire.TypeA) // only AAAA exists
	if res.RCode != dnswire.RCodeNoError || len(res.Answers) != 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.SOA.Data == nil {
		t.Error("NODATA relayed without SOA")
	}
	res = resolveOn(t, w.clk, r1, "1414.cachetest.nl.", dnswire.TypeA)
	if !res.FromCache {
		t.Error("forwarded NODATA not cached")
	}
}

// TestHandleQueryTransportIndependent exercises the API cmd/recursived's
// TCP path uses.
func TestHandleQueryTransportIndependent(t *testing.T) {
	w := newWorld(t, Config{})
	var got *dnswire.Message
	q := dnswire.NewQuery(77, "1414.cachetest.nl.", dnswire.TypeAAAA)
	w.res.HandleQuery(q, func(m *dnswire.Message) { got = m })
	w.clk.RunFor(30 * time.Second)
	if got == nil {
		t.Fatal("no response")
	}
	if got.ID != 77 || !got.Response || !got.RecursionAvailable {
		t.Errorf("header = %+v", got.Header)
	}
	if len(got.Answers) != 1 {
		t.Errorf("answers = %v", got.Answers)
	}
}

// TestClientRefusals holds both client entries, the packet path (Deliver)
// and the parsed-query API (HandleQuery), to one answer for what the
// resolver does not serve: NOTIMP for anything but a single-question
// QUERY, REFUSED outside class IN, each with RA set and the query's ID,
// and nothing at all for a response.
func TestClientRefusals(t *testing.T) {
	const client = netsim.Addr("10.0.0.7")
	cases := []struct {
		name  string
		edit  func(q *dnswire.Message)
		rcode dnswire.RCode
		reply bool
	}{
		{"update", func(q *dnswire.Message) { q.Opcode = dnswire.OpcodeUpdate }, dnswire.RCodeNotImp, true},
		{"no question", func(q *dnswire.Message) { q.Questions = nil }, dnswire.RCodeNotImp, true},
		{"two questions", func(q *dnswire.Message) { q.Questions = append(q.Questions, q.Questions[0]) }, dnswire.RCodeNotImp, true},
		{"class CH", func(q *dnswire.Message) { q.Questions[0].Class = 3 }, dnswire.RCodeRefused, true},
		{"response", func(q *dnswire.Message) { q.Response = true }, 0, false},
	}
	entries := []struct {
		name string
		ask  func(r *Resolver, q *dnswire.Message, reply func(*dnswire.Message))
	}{
		{"Deliver", func(r *Resolver, q *dnswire.Message, _ func(*dnswire.Message)) { r.Deliver(client, q) }},
		{"HandleQuery", func(r *Resolver, q *dnswire.Message, reply func(*dnswire.Message)) { r.HandleQuery(q, reply) }},
	}
	for _, e := range entries {
		for _, tc := range cases {
			t.Run(e.name+"/"+tc.name, func(t *testing.T) {
				clk := clock.NewVirtual(epoch)
				net := netsim.New(clk, 1)
				r := NewResolver(clk, Config{RootHints: []ServerHint{{Name: "a.root-servers.net.", Addr: rootAddr}}})
				r.Attach(net, resAddr)
				var replies []*dnswire.Message
				net.AddMsgTap(func(ev netsim.Event) {
					if ev.Src != resAddr || ev.Dst != client {
						t.Errorf("sent %v -> %v: a refusal asks nobody upstream", ev.Src, ev.Dst)
						return
					}
					m := *ev.Msg // the packet's copy is recycled after delivery
					replies = append(replies, &m)
				})
				q := dnswire.NewQuery(42, "x.example.nl.", dnswire.TypeA)
				tc.edit(q)
				e.ask(r, q, func(m *dnswire.Message) { replies = append(replies, m) })
				clk.RunFor(time.Minute)
				if !tc.reply {
					if len(replies) != 0 {
						t.Fatalf("answered a response: %v", replies)
					}
					return
				}
				if len(replies) != 1 {
					t.Fatalf("%d messages sent, want the one reply", len(replies))
				}
				if m := replies[0]; m.RCode != tc.rcode || m.ID != 42 || !m.Response || !m.RecursionAvailable {
					t.Errorf("reply %v %+v, want %v", m.RCode, m.Header, tc.rcode)
				}
			})
		}
	}
}
