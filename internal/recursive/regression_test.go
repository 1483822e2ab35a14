package recursive

// Regression tests for two defects: the serve-stale refresh discarding
// its late upstream answer, and out-of-bailiwick glue being accepted and
// cached.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/authoritative"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// TestStaleServeRefreshRepopulatesCache pins the armStaleTimer contract:
// the refresh "keeps running" after the client was answered stale, so a
// late upstream answer must land in the cache. The path to both
// authoritatives is slowed to 1.0 s or 1.4 s one-way so the answer
// arrives at 2.0–2.8 s — after the 1.8 s stale-answer timer, before the
// 3 s query timeout — with one cache shard or four. Pre-fix,
// handleResponse dropped it on t.done and the resolver kept serving
// stale forever.
func TestStaleServeRefreshRepopulatesCache(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, delay := range []time.Duration{1000 * time.Millisecond, 1400 * time.Millisecond} {
			t.Run(fmt.Sprintf("shards=%d/delay=%v", shards, delay), func(t *testing.T) {
				w := newWorld(t, Config{
					Cache:          cache.Config{Shards: shards},
					ServeStale:     true,
					InitialTimeout: 3 * time.Second,
				})
				if res := w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA); res.Stale || len(res.Answers) == 0 {
					t.Fatalf("warm resolve = %+v", res)
				}
				// Let the 60 s record expire; the delegation NS and glue
				// (TTL 3600) stay cached, so the refresh goes straight to
				// the cachetest servers.
				w.clk.RunFor(2 * time.Minute)
				w.net.SetPairDelay(resAddr, ns1Addr, delay)
				w.net.SetPairDelay(resAddr, ns2Addr, delay)

				res := w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
				if !res.Stale {
					t.Fatalf("expected a stale answer, got %+v", res)
				}
				// resolve ran the clock 30 s past the query, so the refresh
				// answer has long since arrived; it must be in the cache,
				// fresh.
				v := w.res.Cache().Get(cache.Key{Name: "1414.cachetest.nl.", Type: dnswire.TypeAAAA}, 0)
				if !v.Hit || v.Stale {
					t.Fatalf("late refresh answer was not cached: %+v", v)
				}
				if st := w.res.Stats(); st.LateAnswers == 0 {
					t.Errorf("LateAnswers = 0, want > 0")
				}
				// And the next client query is a plain cache hit, not
				// another stale serve.
				if res := w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA); res.Stale || !res.FromCache {
					t.Errorf("post-refresh resolve = %+v, want fresh cache hit", res)
				}
			})
		}
	}
}

// TestOutOfBailiwickGlueNotCached reproduces the classic poisoning vector:
// a compromised parent server volunteers additional-section addresses for
// names outside the zone it is delegating. The resolver must still follow
// the legitimate in-bailiwick glue but cache none of the poison.
func TestOutOfBailiwickGlueNotCached(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)

	root := authoritative.New(mustZone(t, rootZoneText))
	root.Attach(net, rootAddr)
	ns1 := authoritative.New(mustZone(t, cachetestZoneText))
	ns1.Attach(net, ns1Addr)

	// A compromised nl. server: every query gets a referral to
	// cachetest.nl carrying the legitimate glue plus two poison records —
	// an address for an unrelated name, and a hijack of nl.'s own
	// nameserver host (which the root referral legitimately cached).
	var port *netsim.Port
	port = net.Bind(nlAddr, func(src netsim.Addr, payload []byte) {
		q, err := dnswire.Unpack(payload)
		if err != nil || q.Response {
			return
		}
		resp := dnswire.NewResponse(q)
		resp.Authorities = append(resp.Authorities, dnswire.RR{
			Name: "cachetest.nl.", Class: dnswire.ClassIN, TTL: 3600,
			Data: dnswire.NS{Host: "ns1.cachetest.nl."},
		})
		resp.Additionals = append(resp.Additionals,
			dnswire.RR{Name: "ns1.cachetest.nl.", Class: dnswire.ClassIN, TTL: 3600,
				Data: dnswire.A{Addr: dnswire.MustAddr("192.0.2.1")}},
			dnswire.RR{Name: "www.bank.nl.", Class: dnswire.ClassIN, TTL: 86400,
				Data: dnswire.A{Addr: dnswire.MustAddr("203.0.113.66")}},
			dnswire.RR{Name: "ns1.dns.nl.", Class: dnswire.ClassIN, TTL: 86400,
				Data: dnswire.A{Addr: dnswire.MustAddr("203.0.113.67")}},
		)
		wire, err := resp.Pack()
		if err != nil {
			t.Errorf("pack: %v", err)
			return
		}
		port.Send(src, wire)
	})

	r := NewResolver(clk, Config{
		RootHints: []ServerHint{{Name: "a.root-servers.net.", Addr: rootAddr}},
	})
	r.Attach(net, resAddr)

	res := resolveOn(t, clk, r, "1414.cachetest.nl.", dnswire.TypeAAAA)
	if res.ServFail || len(res.Answers) == 0 {
		t.Fatalf("resolution through the legitimate glue failed: %+v", res)
	}
	if v := r.Cache().Peek(cache.Key{Name: "www.bank.nl.", Type: dnswire.TypeA}, 0); v.Hit {
		t.Errorf("out-of-bailiwick additional was cached: %v", v.Records)
	}
	v := r.Cache().Peek(cache.Key{Name: "ns1.dns.nl.", Type: dnswire.TypeA}, 0)
	for _, rr := range v.Records {
		if a, ok := rr.Data.(dnswire.A); ok && a.Addr.String() == "203.0.113.67" {
			t.Errorf("nl. nameserver address hijacked by additional-section poison: %v", rr)
		}
	}
}
