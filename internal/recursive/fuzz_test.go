package recursive

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// FuzzResolverUpstream answers every upstream query a live resolver sends,
// over UDP and TCP, with the same arbitrary bytes (their ID rewritten to
// the query's when echoID, as an on-path upstream's; left as a guess
// otherwise, as an off-path spoofer's), while clients ask over the wire on
// the virtual clock. Whatever the bytes, the resolver must not panic, must
// spend no more upstream queries than its work budgets allow, and once the
// clock drains must leave no outquery in flight, no timer pending and
// every pooled job back on the working set's free list exactly once.
func FuzzResolverUpstream(f *testing.F) {
	pack := func(m *dnswire.Message) []byte {
		wire, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		return wire
	}
	// NXNSAttack (Afek et al.): a referral naming 135 nameservers and no
	// glue, each a name the resolver must resolve itself.
	nxns := dnswire.NewQuery(0, "1.cachetest.nl.", dnswire.TypeAAAA)
	nxns.Response = true
	for i := 0; i < 135; i++ {
		nxns.Authorities = append(nxns.Authorities, dnswire.RR{Name: "cachetest.nl.",
			Class: dnswire.ClassIN, TTL: 600,
			Data: dnswire.NS{Host: fmt.Sprintf("ns%d.nxns.%s", i, attackerApex)}})
	}
	f.Add(pack(nxns), true)
	// Off-path answers at guessed IDs: the resolver's IDs are sequential
	// from 1. One is an answer, one a truncated referral.
	for id := uint16(1); id <= 2; id++ {
		forged := dnswire.NewQuery(id, "1.cachetest.nl.", dnswire.TypeAAAA)
		forged.Response, forged.Authoritative, forged.Truncated = true, id == 1, id == 2
		forged.Answers = append(forged.Answers, dnswire.RR{Name: "1.cachetest.nl.",
			Class: dnswire.ClassIN, TTL: 600, Data: dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::66")}})
		forged.Authorities = append(forged.Authorities, dnswire.RR{Name: "cachetest.nl.",
			Class: dnswire.ClassIN, TTL: 600, Data: dnswire.NS{Host: "ns." + attackerApex}})
		forged.Additionals = append(forged.Additionals, dnswire.RR{Name: "ns." + attackerApex,
			Class: dnswire.ClassIN, TTL: 600, Data: dnswire.A{Addr: dnswire.MustAddr("203.0.113.66")}})
		f.Add(pack(forged), false)
	}

	f.Fuzz(func(t *testing.T, reply []byte, echoID bool) {
		clk := clock.NewVirtual(epoch)
		net := netsim.New(clk, 1)
		// The reply keeps QR set: a query sent back would reach the
		// resolver's client side and start a resolution whose upstream
		// queries bring it back again, a loop that never drains.
		answer := func(q []byte) []byte {
			out := append([]byte(nil), reply...)
			if echoID && len(out) >= 2 && len(q) >= 2 {
				copy(out[:2], q[:2])
			}
			if len(out) >= 3 {
				out[2] |= 0x80
			}
			return out
		}
		net.Bind(rootAddr, func(src netsim.Addr, q []byte) { net.Send(rootAddr, src, answer(q)) })
		// The TCP plane carries messages: a reply that does not decode is
		// lost, as it was to the resolver's decode.
		net.BindTCP(rootAddr, func(src netsim.Addr, q *dnswire.Message) {
			wire, _ := q.Pack()
			if m, err := dnswire.Unpack(answer(wire)); err == nil {
				net.SendTCP(rootAddr, src, m)
			}
		})

		cfg := Config{
			RootHints:   []ServerHint{{Name: "a.root-servers.net.", Addr: rootAddr}},
			TCPFallback: true, ServeStale: true, Harvest: HarvestFull, Seed: 1,
		}
		r := NewResolver(clk, cfg)
		r.Attach(net, resAddr)
		cfg = *r.cfg // with defaults

		// Five client queries over 30 s: a repeat in flight (coalesced), a
		// second name, and the first again once its answer may be cached.
		client := net.Bind(clientAddr, func(netsim.Addr, []byte) {})
		for i, q := range []struct {
			at    time.Duration
			name  string
			qtype dnswire.Type
		}{
			{0, "1.cachetest.nl.", dnswire.TypeAAAA},
			{10 * time.Millisecond, "1.cachetest.nl.", dnswire.TypeAAAA},
			{20 * time.Millisecond, "2.cachetest.nl.", dnswire.TypeA},
			{5 * time.Second, "cachetest.nl.", dnswire.TypeNS},
			{30 * time.Second, "1.cachetest.nl.", dnswire.TypeAAAA},
		} {
			wire, err := dnswire.NewQuery(uint16(100+i), q.name, q.qtype).Pack()
			if err != nil {
				t.Fatal(err)
			}
			clock.AfterFunc(clk, q.at, func() { client.Send(resAddr, wire) })
		}
		clk.Run()

		// Each job spends at most WorkBudget; a harvest, at most once per
		// zone a minute, its own pool.
		st := r.Stats()
		zones := 0
		for k := range r.work().harvests {
			if k.rid == r.rid {
				zones++
			}
		}
		harvests := int64(zones) * int64(clk.Now().Sub(epoch)/time.Minute+1)
		if limit := st.ClientQueries*int64(cfg.WorkBudget) + harvests*int64(cfg.WorkBudget/4+2); st.UpstreamQueries > limit {
			t.Errorf("%d upstream queries, budget allows %d", st.UpstreamQueries, limit)
		}
		if r.inflight != 0 || clk.Pending() != 0 {
			t.Errorf("drained clock left %d outqueries, %d timers", r.inflight, clk.Pending())
		}
		if r.jobsOut != 0 || r.retired != nil || r.depth != 0 {
			t.Errorf("%d jobs out, retired queue %v, depth %d", r.jobsOut, r.retired != nil, r.depth)
		}
		ws := r.work()
		seen := map[*clientJob]bool{}
		for j := ws.jobFree; j != nil; j = j.next {
			if seen[j] {
				t.Fatal("a job is on the free list twice")
			}
			seen[j] = true
		}
		if len(seen) != ws.jobFreeN || ws.jobFreeN > maxFree {
			t.Errorf("free list holds %d jobs, counted %d (cap %d)", len(seen), ws.jobFreeN, maxFree)
		}
	})
}
