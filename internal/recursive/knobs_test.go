package recursive

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/authoritative"
	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// wideWorld builds a hierarchy where wide.nl is delegated to `width`
// glueless NS hosts under many.nl — names the nl server answers NXDOMAIN
// for — so every NS-address fetch costs exactly one query at nl. It
// returns the resolver and a counter of A-queries for those hosts.
func wideWorld(t *testing.T, width int, cfg Config) (*clock.Virtual, *Resolver, *int) {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)

	var nlText strings.Builder
	nlText.WriteString(`
$ORIGIN nl.
$TTL 7200
@   IN SOA ns1.dns.nl. hostmaster.dns.nl. 2018050100 3600 600 2419200 60
@   IN NS ns1.dns.nl.
ns1.dns IN A 194.0.28.53
`)
	for i := 1; i <= width; i++ {
		fmt.Fprintf(&nlText, "wide 3600 IN NS ns%d.many.nl.\n", i)
	}

	root := authoritative.New(mustZone(t, rootZoneText))
	nl := authoritative.New(mustZone(t, nlText.String()))
	root.Attach(net, rootAddr)
	nl.Attach(net, nlAddr)

	fetches := new(int)
	net.AddTap(func(ev netsim.Event) {
		if ev.Dst != netsim.Addr(nlAddr) {
			return
		}
		var m dnswire.Message
		if dnswire.UnpackInto(&m, ev.Payload) != nil || len(m.Questions) == 0 || m.Response {
			return
		}
		q := m.Questions[0]
		if q.Type == dnswire.TypeA && strings.HasSuffix(dnswire.CanonicalName(q.Name), ".many.nl.") {
			*fetches++
		}
	})

	cfg.RootHints = []ServerHint{{Name: "a.root-servers.net.", Addr: rootAddr}}
	res := NewResolver(clk, cfg)
	res.Attach(net, resAddr)
	return clk, res, fetches
}

// TestMaxFetchCapsGluelessFanout pins the NXNSAttack max-fetch(k)
// mitigation: a glueless delegation of width 12 costs 12 NS-address
// fetches without the cap and exactly k with it.
func TestMaxFetchCapsGluelessFanout(t *testing.T) {
	const width = 12
	run := func(maxFetch int) int {
		clk, res, fetches := wideWorld(t, width, Config{Seed: 3, MaxFetch: maxFetch})
		res.Resolve("host.wide.nl.", dnswire.TypeAAAA, 0, func(Result) {})
		clk.RunFor(30 * time.Second)
		return *fetches
	}
	if got := run(0); got != width {
		t.Errorf("uncapped glueless fan-out = %d NS fetches, want %d", got, width)
	}
	for _, k := range []int{1, 4} {
		if got := run(k); got != k {
			t.Errorf("MaxFetch=%d fan-out = %d NS fetches, want %d", k, got, k)
		}
	}
}

// fillInflight puts every nonzero upstream ID of r in flight.
func fillInflight(r *Resolver) {
	ws := r.work()
	ws.inflight = make(map[uint64]*outquery, 1<<16)
	oq := &outquery{}
	for id := 1; id < 1<<16; id++ {
		ws.inflight[r.oqKey(uint16(id))] = oq
	}
	r.inflight = 1<<16 - 1
}

// TestAllocIDExhaustion: with all 65 535 upstream IDs in flight (an
// upstream black-holing a flood), a new resolution gets SERVFAIL instead
// of an ID search that never returns, in both ID modes. It runs under a
// deadline so the hang it guards against fails the test.
func TestAllocIDExhaustion(t *testing.T) {
	for name, random := range map[string]bool{"sequential": false, "random": true} {
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, Config{Seed: 3, RandomIDs: random})
			fillInflight(w.res)
			done := make(chan Result, 1)
			go func() {
				w.res.Resolve("1.cachetest.nl.", dnswire.TypeAAAA, 0, func(res Result) { done <- res })
				w.clk.RunFor(30 * time.Second)
			}()
			select {
			case res := <-done:
				if !res.ServFail {
					t.Errorf("IDs exhausted: got rcode %v, want SERVFAIL", res.RCode)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("resolution with every ID in flight did not finish in 5 s")
			}
		})
	}
}

// TestRandomIDsEntropy pins the query-ID allocation modes: the default
// counter hands out 1, 2, 3, ... on a fresh resolver (trivially guessable
// by an off-path spoofer), and RandomIDs replaces it with seeded draws
// from the full 16-bit space.
func TestRandomIDsEntropy(t *testing.T) {
	collect := func(cfg Config) []uint16 {
		clk := clock.NewVirtual(epoch)
		net := netsim.New(clk, 1)
		attachHierarchy(t, net)
		var ids []uint16
		net.AddTap(func(ev netsim.Event) {
			if ev.Src == netsim.Addr(resAddr) && len(ev.Payload) >= 2 {
				ids = append(ids, binary.BigEndian.Uint16(ev.Payload[:2]))
			}
		})
		cfg.RootHints = []ServerHint{{Name: "a.root-servers.net.", Addr: rootAddr}}
		res := NewResolver(clk, cfg)
		res.Attach(net, resAddr)
		res.Resolve("1414.cachetest.nl.", dnswire.TypeAAAA, 0, func(Result) {})
		clk.RunFor(30 * time.Second)
		return ids
	}

	seq := collect(Config{Seed: 11})
	if len(seq) < 3 {
		t.Fatalf("sequential run issued %d upstream queries, want >= 3", len(seq))
	}
	for i, id := range seq[:3] {
		if id != uint16(i+1) {
			t.Fatalf("sequential IDs = %v, want 1,2,3,...", seq[:3])
		}
	}

	rnd := collect(Config{Seed: 11, RandomIDs: true})
	if len(rnd) < 3 {
		t.Fatalf("random-ID run issued %d upstream queries, want >= 3", len(rnd))
	}
	low := true
	for _, id := range rnd {
		if id == 0 {
			t.Fatalf("random IDs contain 0: %v", rnd)
		}
		if id > 256 {
			low = false
		}
	}
	if low {
		t.Fatalf("random IDs all in the guessable low range: %v", rnd)
	}

	// Determinism: the draw sequence is a function of Seed.
	again := collect(Config{Seed: 11, RandomIDs: true})
	if fmt.Sprint(again) != fmt.Sprint(rnd) {
		t.Fatalf("random IDs not reproducible per seed: %v vs %v", again, rnd)
	}
}
