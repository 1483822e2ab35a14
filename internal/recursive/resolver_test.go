package recursive

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"
	"unsafe"

	"repro/internal/authoritative"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

func TestIterativeResolution(t *testing.T) {
	w := newWorld(t, Config{})
	res := w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
	if res.ServFail || res.RCode != dnswire.RCodeNoError {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Answers) != 1 || res.Answers[0].Type() != dnswire.TypeAAAA {
		t.Fatalf("answers = %v", res.Answers)
	}
	want := dnswire.MustAddr("fd0f:3897:faf7:a375:1:586::3c")
	if got := res.Answers[0].Data.(dnswire.AAAA).Addr; got != want {
		t.Errorf("addr = %v", got)
	}
	if res.FromCache {
		t.Error("first resolution claimed cache")
	}
	// The full chain touched root, nl, and one of the cachetest servers.
	if w.root.Stats().Queries != 1 {
		t.Errorf("root queries = %d, want 1", w.root.Stats().Queries)
	}
	if w.nl.Stats().Queries != 1 {
		t.Errorf("nl queries = %d, want 1", w.nl.Stats().Queries)
	}
	if got := w.ns1.Stats().Queries + w.ns2.Stats().Queries; got != 1 {
		t.Errorf("cachetest queries = %d, want 1", got)
	}
}

func TestSecondQueryServedFromCache(t *testing.T) {
	w := newWorld(t, Config{})
	w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
	upBefore := w.res.Stats().UpstreamQueries
	res := w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
	if !res.FromCache {
		t.Error("second query not served from cache")
	}
	if got := w.res.Stats().UpstreamQueries; got != upBefore {
		t.Errorf("cache hit sent %d upstream queries", got-upBefore)
	}
	// Cached TTL must have decremented: world advanced ~30s in round 1.
	if ttl := res.Answers[0].TTL; ttl >= 60 {
		t.Errorf("cached TTL = %d, want < 60", ttl)
	}
}

func TestReferralsAreCached(t *testing.T) {
	w := newWorld(t, Config{})
	w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
	w.resolve(t, "9999.cachetest.nl.", dnswire.TypeAAAA)
	// The second name reuses the cached delegation: root and nl see no
	// extra queries.
	if got := w.root.Stats().Queries; got != 1 {
		t.Errorf("root queries = %d, want 1", got)
	}
	if got := w.nl.Stats().Queries; got != 1 {
		t.Errorf("nl queries = %d, want 1", got)
	}
}

func TestNegativeCaching(t *testing.T) {
	w := newWorld(t, Config{})
	res := w.resolve(t, "missing.cachetest.nl.", dnswire.TypeAAAA)
	if res.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v", res.RCode)
	}
	authQueries := w.ns1.Stats().Queries + w.ns2.Stats().Queries
	res = w.resolve(t, "missing.cachetest.nl.", dnswire.TypeAAAA)
	if !res.FromCache || res.RCode != dnswire.RCodeNXDomain {
		t.Errorf("negative answer not cached: %+v", res)
	}
	if got := w.ns1.Stats().Queries + w.ns2.Stats().Queries; got != authQueries {
		t.Error("negative hit still queried authoritatives")
	}
	// SOA minimum is 60 s; after it expires the authoritative is asked
	// again.
	w.clk.RunFor(61 * time.Second)
	res = w.resolve(t, "missing.cachetest.nl.", dnswire.TypeAAAA)
	if res.FromCache {
		t.Error("negative entry outlived its TTL")
	}
}

func TestNoDataCaching(t *testing.T) {
	w := newWorld(t, Config{})
	res := w.resolve(t, "1414.cachetest.nl.", dnswire.TypeA) // only AAAA exists
	if res.RCode != dnswire.RCodeNoError || len(res.Answers) != 0 {
		t.Fatalf("NODATA result = %+v", res)
	}
	if res.SOA.Data == nil {
		t.Error("NODATA without SOA")
	}
	res = w.resolve(t, "1414.cachetest.nl.", dnswire.TypeA)
	if !res.FromCache {
		t.Error("NODATA not cached")
	}
}

func TestCNAMEChaseWithinZone(t *testing.T) {
	w := newWorld(t, Config{})
	res := w.resolve(t, "www.cachetest.nl.", dnswire.TypeAAAA)
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %v", res.Answers)
	}
	if res.Answers[0].Type() != dnswire.TypeCNAME || res.Answers[1].Type() != dnswire.TypeAAAA {
		t.Errorf("chain = %v", res.Answers)
	}
}

func TestCNAMEChaseAcrossZones(t *testing.T) {
	w := newWorld(t, Config{})
	res := w.resolve(t, "alias.cachetest.nl.", dnswire.TypeAAAA)
	if res.ServFail {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %v", res.Answers)
	}
	last := res.Answers[len(res.Answers)-1]
	if last.Name != "www.other.nl." || last.Type() != dnswire.TypeAAAA {
		t.Errorf("final answer = %v", last)
	}
	// A cached partial chain also resolves.
	res = w.resolve(t, "alias.cachetest.nl.", dnswire.TypeAAAA)
	if len(res.Answers) != 2 {
		t.Errorf("second chase answers = %v", res.Answers)
	}
}

func TestRetryAgainstSecondServer(t *testing.T) {
	w := newWorld(t, Config{})
	w.net.SetInboundLoss(ns1Addr, 1) // ns1 dead, ns2 alive
	res := w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
	if res.ServFail {
		t.Fatalf("resolution failed with one living server: %+v", res)
	}
	if w.ns2.Stats().Queries == 0 {
		t.Error("second server never queried")
	}
}

func TestCompleteFailureServFail(t *testing.T) {
	w := newWorld(t, Config{})
	w.net.SetInboundLoss(ns1Addr, 1)
	w.net.SetInboundLoss(ns2Addr, 1)
	res := w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
	if !res.ServFail {
		t.Fatalf("expected SERVFAIL, got %+v", res)
	}
	if w.res.Stats().Timeouts == 0 {
		t.Error("no timeouts recorded")
	}
}

func TestRetriesAreBounded(t *testing.T) {
	w := newWorld(t, Config{MaxAttempts: 5, WorkBudget: 20})
	w.net.SetInboundLoss(ns1Addr, 1)
	w.net.SetInboundLoss(ns2Addr, 1)
	w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
	// Attempts against the dead zone are bounded by MaxAttempts (root and
	// nl answered fine, 1 query each).
	up := w.res.Stats().UpstreamQueries
	if up > 7+2 {
		t.Errorf("upstream queries = %d, want <= 9", up)
	}
	if up < 5 {
		t.Errorf("upstream queries = %d, want >= 5 retries", up)
	}
}

func TestServeStaleAfterExpiry(t *testing.T) {
	w := newWorld(t, Config{ServeStale: true, Cache: cache.Config{StaleWindow: time.Hour}})
	w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA) // warm (TTL 60)
	w.clk.RunFor(2 * time.Minute)                        // expire
	w.net.SetInboundLoss(ns1Addr, 1)
	w.net.SetInboundLoss(ns2Addr, 1)
	res := w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
	if res.ServFail || !res.Stale {
		t.Fatalf("expected stale answer, got %+v", res)
	}
	if res.Answers[0].TTL != 0 {
		t.Errorf("stale TTL = %d, want 0 (§5.3: stale answers carry TTL 0)", res.Answers[0].TTL)
	}
	if w.res.Stats().StaleServes != 1 {
		t.Errorf("StaleServes = %d", w.res.Stats().StaleServes)
	}
}

func TestTTLCapRewritesTTL(t *testing.T) {
	// An EC2-style resolver caps all TTLs at 60 s (§3.4).
	w := newWorld(t, Config{Cache: cache.Config{MaxTTL: 60 * time.Second}})
	w.resolve(t, "9999.cachetest.nl.", dnswire.TypeAAAA) // zone TTL 1800
	w.clk.RunFor(90 * time.Second)
	res := w.resolve(t, "9999.cachetest.nl.", dnswire.TypeAAAA)
	if res.FromCache {
		t.Error("capped entry survived past the cap")
	}
}

func TestFragmentedShardsMissIndependently(t *testing.T) {
	w := newWorld(t, Config{Cache: cache.Config{Shards: 4}})
	var first, second Result
	w.res.Resolve("9999.cachetest.nl.", dnswire.TypeAAAA, 0, func(r Result) { first = r })
	w.clk.RunFor(30 * time.Second)
	w.res.Resolve("9999.cachetest.nl.", dnswire.TypeAAAA, 1, func(r Result) { second = r })
	w.clk.RunFor(30 * time.Second)
	if first.FromCache {
		t.Error("first query from cache")
	}
	if second.FromCache {
		t.Error("shard 1 shared shard 0's cache (fragmentation broken)")
	}
	// Same shard does hit.
	var third Result
	w.res.Resolve("9999.cachetest.nl.", dnswire.TypeAAAA, 0, func(r Result) { third = r })
	w.clk.RunFor(time.Second)
	if !third.FromCache {
		t.Error("same shard missed")
	}
}

func TestHarvestNSAddrs(t *testing.T) {
	w := newWorld(t, Config{Harvest: HarvestFull})
	w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
	st := w.ns1.Stats()
	st2 := w.ns2.Stats()
	nsQ := st.ByType[dnswire.TypeNS] + st2.ByType[dnswire.TypeNS]
	aQ := st.ByType[dnswire.TypeA] + st2.ByType[dnswire.TypeA]
	aaaaQ := st.ByType[dnswire.TypeAAAA] + st2.ByType[dnswire.TypeAAAA]
	if nsQ == 0 {
		t.Error("no NS harvest queries")
	}
	if aQ == 0 {
		t.Error("no A-for-NS harvest queries")
	}
	// AAAA-for-NS (which do not exist) plus the target AAAA.
	if aaaaQ < 3 {
		t.Errorf("AAAA queries = %d, want >= 3 (target + 2 NS)", aaaaQ)
	}
}

func TestServeOverNetworkAndCoalescing(t *testing.T) {
	w := newWorld(t, Config{})
	responses := 0
	var lastResp *dnswire.Message
	w.net.Bind("10.9.9.9", func(src netsim.Addr, payload []byte) {
		m, err := dnswire.Unpack(payload)
		if err != nil {
			t.Errorf("bad response: %v", err)
			return
		}
		responses++
		lastResp = m
	})
	q1 := dnswire.NewQuery(1, "1414.cachetest.nl.", dnswire.TypeAAAA)
	q2 := dnswire.NewQuery(2, "1414.cachetest.nl.", dnswire.TypeAAAA)
	wire1, _ := q1.Pack()
	wire2, _ := q2.Pack()
	w.net.Send("10.9.9.9", resAddr, wire1)
	w.net.Send("10.9.9.9", resAddr, wire2)
	w.clk.RunFor(30 * time.Second)
	if responses != 2 {
		t.Fatalf("responses = %d, want 2", responses)
	}
	if !lastResp.RecursionAvailable {
		t.Error("RA bit not set")
	}
	if len(lastResp.Answers) != 1 {
		t.Errorf("answers = %v", lastResp.Answers)
	}
	// Coalescing collapsed the two concurrent queries into one upstream
	// resolution chain (3 queries: root, nl, cachetest).
	if up := w.res.Stats().UpstreamQueries; up > 3 {
		t.Errorf("upstream queries = %d, want <= 3 with coalescing", up)
	}
}

func TestForwardingMode(t *testing.T) {
	w := newWorld(t, Config{})
	// A first-level R1 forwarding to the world's iterative resolver.
	r1 := NewResolver(w.clk, Config{
		Forwarders: []netsim.Addr{resAddr},
		NoCache:    true,
	})
	r1.Attach(w.net, "10.0.0.1")
	res := resolveOn(t, w.clk, r1, "1414.cachetest.nl.", dnswire.TypeAAAA)
	if res.ServFail || len(res.Answers) != 1 {
		t.Fatalf("forwarded result = %+v", res)
	}
}

func TestForwardingFailover(t *testing.T) {
	w := newWorld(t, Config{})
	// Second upstream recursive resolver.
	res2 := NewResolver(w.clk, Config{
		RootHints: []ServerHint{{Name: "a.root-servers.net.", Addr: rootAddr}},
	})
	res2.Attach(w.net, "10.0.0.54")
	r1 := NewResolver(w.clk, Config{
		Forwarders: []netsim.Addr{resAddr, "10.0.0.54"},
		NoCache:    true,
	})
	r1.Attach(w.net, "10.0.0.1")
	// First upstream is unreachable. The forwarder shuffles its upstream
	// list per query, so run several queries: every one must succeed, and
	// the ones that picked the dead upstream first must have failed over
	// (visible as timeouts).
	w.net.SetInboundLoss(resAddr, 1)
	for i := 0; i < 8; i++ {
		res := resolveOn(t, w.clk, r1, "1414.cachetest.nl.", dnswire.TypeAAAA)
		if res.ServFail {
			t.Fatalf("query %d: failover did not work: %+v", i, res)
		}
	}
	if r1.Stats().Timeouts == 0 {
		t.Error("no query ever tried the dead upstream; failover untested")
	}
}

func TestForwardingCachesAnswers(t *testing.T) {
	w := newWorld(t, Config{})
	r1 := NewResolver(w.clk, Config{Forwarders: []netsim.Addr{resAddr}})
	r1.Attach(w.net, "10.0.0.1")
	resolveOn(t, w.clk, r1, "9999.cachetest.nl.", dnswire.TypeAAAA)
	up := r1.Stats().UpstreamQueries
	res := resolveOn(t, w.clk, r1, "9999.cachetest.nl.", dnswire.TypeAAAA)
	if !res.FromCache {
		t.Error("forwarding R1 did not cache")
	}
	if r1.Stats().UpstreamQueries != up {
		t.Error("cache hit forwarded anyway")
	}
}

func TestLameServerRotation(t *testing.T) {
	w := newWorld(t, Config{})
	// Replace ns1 with a server that hosts no zones, so it REFUSES
	// everything (a lame delegation).
	authoritative.New().Attach(w.net, ns1Addr)
	res := w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
	if res.ServFail {
		t.Fatalf("lame rotation failed: %+v", res)
	}
}

func TestResolverClientTimeout(t *testing.T) {
	w := newWorld(t, Config{ClientTimeout: 2 * time.Second, MaxAttempts: 50, WorkBudget: 500,
		InitialTimeout: 900 * time.Millisecond})
	w.net.SetInboundLoss(ns1Addr, 1)
	w.net.SetInboundLoss(ns2Addr, 1)
	var got *Result
	start := w.clk.Now()
	w.res.Resolve("1414.cachetest.nl.", dnswire.TypeAAAA, 0, func(r Result) { got = &r })
	w.clk.RunFor(time.Minute)
	if got == nil {
		t.Fatal("no answer")
	}
	if !got.ServFail {
		t.Errorf("result = %+v", got)
	}
	// The SERVFAIL arrived at the client deadline, not after 50 attempts.
	_ = start
}

// TestResolverBytes pins what one more resolver costs a cell: a population
// materializes thousands, most of which serve a probe or two, so a
// resolver that is built and attached but idle must hold no scratch and
// no map of its own (the working set is the network's) and no copy of
// its kind's Config (New shares one). The struct stays in the 768-byte
// size class. 945 live bytes measured alone and 950-952 in the package's
// run, its network's 48-byte host record included (968 and 973 with a
// 64-byte record holding the TCP plane and anycast group, 920 before
// netsim kept one record per address), under a bound pinned at 955
// (1 187 with a 968-byte struct holding its Config and four maps; 1 955,
// a 1 560-byte struct among them, while every resolver kept four scratch
// messages and two free lists).
func TestResolverBytes(t *testing.T) {
	if size := unsafe.Sizeof(Resolver{}); size > 768 {
		t.Errorf("a resolver is %d bytes, want ≤ 768", size)
	}
	const n = 1 << 12
	addrs := make([]netsim.Addr, n)
	for i := range addrs {
		addrs[i] = netsim.Addr(fmt.Sprintf("10.%d.%d.1", i>>8, i&255))
	}
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	cfg := Config{RootHints: []ServerHint{{Name: "a.root-servers.net.", Addr: rootAddr}}}.WithDefaults()
	rs := make([]*Resolver, n)
	before := liveHeap()
	for i := range rs {
		rs[i] = New(clk, &cfg, int64(i))
		rs[i].Attach(net, addrs[i])
	}
	after := liveHeap()
	per := float64(int64(after)-int64(before)) / n
	if per > 955 {
		t.Errorf("an idle attached resolver costs %.0f heap bytes, want ≤ 955", per)
	}
	t.Logf("an idle attached resolver costs %.0f heap bytes (struct %d)", per, unsafe.Sizeof(Resolver{}))
	runtime.KeepAlive(rs)
	runtime.KeepAlive(net)
}

// TestMalformedResponseLeavesQueryInFlight sends, as bytes, a response
// whose ID matches the query in flight but whose body is cut short, then
// the whole response. The first is ignored without taking the query out
// of flight, so the second completes the resolution.
func TestMalformedResponseLeavesQueryInFlight(t *testing.T) {
	const upstream = "192.0.2.53"
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1)
	net.SetPairDelay(upstream, resAddr, 10*time.Millisecond)
	var port *netsim.Port
	port = net.Bind(upstream, func(src netsim.Addr, payload []byte) {
		q, err := dnswire.Unpack(payload)
		if err != nil {
			t.Errorf("query does not decode: %v", err)
			return
		}
		resp := dnswire.NewResponse(q)
		resp.RecursionAvailable = true
		resp.Answers = append(resp.Answers, dnswire.RR{Name: q.Question1().Name, Class: dnswire.ClassIN,
			TTL: 60, Data: dnswire.A{Addr: dnswire.MustAddr("192.0.2.9")}})
		wire, err := resp.Pack()
		if err != nil {
			t.Fatal(err)
		}
		port.Send(src, wire[:len(wire)-1])
		port.Send(src, wire)
	})
	r := NewResolver(clk, Config{Forwarders: []netsim.Addr{upstream}})
	r.Attach(net, resAddr)
	res := resolveOn(t, clk, r, "www.example.nl.", dnswire.TypeA)
	if res.ServFail || len(res.Answers) != 1 {
		t.Fatalf("result = %+v, want the answer that followed the malformed response", res)
	}
	if st := r.Stats(); st.Timeouts != 0 || st.UpstreamQueries != 1 {
		t.Errorf("stats = %+v, want one upstream query and no timeout", st)
	}
}

// liveHeap collects and returns the heap bytes that collection marked
// live. Unlike MemStats.HeapAlloc read after runtime.GC, it does not count
// what other goroutines allocate between the collection and the read.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
