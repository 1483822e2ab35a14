package dikes_test

import (
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	dikes "repro"
	"repro/internal/authoritative"
	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/recursive"
	"repro/internal/spec"
	"repro/internal/stub"
	"repro/internal/udprun"
	"repro/internal/zone"
)

// resolveAllocBudget is the hard per-resolution allocation ceiling for
// the cold-resolution workload (recursive.resolve_cold_ns in
// ./benchmark): building a one-probe testbed, attaching a cold-cache
// resolver, and resolving one name through the full simulated
// root -> nl -> cachetest.nl hierarchy. The timing-wheel
// engine, the arena-backed caches, and the append-into wire codec hold
// the measured cost at 88 allocations (most of them the testbed build);
// the ceiling is that plus 10 %: headroom for runtime jitter, but a
// per-event closure or a per-packet payload copy coming back costs tens
// of allocations per resolution and fails tier-1 `go test`.
const resolveAllocBudget = 96

// TestResolveAllocBudget pins the per-resolution allocation count so
// allocation regressions on the hot path surface in plain `go test`,
// not only in benchmark runs someone has to remember to compare.
func TestResolveAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is noisy under -short race harnesses")
	}
	if poolsDrop() {
		t.Skip("sync.Pool is dropping Puts (race detector): pooled buffers re-allocate at random")
	}
	run := func(seed int64) {
		tb := dikes.NewTestbed(dikes.TestbedConfig{Probes: 1, Seed: seed})
		r := dikes.NewResolver(tb.Clk, dikes.ResolverConfig{
			RootHints: []dikes.ServerHint{{Name: "a.root-servers.net.", Addr: "198.41.0.4"}},
			Seed:      seed,
		})
		r.Attach(tb.Net, "bench-res")
		done := false
		r.Resolve("1.cachetest.nl.", dikes.TypeAAAA, 0, func(res dikes.ResolveResult) {
			done = !res.ServFail
		})
		tb.Clk.RunFor(time.Hour)
		if !done {
			t.Fatal("resolution failed")
		}
	}
	// Warm the global pools (packet buffers, wire scratch, zone template
	// memos) exactly as a benchmark's early iterations would; steady
	// state is what the budget governs.
	var seed int64
	for ; seed < 3; seed++ {
		run(seed)
	}
	got := testing.AllocsPerRun(10, func() {
		run(seed)
		seed++
	})
	if got > resolveAllocBudget {
		t.Fatalf("resolution allocates %.0f objects/op, budget is %d "+
			"(see recursive.resolve_cold_allocs in ./benchmark; raise only with a measured justification)",
			got, resolveAllocBudget)
	}
	t.Logf("resolution allocates %.0f objects/op (budget %d)", got, resolveAllocBudget)
}

// poolsDrop reports whether sync.Pool discards what it is handed back, as
// it does for a random quarter of Puts under the race detector. The
// budgets count on the pooled wire builders and packet buffers coming back.
func poolsDrop() bool {
	p := sync.Pool{New: func() any { return new(int) }}
	return testing.AllocsPerRun(1, func() {
		for i := 0; i < 100; i++ {
			p.Put(p.Get())
		}
	}) > 0
}

// stubQueryAllocBudget is the ceiling for one stub query round trip
// through netsim against an allocation-free responder: Query, pack, send,
// deliver, decode, callback. The stub keeps a scratch query, a scratch
// response and a recycled wire buffer, arms its timeout through a static
// callback and takes its pending record from a free list: 0 measured (8
// before the scratch path), pinned at measured + 1.
const stubQueryAllocBudget = 1

func TestStubQueryAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is noisy under -short race harnesses")
	}
	if poolsDrop() {
		t.Skip("sync.Pool is dropping Puts (race detector): pooled buffers re-allocate at random")
	}
	clk := clock.NewVirtual(time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC))
	net := netsim.New(clk, 1)
	var q, resp dnswire.Message
	var port *netsim.Port
	buf := make([]byte, 0, 512)
	var data dnswire.RData = dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::1")}
	port = net.Bind("responder", func(src netsim.Addr, payload []byte) {
		if dnswire.UnpackInto(&q, payload) != nil {
			return
		}
		resp.ResetResponse(&q)
		resp.Answers = append(resp.Answers, dnswire.RR{Name: q.Questions[0].Name,
			Class: dnswire.ClassIN, TTL: 60, Data: data})
		var err error
		if buf, err = resp.AppendPack(buf[:0]); err == nil {
			port.Send(src, buf)
		}
	})
	c := stub.New(clk, stub.Config{})
	c.Attach(net, "stub")
	answered := 0
	cb := func(res stub.Result) {
		if res.Err == nil && len(res.Msg.Answers) == 1 {
			answered++
		}
	}
	round := func() {
		c.Query("responder", "1.cachetest.nl.", dnswire.TypeAAAA, cb)
		clk.Run()
	}
	for i := 0; i < 3; i++ {
		round()
	}
	got := testing.AllocsPerRun(100, round)
	if answered != 104 {
		t.Fatalf("%d of 104 queries answered", answered)
	}
	if got > stubQueryAllocBudget {
		t.Fatalf("a stub query round trip allocates %.1f objects, budget is %d", got, stubQueryAllocBudget)
	}
	t.Logf("a stub query round trip allocates %.1f objects (budget %d)", got, stubQueryAllocBudget)
}

// clientMissAllocBudget is the ceiling for one steady-state client miss
// through netsim: a stub-side query to a caching-off resolver, its
// upstream exchange with an authoritative, and the answer back. The job
// comes off the resolver's free list and returns when the answer leaves,
// the outquery likewise, and every message is a scratch one: 0 measured
// (1, the 416-byte job, before jobs were recycled), pinned at measured + 1.
const clientMissAllocBudget = 1

func TestClientMissAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is noisy under -short race harnesses")
	}
	if poolsDrop() {
		t.Skip("sync.Pool is dropping Puts (race detector): pooled buffers re-allocate at random")
	}
	clk := clock.NewVirtual(time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC))
	net := netsim.New(clk, 1)
	z := zone.New("cachetest.nl.")
	z.MustAdd(dnswire.RR{Name: "cachetest.nl.", TTL: 3600, Data: dnswire.SOA{
		MName: "ns1.cachetest.nl.", RName: "hostmaster.cachetest.nl.", Serial: 1, Minimum: 60}})
	z.MustAdd(dnswire.RR{Name: "1.cachetest.nl.", TTL: 3600,
		Data: dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::1")}})
	authoritative.New(z).Attach(net, "auth")
	r := recursive.NewResolver(clk, recursive.Config{NoCache: true, Seed: 1,
		RootHints: []recursive.ServerHint{{Name: "hint.auth.", Addr: "auth"}}})
	r.Attach(net, "res")
	wire, err := dnswire.NewQuery(7, "1.cachetest.nl.", dnswire.TypeAAAA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	var resp dnswire.Message
	answered := 0
	client := net.Bind("client", func(_ netsim.Addr, payload []byte) {
		if dnswire.UnpackInto(&resp, payload) == nil && len(resp.Answers) == 1 {
			answered++
		}
	})
	miss := func() {
		client.Send("res", wire)
		clk.Run()
	}
	for i := 0; i < 3; i++ {
		miss()
	}
	got := testing.AllocsPerRun(100, miss)
	if answered != 104 {
		t.Fatalf("%d of 104 misses answered", answered)
	}
	if got > clientMissAllocBudget {
		t.Fatalf("a client miss allocates %.1f objects, budget is %d", got, clientMissAllocBudget)
	}
	t.Logf("a client miss allocates %.1f objects (budget %d)", got, clientMissAllocBudget)
}

// clientHitAllocBudget is the ceiling for one steady-state client cache
// hit through netsim: the query, a lookup that reads the cached set in
// place and copies it into the job's answer buffer, and the answer back.
// 0 measured, pinned at 0: the cloned set a hit cost when it went
// through Get is the one object the budget exists to keep out.
const clientHitAllocBudget = 0

func TestClientHitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is noisy under -short race harnesses")
	}
	if poolsDrop() {
		t.Skip("sync.Pool is dropping Puts (race detector): pooled buffers re-allocate at random")
	}
	clk := clock.NewVirtual(time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC))
	net := netsim.New(clk, 1)
	z := zone.New("cachetest.nl.")
	z.MustAdd(dnswire.RR{Name: "cachetest.nl.", TTL: 3600, Data: dnswire.SOA{
		MName: "ns1.cachetest.nl.", RName: "hostmaster.cachetest.nl.", Serial: 1, Minimum: 60}})
	z.MustAdd(dnswire.RR{Name: "1.cachetest.nl.", TTL: 3600,
		Data: dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::1")}})
	authoritative.New(z).Attach(net, "auth")
	r := recursive.NewResolver(clk, recursive.Config{Seed: 1,
		RootHints: []recursive.ServerHint{{Name: "hint.auth.", Addr: "auth"}}})
	r.Attach(net, "res")
	wire, err := dnswire.NewQuery(7, "1.cachetest.nl.", dnswire.TypeAAAA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	var resp dnswire.Message
	answered := 0
	client := net.Bind("client", func(_ netsim.Addr, payload []byte) {
		if dnswire.UnpackInto(&resp, payload) == nil && len(resp.Answers) == 1 && resp.Answers[0].TTL > 0 {
			answered++
		}
	})
	ask := func() {
		client.Send("res", wire)
		clk.Run()
	}
	for i := 0; i < 3; i++ {
		ask() // the first is the miss that fills the cache
	}
	got := testing.AllocsPerRun(100, ask)
	if answered != 104 {
		t.Fatalf("%d of 104 queries answered", answered)
	}
	reg := metrics.NewRegistry()
	r.Cache().CollectMetrics(reg.Scope("cache"))
	if hits := reg.Snapshot().Scope("cache").Counters["hits"]; hits != 103 {
		t.Fatalf("%d cache hits, want 103 (every query after the first)", hits)
	}
	if got > clientHitAllocBudget {
		t.Fatalf("a client cache hit allocates %.1f objects, budget is %d", got, clientHitAllocBudget)
	}
	t.Logf("a client cache hit allocates %.1f objects (budget %d)", got, clientHitAllocBudget)
}

// cellAllocsPerProbeBudget is the ceiling on heap objects per probe of one
// simulated cell — the number the benchmark reports as
// experiment.allocs_per_probe, on a 256-probe cell of its sim_ddos_H
// workload: paper experiment H (TTL 1800 s, 90 % loss for one of three
// hours), `harvest: full`, built, run, collected and reported through
// RunCampaign. A client miss or a background fetch is a recycled job, a
// stub query and a scheduled round nothing; a closure per query, a job per
// miss or a distinct-count set per probe comes back as tens of objects per
// probe. 142 measured (225 with a cloned set per cache hit, a fresh set
// per cacheRRs group and a map slot per cache entry; 335 with a job per
// miss and a task per fetch besides), pinned at measured + 5 %.
const cellAllocsPerProbeBudget = 149

// cellBytesPerProbeBudget is the ceiling on heap bytes per probe
// (experiment.alloc_bytes_per_probe) of a 256-probe cell of each simulator
// workload. A fixed 5 KB on a resolver's first touch — math/rand's seeded
// state, a 32-node cache slab — costs kilobytes per probe, because most
// of a population's resolvers serve a probe or two (H 82.3 and calm
// 36.2 KB with both); so do a 416-byte job per client miss and an 80-byte
// tap event holding strings (71.4 and 23.3 KB), and a 168-byte cache node
// with a map slot and a cloned set per hit (37.6 and 16.9 KB). 31.8 and
// 15.4 KB measured, pinned at measured + 5 %.
var cellBytesPerProbeBudget = map[string]float64{"H": 33400, "calm": 16200}

// cells are one 256-probe cell of each simulator workload of ./benchmark.
var cells = map[string]string{
	"H": `{"version": 1, "name": "cell", "family": "ddos", "paper": "H",
		"engine": {"probes": 256, "seed": 42, "shards": 1, "shard_probes": 256},
		"population": {"harvest": "full"}}`,
	"calm": `{"version": 1, "name": "cell", "family": "caching",
		"engine": {"probes": 256, "seed": 42, "shards": 1, "shard_probes": 256},
		"workload": {"ttl": 3600, "probe_interval": "20m", "rounds": 7}}`,
}

// cellCost runs the named cell twice, the first to warm the process-wide
// pools and memos, and returns the second run's heap objects and bytes
// per probe. It skips where the budgets are not meaningful.
func cellCost(t *testing.T, cell string) (objects, bytes float64) {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation accounting is noisy under -short race harnesses")
	}
	if poolsDrop() {
		t.Skip("sync.Pool is dropping Puts (race detector): pooled buffers re-allocate at random")
	}
	const probes = 256
	s, err := spec.Parse([]byte(cells[cell]))
	if err != nil {
		t.Fatal(err)
	}
	items, err := spec.CompileAll(s, "cell")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := experiment.RunCampaign(context.Background(), items, 1)
		runtime.ReadMemStats(&after)
		if err != nil || res[0].Err != nil {
			t.Fatal(err, res[0].Err)
		}
		objects = float64(after.Mallocs-before.Mallocs) / probes
		bytes = float64(after.TotalAlloc-before.TotalAlloc) / probes
	}
	return objects, bytes
}

func TestCellAllocsPerProbeBudget(t *testing.T) {
	got, _ := cellCost(t, "H")
	if got > cellAllocsPerProbeBudget {
		t.Fatalf("a cell allocates %.1f objects per probe, budget is %d "+
			"(see experiment.allocs_per_probe in ./benchmark)", got, cellAllocsPerProbeBudget)
	}
	t.Logf("a cell allocates %.1f objects per probe (budget %d)", got, cellAllocsPerProbeBudget)
}

func TestCellBytesPerProbeBudget(t *testing.T) {
	for _, cell := range []string{"H", "calm"} {
		_, got := cellCost(t, cell)
		budget := cellBytesPerProbeBudget[cell]
		if got > budget {
			t.Errorf("a %s cell allocates %.0f bytes per probe, budget is %.0f "+
				"(see experiment.alloc_bytes_per_probe in ./benchmark)", cell, got, budget)
		}
		t.Logf("a %s cell allocates %.0f bytes per probe (budget %.0f)", cell, got, budget)
	}
}

// udpServeAllocBudget is the ceiling for one loopback echo through
// udprun's Listen/Serve/Send: read into Serve's one buffer, source string
// out of the peer memo, handler under the loop lock, destination out of
// the other memo, write. 0 measured (11 when every packet was copied,
// formatted, wrapped in a closure and its reply address re-parsed),
// pinned at measured + 1.
const udpServeAllocBudget = 1

func TestUDPServeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is noisy under -short race harnesses")
	}
	loop := udprun.NewLoop()
	defer loop.Close()
	conn, err := udprun.Listen("127.0.0.1:0", loop)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go conn.Serve(func(src netsim.Addr, payload []byte) { conn.Send(src, payload) })
	client, err := net.Dial("udp", string(conn.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ping, buf := []byte("ping"), make([]byte, 16)
	failed := 0
	round := func() {
		client.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := client.Write(ping); err != nil {
			failed++
		}
		if n, err := client.Read(buf); err != nil || n != len(ping) {
			failed++
		}
	}
	for i := 0; i < 3; i++ {
		round()
	}
	got := testing.AllocsPerRun(200, round)
	if failed != 0 {
		t.Fatalf("%d echo operations failed", failed)
	}
	if got > udpServeAllocBudget {
		t.Fatalf("a loopback echo allocates %.1f objects, budget is %d", got, udpServeAllocBudget)
	}
	t.Logf("a loopback echo allocates %.1f objects (budget %d)", got, udpServeAllocBudget)
}
