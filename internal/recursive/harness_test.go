package recursive

import (
	"testing"
	"time"

	"repro/internal/authoritative"
	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/zone"
)

var epoch = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)

// Addresses of the test hierarchy.
const (
	rootAddr = "198.41.0.4"
	nlAddr   = "194.0.28.53"
	ns1Addr  = "192.0.2.1"
	ns2Addr  = "192.0.2.2"
	resAddr  = "10.0.0.53"
)

const rootZoneText = `
$ORIGIN .
$TTL 518400
@   IN SOA a.root-servers.net. nstld.verisign-grs.com. 2018050100 1800 900 604800 86400
@   IN NS a.root-servers.net.
a.root-servers.net. IN A 198.41.0.4
nl. 172800 IN NS ns1.dns.nl.
ns1.dns.nl. 172800 IN A 194.0.28.53
`

const nlZoneText = `
$ORIGIN nl.
$TTL 7200
@   IN SOA ns1.dns.nl. hostmaster.dns.nl. 2018050100 3600 600 2419200 3600
@   IN NS ns1.dns.nl.
ns1.dns IN A 194.0.28.53
cachetest 3600 IN NS ns1.cachetest.nl.
cachetest 3600 IN NS ns2.cachetest.nl.
ns1.cachetest 3600 IN A 192.0.2.1
ns2.cachetest 3600 IN A 192.0.2.2
`

const cachetestZoneText = `
$ORIGIN cachetest.nl.
$TTL 3600
@       IN SOA ns1 hostmaster 1 7200 3600 864000 60
@       IN NS  ns1
@       IN NS  ns2
ns1     IN A   192.0.2.1
ns2     IN A   192.0.2.2
1414 60 IN AAAA fd0f:3897:faf7:a375:1:586::3c
9999 1800 IN AAAA fd0f:3897:faf7:a375:1:270f:0:1800
www     IN CNAME 1414
alias   IN CNAME www.other.nl.
`

const otherZoneText = `
$ORIGIN other.nl.
$TTL 300
@    IN SOA ns1.dns.nl. h.other.nl. 1 2 3 4 60
@    IN NS ns1.dns.nl.
www  IN AAAA 2001:db8::77
`

// world is a complete simulated DNS hierarchy for resolver tests.
type world struct {
	clk  *clock.Virtual
	net  *netsim.Network
	root *authoritative.Server
	nl   *authoritative.Server
	ns1  *authoritative.Server
	ns2  *authoritative.Server
	res  *Resolver
}

func mustZone(t *testing.T, text string) *zone.Zone {
	t.Helper()
	z, err := zone.ParseString(text, "")
	if err != nil {
		t.Fatal(err)
	}
	return z
}

// newWorld builds the hierarchy and a resolver with cfg (root hints are
// filled in automatically unless forwarding).
func newWorld(t *testing.T, cfg Config) *world {
	t.Helper()
	w := &world{clk: clock.NewVirtual(epoch)}
	w.net = netsim.New(w.clk, 1)
	w.root, w.nl, w.ns1, w.ns2 = attachHierarchy(t, w.net)

	if len(cfg.Forwarders) == 0 && len(cfg.RootHints) == 0 {
		cfg.RootHints = []ServerHint{{Name: "a.root-servers.net.", Addr: rootAddr}}
	}
	w.res = NewResolver(w.clk, cfg)
	w.res.Attach(w.net, resAddr)
	return w
}

// attachHierarchy attaches the test hierarchy's servers to net: the
// root, ns1.dns.nl (serving nl. and other.nl.) and the two cachetest.nl
// authoritatives.
func attachHierarchy(t *testing.T, net *netsim.Network) (root, nl, ns1, ns2 *authoritative.Server) {
	t.Helper()
	root = authoritative.New(mustZone(t, rootZoneText))
	nl = authoritative.New(mustZone(t, nlZoneText), mustZone(t, otherZoneText))
	ns1 = authoritative.New(mustZone(t, cachetestZoneText))
	ns2 = authoritative.New(mustZone(t, cachetestZoneText))
	root.Attach(net, rootAddr)
	nl.Attach(net, nlAddr)
	ns1.Attach(net, ns1Addr)
	ns2.Attach(net, ns2Addr)
	return root, nl, ns1, ns2
}

// resolve runs a query to completion on the virtual clock and returns the
// result.
func (w *world) resolve(t *testing.T, name string, qtype dnswire.Type) Result {
	t.Helper()
	return resolveOn(t, w.clk, w.res, name, qtype)
}

func resolveOn(t *testing.T, clk *clock.Virtual, r *Resolver, name string, qtype dnswire.Type) Result {
	t.Helper()
	var got *Result
	r.Resolve(name, qtype, 0, func(res Result) { got = &res })
	clk.RunFor(30 * time.Second)
	if got == nil {
		t.Fatalf("resolution of %s %s never completed", name, qtype)
	}
	return *got
}

// jobFor returns r's coalescing job for (name, qtype) on shard 0, nil if
// none is open.
func (r *Resolver) jobFor(name string, qtype dnswire.Type) *clientJob {
	return r.work().coalesce[coalesceKey{name: name, qtype: qtype, rid: r.rid}]
}
