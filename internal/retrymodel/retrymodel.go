// Package retrymodel reproduces the paper's §6.2 / Appendix E software
// study: how many queries BIND-like and Unbound-like recursive resolvers
// send to each zone level (root, .net, cachetest.net) when resolving
// AAAA sub.cachetest.net with the target's authoritatives up versus
// completely unreachable (Figure 16).
//
// Each trial runs a cold-cache resolver against a fresh simulated
// hierarchy and counts the queries arriving at each level's servers,
// mirroring the paper's 100-trial packet captures.
package retrymodel

import (
	"time"

	"repro/internal/authoritative"
	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/recursive"
	"repro/internal/zone"
)

// Profile is a modeled resolver implementation.
type Profile struct {
	Name string
	// Harvest mirrors Unbound's fetching of the (missing) AAAA records of
	// a zone's nameservers, the source of its extra queries in the
	// paper's Figure 16.
	Harvest recursive.HarvestMode
	// MaxAttempts is the per-fetch retry budget; both daemons retry 6-7
	// times per name when servers are dead (§6.2).
	MaxAttempts int
	// WorkBudget caps the total upstream queries of one resolution.
	WorkBudget int
}

// BINDLike models BIND 9.10-style behavior: no NS-address harvesting,
// ~4x query increase during failure.
func BINDLike() Profile {
	return Profile{Name: "bind", Harvest: recursive.HarvestNone, MaxAttempts: 7, WorkBudget: 16}
}

// UnboundLike models Unbound 1.5-style behavior: chases the nonexistent
// AAAA records of the nameservers it learns, producing both its higher
// baseline (5-6 queries) and its much larger failure amplification.
func UnboundLike() Profile {
	return Profile{Name: "unbound", Harvest: recursive.HarvestAAAA, MaxAttempts: 7, WorkBudget: 48}
}

// Counts is the per-level query tally of one trial or an average.
type Counts struct {
	Root   float64
	Net    float64
	Target float64
}

// Total sums all levels.
func (c Counts) Total() float64 { return c.Root + c.Net + c.Target }

// Result summarizes a batch of trials.
type Result struct {
	Profile Profile
	Down    bool
	Trials  int
	Mean    Counts
	// Answered counts trials that got a positive answer.
	Answered int
}

// Run executes trials cold-cache resolutions and averages the per-level
// query counts. down makes the target zone's authoritatives drop all
// queries.
func Run(profile Profile, down bool, trials int, seed int64) Result {
	res := Result{Profile: profile, Down: down, Trials: trials}
	for i := 0; i < trials; i++ {
		counts, ok := runTrial(profile, down, seed+int64(i))
		res.Mean.Root += counts.Root
		res.Mean.Net += counts.Net
		res.Mean.Target += counts.Target
		if ok {
			res.Answered++
		}
	}
	if trials > 0 {
		res.Mean.Root /= float64(trials)
		res.Mean.Net /= float64(trials)
		res.Mean.Target /= float64(trials)
	}
	return res
}

// Hierarchy addresses.
const (
	rootAddr = "198.41.0.4"
	netAddr  = "192.5.6.30"
	ns1Addr  = "203.0.113.1"
	ns2Addr  = "203.0.113.2"
)

func runTrial(profile Profile, down bool, seed int64) (Counts, bool) {
	clk := clock.NewVirtual(time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC))
	net := netsim.New(clk, seed)

	rootZone := zone.New(".")
	rootZone.MustAdd(dnswire.RR{Name: ".", TTL: 518400, Data: dnswire.SOA{
		MName: "a.root-servers.net.", RName: "nstld.verisign-grs.com.",
		Serial: 1, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400}})
	rootZone.MustAdd(dnswire.RR{Name: ".", TTL: 518400, Data: dnswire.NS{Host: "a.root-servers.net."}})
	rootZone.MustAdd(dnswire.RR{Name: "a.root-servers.net.", TTL: 518400,
		Data: dnswire.A{Addr: dnswire.MustAddr(rootAddr)}})
	rootZone.MustAdd(dnswire.RR{Name: "net.", TTL: 172800, Data: dnswire.NS{Host: "a.gtld-servers.net."}})
	rootZone.MustAdd(dnswire.RR{Name: "a.gtld-servers.net.", TTL: 172800,
		Data: dnswire.A{Addr: dnswire.MustAddr(netAddr)}})

	netZone := zone.New("net.")
	netZone.MustAdd(dnswire.RR{Name: "net.", TTL: 86400, Data: dnswire.SOA{
		MName: "a.gtld-servers.net.", RName: "nstld.verisign-grs.com.",
		Serial: 1, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 3600}})
	netZone.MustAdd(dnswire.RR{Name: "net.", TTL: 86400, Data: dnswire.NS{Host: "a.gtld-servers.net."}})
	netZone.MustAdd(dnswire.RR{Name: "a.gtld-servers.net.", TTL: 86400,
		Data: dnswire.A{Addr: dnswire.MustAddr(netAddr)}})
	netZone.MustAdd(dnswire.RR{Name: "cachetest.net.", TTL: 172800, Data: dnswire.NS{Host: "ns1.cachetest.net."}})
	netZone.MustAdd(dnswire.RR{Name: "cachetest.net.", TTL: 172800, Data: dnswire.NS{Host: "ns2.cachetest.net."}})
	netZone.MustAdd(dnswire.RR{Name: "ns1.cachetest.net.", TTL: 172800,
		Data: dnswire.A{Addr: dnswire.MustAddr(ns1Addr)}})
	netZone.MustAdd(dnswire.RR{Name: "ns2.cachetest.net.", TTL: 172800,
		Data: dnswire.A{Addr: dnswire.MustAddr(ns2Addr)}})

	targetZone := zone.New("cachetest.net.")
	targetZone.MustAdd(dnswire.RR{Name: "cachetest.net.", TTL: 3600, Data: dnswire.SOA{
		MName: "ns1.cachetest.net.", RName: "h.cachetest.net.",
		Serial: 1, Refresh: 7200, Retry: 3600, Expire: 864000, Minimum: 60}})
	targetZone.MustAdd(dnswire.RR{Name: "cachetest.net.", TTL: 3600, Data: dnswire.NS{Host: "ns1.cachetest.net."}})
	targetZone.MustAdd(dnswire.RR{Name: "cachetest.net.", TTL: 3600, Data: dnswire.NS{Host: "ns2.cachetest.net."}})
	targetZone.MustAdd(dnswire.RR{Name: "ns1.cachetest.net.", TTL: 3600,
		Data: dnswire.A{Addr: dnswire.MustAddr(ns1Addr)}})
	targetZone.MustAdd(dnswire.RR{Name: "ns2.cachetest.net.", TTL: 3600,
		Data: dnswire.A{Addr: dnswire.MustAddr(ns2Addr)}})
	targetZone.MustAdd(dnswire.RR{Name: "sub.cachetest.net.", TTL: 3600,
		Data: dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::5")}})

	authoritative.New(rootZone).Attach(net, rootAddr)
	authoritative.New(netZone).Attach(net, netAddr)
	authoritative.New(targetZone).Attach(net, ns1Addr)
	authoritative.New(targetZone).Attach(net, ns2Addr)

	var counts Counts
	net.AddTap(func(ev netsim.Event) {
		switch ev.Dst {
		case rootAddr:
			counts.Root++
		case netAddr:
			counts.Net++
		case ns1Addr, ns2Addr:
			counts.Target++
		}
	})

	if down {
		net.SetInboundLoss(ns1Addr, 1)
		net.SetInboundLoss(ns2Addr, 1)
	}

	r := recursive.NewResolver(clk, recursive.Config{
		RootHints:     []recursive.ServerHint{{Name: "a.root-servers.net.", Addr: rootAddr}},
		Harvest:       profile.Harvest,
		MaxAttempts:   profile.MaxAttempts,
		WorkBudget:    profile.WorkBudget,
		ClientTimeout: 30 * time.Second,
		Seed:          seed,
	})
	r.Attach(net, "10.0.0.53")

	answered := false
	r.Resolve("sub.cachetest.net.", dnswire.TypeAAAA, 0, func(res recursive.Result) {
		answered = !res.ServFail && len(res.Answers) > 0
	})
	clk.RunFor(2 * time.Minute)
	return counts, answered
}
