// Package proptest is a seeded randomized-scenario property harness for
// the simulator. Generate derives a small random DNS ecosystem from a
// seed — zone depth, record TTLs, resolver profiles (shard counts, TTL
// caps/floors, serve-stale, forwarding), client populations, query
// schedules, and a DDoS loss window — and World materializes and runs it,
// checking metamorphic and conservation invariants that must hold on
// every run, not just the curated paper experiments:
//
//   - determinism: the same seed produces a byte-identical run report
//   - TTL monotonicity: no client-visible TTL exceeds the zone TTL after
//     the profile's cap/floor rewriting
//   - exactly-once delivery: every stub and resolver callback fires once
//   - conservation: packets, clock events, and per-resolver query/response
//     tallies balance (the internal/metrics invariant style)
//
// The cache-credibility ordering property (lower-rank data never
// overwrites fresher higher-rank data) is checked separately by a
// model-based random-operation test in this package's tests.
package proptest

import (
	"fmt"
	"time"

	"repro/internal/lazyrand"
)

// ResolverProfile describes one resolver of a generated scenario.
type ResolverProfile struct {
	// Forwarder selects forwarding mode; Backends index the scenario's
	// iterative resolvers it relays to.
	Forwarder bool
	Backends  []int
	// Shards is the number of independent backend caches (§3.5 cache
	// fragmentation).
	Shards int
	// ServeStale enables answering with expired entries (§5.3).
	ServeStale bool
	// MinTTL / MaxTTL are the cache's TTL floor and cap (§3.4 rewriting).
	MinTTL time.Duration
	MaxTTL time.Duration
	// InitialTimeout overrides the resolver's first per-query timeout;
	// zero keeps the engine default.
	InitialTimeout time.Duration
}

// Query is one scheduled client query. The schedule is fully materialized
// at generation time so a scenario replays identically.
type Query struct {
	At       time.Duration
	Client   int // index into Scenario.Clients; -1 for direct probes
	Resolver int
	Name     string // FQDN inside the leaf zone
	Shard    int    // shard hint, used by direct probes
	// Direct probes call Resolver.Resolve instead of sending a packet
	// through a stub, exercising the API path's exactly-once contract.
	Direct bool
}

// Scenario is a fully materialized random ecosystem. Every random choice
// is made from the seed at generation time; building and running the same
// scenario twice must yield byte-identical reports.
type Scenario struct {
	Seed int64

	// LeafZone is the delegated zone under test.; its depth varies.
	LeafZone string
	// LeafTTL is the TTL of the zone's answer records; NegTTL its SOA
	// minimum (negative-caching TTL).
	LeafTTL uint32
	NegTTL  uint32
	// Names are the queryable FQDNs inside LeafZone.
	Names []string

	Resolvers []ResolverProfile
	// Clients maps each stub client to the resolver it queries.
	Clients []int
	Queries []Query

	// Attack is a loss window on the leaf authoritatives (and optionally
	// the TLD server), the paper's DDoS dial. AttackDur == 0 disables it.
	AttackStart time.Duration
	AttackDur   time.Duration
	AttackLoss  float64
	AttackTLD   bool

	// Total is the scheduled experiment span; the run drains all events
	// past it.
	Total time.Duration
}

// Generate derives a scenario from seed.
func Generate(seed int64) Scenario {
	rng := lazyrand.New(seed)
	sc := Scenario{Seed: seed, LeafZone: "leaf.test."}
	if rng.Intn(2) == 1 {
		sc.LeafZone = "leaf.sub.test." // deeper delegation from the TLD
	}
	sc.LeafTTL = uint32(5 + rng.Intn(116))
	sc.NegTTL = uint32(5 + rng.Intn(56))

	nNames := 1 + rng.Intn(5)
	for i := 0; i < nNames; i++ {
		rel := fmt.Sprintf("n%d", i)
		if rng.Intn(3) == 0 {
			rel = fmt.Sprintf("deep%d.n%d", rng.Intn(3), i)
		}
		sc.Names = append(sc.Names, rel+"."+sc.LeafZone)
	}

	nDirect := 1 + rng.Intn(3)
	for i := 0; i < nDirect; i++ {
		p := ResolverProfile{Shards: 1 + rng.Intn(4), ServeStale: rng.Intn(2) == 1}
		if rng.Intn(2) == 1 {
			p.MaxTTL = time.Duration(10+rng.Intn(80)) * time.Second
		}
		if rng.Intn(3) == 0 {
			p.MinTTL = time.Duration(2+rng.Intn(20)) * time.Second
		}
		sc.Resolvers = append(sc.Resolvers, p)
	}
	if rng.Intn(5) < 2 {
		// An R1-style forwarder relaying to every iterative resolver.
		p := ResolverProfile{Forwarder: true, Shards: 1, ServeStale: rng.Intn(2) == 1}
		for b := 0; b < nDirect; b++ {
			p.Backends = append(p.Backends, b)
		}
		if rng.Intn(2) == 1 {
			p.MaxTTL = time.Duration(10+rng.Intn(80)) * time.Second
		}
		sc.Resolvers = append(sc.Resolvers, p)
	}

	nClients := 2 + rng.Intn(4)
	for i := 0; i < nClients; i++ {
		sc.Clients = append(sc.Clients, rng.Intn(len(sc.Resolvers)))
	}

	rounds := 2 + rng.Intn(4)
	interval := time.Duration(15+rng.Intn(46)) * time.Second
	for round := 0; round < rounds; round++ {
		base := time.Duration(round) * interval
		for cIdx, rIdx := range sc.Clients {
			if rng.Intn(10) < 8 {
				sc.Queries = append(sc.Queries, Query{
					At:     base + time.Duration(rng.Intn(3000))*time.Millisecond,
					Client: cIdx, Resolver: rIdx,
					Name: sc.Names[rng.Intn(len(sc.Names))],
				})
			}
		}
	}
	span := time.Duration(rounds) * interval
	for rIdx := range sc.Resolvers {
		n := 1 + rng.Intn(2)
		for i := 0; i < n; i++ {
			sc.Queries = append(sc.Queries, Query{
				At:       time.Duration(rng.Int63n(int64(span))),
				Client:   -1,
				Resolver: rIdx,
				Name:     sc.Names[rng.Intn(len(sc.Names))],
				Shard:    rng.Intn(8),
				Direct:   true,
			})
		}
	}

	if rng.Intn(2) == 1 {
		sc.AttackStart = time.Duration(10+rng.Intn(50)) * time.Second
		sc.AttackDur = time.Duration(20+rng.Intn(70)) * time.Second
		sc.AttackLoss = []float64{0.5, 0.75, 0.9, 1.0}[rng.Intn(4)]
		sc.AttackTLD = rng.Intn(3) == 0
	}

	sc.Total = span + 30*time.Second
	return sc
}

// TTLBound is the largest client-visible answer TTL profile p may serve
// for a record published with zoneTTL. It mirrors cache.effectiveTTL
// (cap, then floor — both on store and on the finish-path rewrite); for
// forwarders, the input is the largest TTL any backend may relay.
func (s Scenario) TTLBound(p ResolverProfile, zoneTTL uint32) uint32 {
	in := zoneTTL
	if p.Forwarder {
		in = 0
		for _, b := range p.Backends {
			if v := s.TTLBound(s.Resolvers[b], zoneTTL); v > in {
				in = v
			}
		}
	}
	if max := uint32(p.MaxTTL / time.Second); max > 0 && in > max {
		in = max
	}
	if min := uint32(p.MinTTL / time.Second); min > 0 && in < min {
		in = min
	}
	return in
}
