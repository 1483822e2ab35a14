package experiment

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/lazyrand"
	"repro/internal/netsim"
	"repro/internal/recursive"
	"repro/internal/vantage"
)

// R1Kind is the deployment shape behind one vantage point's first-hop
// recursive.
type R1Kind int

// Population mix of first-hop recursive kinds (§3.5 of the paper).
const (
	// DirectHonest is a single-tier ISP recursive with a well-behaved
	// cache.
	DirectHonest R1Kind = iota
	// DirectCap60 rewrites all TTLs down to 60 s (the EC2-resolver
	// behavior of §3.4).
	DirectCap60
	// FarmGoogle forwards into a large anycast farm with fragmented
	// backend caches (Google-like).
	FarmGoogle
	// FarmOther forwards into a smaller public farm whose backends also
	// serve stale (OpenDNS-like, §5.3).
	FarmOther
	// MultiTier is an uncached first-level forwarder (home router / first
	// ISP tier) spreading queries over a small Rn pool.
	MultiTier
	// DeadR1 never answers (the ~4.5% discarded probes of Table 1).
	DeadR1
	// BrokenR1 responds but always fails (SERVFAIL): the small
	// "answers (disc.)" fraction of Table 1.
	BrokenR1
)

var r1KindNames = [...]string{DirectHonest: "direct", DirectCap60: "direct-cap60",
	FarmGoogle: "farm-google", FarmOther: "farm-other", MultiTier: "multi-tier",
	DeadR1: "dead", BrokenR1: "broken"}

func (k R1Kind) String() string {
	if k < 0 || int(k) >= len(r1KindNames) {
		return "unknown"
	}
	return r1KindNames[k]
}

// R1Meta describes one first-hop recursive address.
type R1Meta struct {
	Kind R1Kind
	// Public marks addresses on the paper's public-resolver list
	// (Table 3).
	Public bool
	Google bool
}

// PopulationConfig sets the behavior mix. Fractions apply per vantage
// point; the remainder is DirectHonest. The defaults are calibrated so the
// §3 baseline lands near the paper's numbers: ~30% warm-cache misses,
// about half of them entering through public farms, ~2% TTL truncation
// for TTLs of an hour or less, ~30% for day-long TTLs.
type PopulationConfig struct {
	FracFarmGoogle float64
	FracFarmOther  float64
	FracMultiTier  float64
	FracCap60      float64
	// FracDead is the per-probe probability that all of a probe's
	// recursives are unreachable (Table 1's probes disc.).
	FracDead float64
	// FracBroken is the per-VP probability of a recursive that always
	// SERVFAILs (Table 1's answers disc.).
	FracBroken float64
	// FracDirectCap6h is the per-VP probability of a direct resolver
	// whose cache caps TTLs at 6 hours (with the farm caps, this yields
	// the paper's ~30% truncation of day-long TTLs).
	FracDirectCap6h float64

	// GoogleBackends and OtherBackends size the farm fragmentation.
	GoogleBackends int
	OtherBackends  int
	// MultiTierPoolSize is the Rn pool each multi-tier group shares.
	MultiTierPoolSize int
	// VPsPerMultiTierGroup bounds how many vantage points share one Rn
	// pool.
	VPsPerMultiTierGroup int
	// FracMultiTierViaGoogle routes this fraction of multi-tier groups
	// through the Google farm as one upstream (the paper's "10% of
	// non-public misses eventually emerge from Google").
	FracMultiTierViaGoogle float64
	// FarmTTLCap is the backend cache cap of public farms (the ~6 h
	// refresh the paper cites for day-long TTLs).
	FarmTTLCap time.Duration
	// FlushPerHour is the probability per hour that a direct resolver's
	// cache is flushed (restarts/operator flushes, §3.1).
	FlushPerHour float64
	// Harvest selects the NS-record harvesting mode of iterative
	// resolvers (HarvestFull produces the paper's Figure 10 query mix).
	Harvest recursive.HarvestMode
	// FracAnswerFromReferral is the fraction of direct resolvers that
	// answer clients from referral-learned (parent-side) data, the small
	// minority Appendix A finds in the wild.
	FracAnswerFromReferral float64
	// ServeStaleDirect turns on serve-stale at every direct (single-tier)
	// resolver, modeling universal adoption of the serve-stale draft —
	// the what-if behind the paper's §5.3 discussion.
	ServeStaleDirect bool
	// PrefetchDirect, when positive, enables Unbound-style prefetch at
	// every direct resolver with the given threshold fraction (an
	// extension experiment: prefetch keeps caches warm into an attack).
	PrefetchDirect float64
}

func (c PopulationConfig) withDefaults() PopulationConfig {
	orDefault(&c.FracFarmGoogle, 0.15)
	orDefault(&c.FracFarmOther, 0.06)
	orDefault(&c.FracMultiTier, 0.22)
	orDefault(&c.FracCap60, 0.02)
	orDefault(&c.FracDead, 0.045)
	orDefault(&c.FracBroken, 0.004)
	orDefault(&c.FracDirectCap6h, 0.10)
	orDefault(&c.GoogleBackends, 24)
	orDefault(&c.OtherBackends, 8)
	orDefault(&c.MultiTierPoolSize, 3)
	orDefault(&c.VPsPerMultiTierGroup, 40)
	orDefault(&c.FracMultiTierViaGoogle, 0.10)
	orDefault(&c.FarmTTLCap, 6*time.Hour)
	orDefault(&c.FlushPerHour, 0.02)
	orDefault(&c.FracAnswerFromReferral, 0.05)
	return c
}

// orDefault sets *v to d when it holds the zero value.
func orDefault[T comparable](v *T, d T) {
	var zero T
	if *v == zero {
		*v = d
	}
}

// Population is the assembled resolver-and-probe world.
type Population struct {
	Probes []*vantage.Probe
	R1Meta map[netsim.Addr]R1Meta
	// GoogleRn lists the Google farm's backend addresses (the slice is
	// shared with the farm LB's forwarder list; treat as read-only).
	GoogleRn []netsim.Addr
	// Resolvers are the population's recursives, lazily materialized: a
	// cell describes thousands of resolvers but a run only pays for the
	// ones traffic actually reaches.
	Resolvers []*LazyResolver

	googleRnSet map[netsim.Addr]bool // lazy index over GoogleRn
	// cfg0 holds a cell's first variants (builder.variant) in the
	// population's own allocation.
	cfg0 [8]recursive.Config
}

// IsGoogleRn reports whether addr is a Google-farm backend. The lookup
// index is built on first use: construction stays allocation-free and
// only analysis passes pay for the map.
func (p *Population) IsGoogleRn(addr netsim.Addr) bool {
	if p.googleRnSet == nil {
		if len(p.GoogleRn) == 0 {
			return false
		}
		p.googleRnSet = make(map[netsim.Addr]bool, len(p.GoogleRn))
		for _, rn := range p.GoogleRn {
			p.googleRnSet[rn] = true
		}
	}
	return p.googleRnSet[addr]
}

// LazyResolver is a deferred recursive resolver: its behaviour (the
// variant its kind shares, see builder.variant) and seed are fixed at
// population build time, so RNG draw order is identical to eager
// construction, but the resolver is made and bound only when the first
// packet is delivered to its address.
type LazyResolver struct {
	net  *netsim.Network
	cfg  *recursive.Config
	addr netsim.Addr
	seed int64
	r    *recursive.Resolver
}

// Materialize builds the resolver; netsim calls it on first delivery.
func (l *LazyResolver) Materialize() {
	r := recursive.New(l.net.Clock(), l.cfg, l.seed)
	r.Attach(l.net, l.addr)
	l.r = r
}

// Resolver returns the materialized resolver, nil if it never saw traffic.
func (l *LazyResolver) Resolver() *recursive.Resolver { return l.r }

// deferResolver registers a lazy resolver of variant cfg at addr, with the
// next seed of the sequence.
func (b *builder) deferResolver(addr netsim.Addr, cfg *recursive.Config) *LazyResolver {
	l := b.lazy.put(LazyResolver{net: b.net, cfg: cfg, addr: addr, seed: b.nextSeed()}, 64)
	b.net.BindLazy(addr, l)
	b.pop.Resolvers = append(b.pop.Resolvers, l)
	return l
}

// arena hands out pointers into chunked slices: appending never moves
// earlier entries (a full chunk is retired, not grown, and the next is
// twice its size, at least min), so returned pointers stay valid.
type arena[T any] struct{ chunk []T }

func (a *arena[T]) put(v T, min int) *T {
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]T, 0, max(2*cap(a.chunk), min))
	}
	a.chunk = append(a.chunk, v)
	return &a.chunk[len(a.chunk)-1]
}

// profile returns the named row of recursive's profile table.
func profile(name string) recursive.Config {
	cfg, ok := recursive.Profile(name)
	if !ok {
		panic("experiment: no resolver profile " + name)
	}
	return cfg
}

// directCaps are the cache caps of direct resolvers: none, the EC2-like
// 60 s of DirectCap60, and the 6 h that truncates day-long TTLs.
var directCaps = [...]time.Duration{0, 60 * time.Second, 6 * time.Hour}

// builder carries construction state.
type builder struct {
	clk    clock.Clock
	net    *netsim.Network
	hints  []recursive.ServerHint
	cfg    PopulationConfig
	rng    *rand.Rand
	domain string

	pop  *Population
	lazy arena[LazyResolver]
	// cfgs holds the cell's variants, its first chunk the population's
	// cfg0; direct (by cache cap and answer-from-referral), broken, mtRn
	// and mtR1 (the current pool's forwarder) are those made so far.
	cfgs              arena[recursive.Config]
	direct            [len(directCaps)][2]*recursive.Config
	broken, mtRn      *recursive.Config
	mtR1              *recursive.Config
	nextAddr          int
	googleLB, otherLB netsim.Addr
	mtPoolUsed        int
	seedSeq           int64
}

// variant stores cfg, a profile row with the cell's modifiers and
// upstreams, as the behaviour every resolver of one kind shares.
func (b *builder) variant(cfg recursive.Config) *recursive.Config { return b.cfgs.put(cfg, 8) }

// iterative is the default profile resolving from the cell's root hints
// with its harvest mode.
func (b *builder) iterative() recursive.Config {
	cfg := profile("default")
	cfg.RootHints, cfg.Harvest = b.hints, b.cfg.Harvest
	return cfg
}

// BuildPopulation creates the resolver infrastructure and probes. Each
// probe gets 1–3 first-hop recursives (so VPs ≈ 1.67 × probes, as in
// Table 1), with kinds drawn from the configured mix.
func BuildPopulation(clk clock.Clock, net *netsim.Network, probes int, domain string,
	hints []recursive.ServerHint, cfg PopulationConfig, seed int64) *Population {

	cfg = cfg.withDefaults()
	b := &builder{
		clk: clk, net: net, hints: hints, cfg: cfg,
		rng: lazyrand.New(seed), domain: domain,
		pop: &Population{
			R1Meta:    make(map[netsim.Addr]R1Meta),
			Resolvers: make([]*LazyResolver, 0, 64),
		},
		seedSeq: seed * 7919,
	}
	b.cfgs.chunk = b.pop.cfg0[:0]
	b.googleLB, b.pop.GoogleRn = b.buildFarm("google", "google-rn", "google-lb", cfg.GoogleBackends, false)
	b.otherLB, _ = b.buildFarm("pubdns", "pubdns-rn", "pubdns-lb", cfg.OtherBackends, true)

	for id := 1; id <= probes; id++ {
		nRec := 1
		switch r := b.rng.Float64(); {
		case r < 0.15:
			nRec = 3
		case r < 0.50:
			nRec = 2
		}
		// Discarded probes (Table 1) fail wholesale: every local
		// recursive is unreachable.
		dead := b.rng.Float64() < cfg.FracDead
		var recursives []netsim.Addr
		for j := 0; j < nRec; j++ {
			if dead {
				addr := b.addr("dead-r1")
				b.pop.R1Meta[addr] = R1Meta{Kind: DeadR1}
				recursives = append(recursives, addr)
				continue
			}
			recursives = append(recursives, b.buildR1())
		}
		p := vantage.NewProbe(clk, net, uint16(id), b.addr("probe"), recursives, domain)
		b.nextSeed() // a probe draws no seed, but its slot keeps every later resolver seed in place
		b.pop.Probes = append(b.pop.Probes, p)
	}
	return b.pop
}

// addrIntern caches generated host addresses. The builder's address
// sequence is deterministic, so same-shaped testbeds (every shard of a
// run, every benchmark iteration) produce the same strings; interning
// makes the steady-state cost zero allocations.
var addrIntern struct {
	mu sync.Mutex
	m  map[addrKey]netsim.Addr
}

type addrKey struct {
	prefix string
	n      int
}

func (b *builder) addr(prefix string) netsim.Addr {
	b.nextAddr++
	k := addrKey{prefix, b.nextAddr}
	addrIntern.mu.Lock()
	a, ok := addrIntern.m[k]
	if !ok {
		a = netsim.Addr(prefix + "-" + itoa(k.n))
		if addrIntern.m == nil {
			addrIntern.m = make(map[addrKey]netsim.Addr)
		}
		addrIntern.m[k] = a
	}
	addrIntern.mu.Unlock()
	return a
}

func (b *builder) nextSeed() int64 {
	b.seedSeq++
	return b.seedSeq
}

// farmAddrKey identifies a farm's backend address sequence: the interned
// addresses are fully determined by (prefix, first counter value, count).
type farmAddrKey struct {
	prefix string
	start  int
	n      int
}

// farmAddrIntern shares backend address slices across testbeds. The
// slices are read-only by contract (forwarder rotation copies before
// shuffling), so identical farm shapes reuse one allocation.
var farmAddrIntern struct {
	mu sync.Mutex
	m  map[farmAddrKey][]netsim.Addr
}

// buildFarm creates a fragmented public resolver farm: an uncached
// load-balancer frontend spreading queries over independently cached
// iterative backends. It returns the LB address and the backend list.
func (b *builder) buildFarm(name, rnPrefix, lbName string, backends int, serveStale bool) (netsim.Addr, []netsim.Addr) {
	key := farmAddrKey{prefix: rnPrefix, start: b.nextAddr, n: backends}
	farmAddrIntern.mu.Lock()
	backendAddrs, interned := farmAddrIntern.m[key]
	farmAddrIntern.mu.Unlock()
	if !interned {
		backendAddrs = make([]netsim.Addr, 0, backends)
	}
	rn := b.iterative()
	rn.Cache.MaxTTL, rn.ServeStale = b.cfg.FarmTTLCap, serveStale
	rnCfg := b.variant(rn)
	for i := 0; i < backends; i++ {
		addr := b.addr(rnPrefix)
		b.deferResolver(addr, rnCfg)
		if !interned {
			backendAddrs = append(backendAddrs, addr)
		}
	}
	if !interned {
		farmAddrIntern.mu.Lock()
		if farmAddrIntern.m == nil {
			farmAddrIntern.m = make(map[farmAddrKey][]netsim.Addr)
		}
		farmAddrIntern.m[key] = backendAddrs
		farmAddrIntern.mu.Unlock()
	}
	lbCfg := profile("farm-balancer")
	lbCfg.Forwarders = backendAddrs
	lb := b.addr(lbName)
	b.deferResolver(lb, b.variant(lbCfg))
	return lb, backendAddrs
}

// buildR1 creates (or reuses) the first-hop recursive for one vantage
// point and returns its address.
func (b *builder) buildR1() netsim.Addr {
	r := b.rng.Float64()
	cfg := b.cfg
	switch {
	case r < cfg.FracBroken:
		// A resolver that always SERVFAILs (no usable root hints).
		addr := b.addr("broken-r1")
		if b.broken == nil {
			b.broken = b.variant(profile("default"))
		}
		b.deferResolver(addr, b.broken)
		b.pop.R1Meta[addr] = R1Meta{Kind: BrokenR1}
		return addr
	case r < cfg.FracBroken+cfg.FracFarmGoogle:
		b.pop.R1Meta[b.googleLB] = R1Meta{Kind: FarmGoogle, Public: true, Google: true}
		return b.googleLB
	case r < cfg.FracBroken+cfg.FracFarmGoogle+cfg.FracFarmOther:
		b.pop.R1Meta[b.otherLB] = R1Meta{Kind: FarmOther, Public: true}
		return b.otherLB
	case r < cfg.FracBroken+cfg.FracFarmGoogle+cfg.FracFarmOther+cfg.FracMultiTier:
		return b.buildMultiTierR1()
	case r < cfg.FracBroken+cfg.FracFarmGoogle+cfg.FracFarmOther+cfg.FracMultiTier+cfg.FracCap60:
		return b.buildDirect(DirectCap60, 1)
	case r < cfg.FracBroken+cfg.FracFarmGoogle+cfg.FracFarmOther+cfg.FracMultiTier+cfg.FracCap60+cfg.FracDirectCap6h:
		return b.buildDirect(DirectHonest, 2)
	default:
		return b.buildDirect(DirectHonest, 0)
	}
}

// buildDirect creates a per-VP single-tier iterative recursive whose cache
// caps TTLs at directCaps[c].
func (b *builder) buildDirect(kind R1Kind, c int) netsim.Addr {
	addr := b.addr("isp-r1")
	afr := 0
	if b.rng.Float64() < b.cfg.FracAnswerFromReferral {
		afr = 1
	}
	v := &b.direct[c][afr]
	if *v == nil {
		cfg := b.iterative()
		cfg.Cache.MaxTTL, cfg.AnswerFromReferral = directCaps[c], afr == 1
		cfg.ServeStale, cfg.Prefetch = b.cfg.ServeStaleDirect, b.cfg.PrefetchDirect
		*v = b.variant(cfg)
	}
	l := b.deferResolver(addr, *v)
	b.pop.R1Meta[addr] = R1Meta{Kind: kind}
	b.scheduleFlushes(l)
	return addr
}

// buildMultiTierR1 creates an uncached forwarder over the current Rn
// pool, cutting a fresh pool every VPsPerMultiTierGroup vantage points.
func (b *builder) buildMultiTierR1() netsim.Addr {
	if b.mtR1 == nil || b.mtPoolUsed >= b.cfg.VPsPerMultiTierGroup {
		if b.mtRn == nil {
			b.mtRn = b.variant(b.iterative())
		}
		var pool []netsim.Addr
		for i := 0; i < b.cfg.MultiTierPoolSize; i++ {
			rnAddr := b.addr("mt-rn")
			b.scheduleFlushes(b.deferResolver(rnAddr, b.mtRn))
			pool = append(pool, rnAddr)
		}
		if b.rng.Float64() < b.cfg.FracMultiTierViaGoogle {
			pool = append(pool, b.googleLB)
		}
		fwd := profile("multitier-forwarder")
		fwd.Forwarders = pool
		b.mtR1, b.mtPoolUsed = b.variant(fwd), 0
	}
	b.mtPoolUsed++

	addr := b.addr("mt-r1")
	b.deferResolver(addr, b.mtR1)
	b.pop.R1Meta[addr] = R1Meta{Kind: MultiTier}
	return addr
}

// scheduleFlushes arms random cache flushes over the next 12 hours,
// modeling resolver restarts (§3.1). Flushing a resolver that never
// materialized is a no-op either way: its cache is empty by definition.
func (b *builder) scheduleFlushes(l *LazyResolver) {
	if b.cfg.FlushPerHour <= 0 {
		return
	}
	for h := 0; h < 12; h++ {
		if b.rng.Float64() < b.cfg.FlushPerHour {
			at := time.Duration(h)*time.Hour +
				time.Duration(b.rng.Int63n(int64(time.Hour)))
			clock.AfterFunc(b.clk, at, func() {
				if r := l.Resolver(); r != nil {
					r.Cache().Flush()
				}
			})
		}
	}
}

// KindOf returns the R1 kind behind addr.
func (p *Population) KindOf(addr netsim.Addr) R1Kind {
	return p.R1Meta[addr].Kind
}

// VPCount returns the total number of vantage points.
func (p *Population) VPCount() int {
	n := 0
	for _, probe := range p.Probes {
		n += len(probe.Recursives)
	}
	return n
}
